#include "walk/walk_engine.hpp"

#include "common/rng.hpp"

namespace dms {

WalkEngine::WalkEngine(const CsrMatrix& adj, const WalkEngineOptions& opts)
    : orig_(&adj) {
  check(adj.rows() == adj.cols(), "WalkEngine: adjacency not square");
  const index_t n = adj.rows();
  identity_ = !opts.relabel || n < opts.relabel_min_vertices;
  if (!identity_) relab_ = degree_sorted_relabeling(adj);

  // Position-preserving engine copy: row `nu` is the adjacency row of
  // unmap(nu) with every column replaced by its new id but kept in the
  // original (old-id ascending) order — so entry k is the same logical
  // neighbor in both id spaces and the ITS pick index carries over.
  rowptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  cols_.resize(static_cast<std::size_t>(adj.nnz()));
  vals_.resize(static_cast<std::size_t>(adj.nnz()));
  unit_weights_ = true;
  index_t max_deg = 0;
  std::size_t out = 0;
  for (index_t nu = 0; nu < n; ++nu) {
    const index_t v = unmap_v(nu);
    const auto rcols = adj.row_cols(v);
    const auto rvals = adj.row_vals(v);
    for (std::size_t k = 0; k < rcols.size(); ++k) {
      cols_[out + k] = map_v(rcols[k]);
      vals_[out + k] = rvals[k];
      unit_weights_ = unit_weights_ && rvals[k] == 1.0;
    }
    out += rcols.size();
    rowptr_[static_cast<std::size_t>(nu) + 1] = static_cast<nnz_t>(out);
    max_deg = std::max(max_deg, static_cast<index_t>(rcols.size()));
  }
  unit_total_.assign(static_cast<std::size_t>(max_deg) + 1, 0.0);
  unit_prefix_.resize(static_cast<std::size_t>(max_deg) + 1);

  // Bucket vertices by contiguous CSR byte ranges: processing a bucket's
  // walkers together keeps its adjacency slice cache-resident. After the
  // degree sort the hottest rows land in bucket 0.
  vbucket_.assign(static_cast<std::size_t>(n), 0);
  num_buckets_ = 1;
  if (opts.bucket_bytes > 0 && n > 0) {
    const std::size_t per_edge = sizeof(index_t) + sizeof(value_t);
    index_t b = 0;
    std::size_t start = 0;
    for (index_t nu = 0; nu < n; ++nu) {
      const std::size_t begin_bytes =
          static_cast<std::size_t>(rowptr_[static_cast<std::size_t>(nu)]) *
          per_edge;
      if (begin_bytes - start >= opts.bucket_bytes) {
        ++b;
        start = begin_bytes;
      }
      vbucket_[static_cast<std::size_t>(nu)] = b;
    }
    num_buckets_ = b + 1;
  }
}

value_t WalkEngine::unit_total(index_t deg) const {
  value_t& t = unit_total_[static_cast<std::size_t>(deg)];
  if (t == 0.0) {
    // The fl-accumulated total of a normalized unit row depends only on the
    // degree: deg additions of 1/deg, exactly the prefix build of the
    // matrix path.
    const value_t inv = 1.0 / static_cast<value_t>(deg);
    value_t acc = 0.0;
    for (index_t k = 0; k < deg; ++k) acc += inv;
    t = acc;
  }
  return t;
}

const std::vector<value_t>& WalkEngine::unit_prefix(index_t deg) const {
  std::vector<value_t>& pre = unit_prefix_[static_cast<std::size_t>(deg)];
  if (pre.empty()) {
    // prefix[k] = 1/deg added (k+1) times, rounding after every addition —
    // the running sums the linear scan would compare against u. Only the
    // first deg-1 entries are ever compared (no match falls through to the
    // last index), so that's all we store.
    pre.resize(static_cast<std::size_t>(deg) - 1);
    const value_t inv = 1.0 / static_cast<value_t>(deg);
    value_t acc = 0.0;
    for (index_t k = 0; k + 1 < deg; ++k) {
      acc += inv;
      pre[static_cast<std::size_t>(k)] = acc;
    }
  }
  return pre;
}

void WalkEngine::run(std::vector<std::vector<index_t>>& walkers,
                     std::vector<std::vector<index_t>>& visited,
                     std::vector<std::vector<index_t>>* prev,
                     const std::vector<index_t>& batch_ids, index_t first_batch,
                     std::uint64_t epoch_seed, const PlanOp& walk,
                     Workspace& ws, std::uint64_t* steps) const {
  check(walkers.size() == visited.size(), "WalkEngine: walker/visited mismatch");
  const bool biased = prev != nullptr;
  WalkScratch& sc = ws.walk_scratch();
  const std::size_t nb = walkers.size();

  // Flatten the per-batch walker lists into batch-grouped flat state
  // (engine id space). prev = -1: no previous step yet, so the first round
  // of a biased plan draws unbiased — the matrix path's empty prev lists.
  sc.cur.clear();
  sc.bof.clear();
  sc.prev.clear();
  for (std::size_t b = 0; b < nb; ++b) {
    for (const index_t v : walkers[b]) {
      sc.cur.push_back(map_v(v));
      sc.bof.push_back(static_cast<index_t>(b));
      sc.prev.push_back(-1);
    }
  }
  std::size_t live = sc.cur.size();
  sc.nxt.resize(live);

  for (index_t round = 0; round < walk.walk_length && live > 0; ++round) {
    const std::uint64_t round_term =
        static_cast<std::uint64_t>(round) + walk.seed.layer_salt;
    // Per-batch walker offsets: the ITS local-row seed term is the walker's
    // position within its batch's stack (walkers stay batch-grouped).
    sc.off.assign(nb + 1, 0);
    for (std::size_t w = 0; w < live; ++w) {
      ++sc.off[static_cast<std::size_t>(sc.bof[w]) + 1];
    }
    for (std::size_t b = 0; b < nb; ++b) sc.off[b + 1] += sc.off[b];

    // Stable counting sort of walkers into vertex-bucket order. Only the
    // processing order changes — each walker's draw is fully determined by
    // its seed, so results are independent of the bucketing.
    const bool bucketed = num_buckets_ > 1;
    if (bucketed) {
      sc.bucket_start.assign(static_cast<std::size_t>(num_buckets_) + 1, 0);
      for (std::size_t w = 0; w < live; ++w) {
        ++sc.bucket_start[static_cast<std::size_t>(
            vbucket_[static_cast<std::size_t>(sc.cur[w])]) + 1];
      }
      for (index_t b = 0; b < num_buckets_; ++b) {
        sc.bucket_start[static_cast<std::size_t>(b) + 1] +=
            sc.bucket_start[static_cast<std::size_t>(b)];
      }
      // Placement pass doubles as a gather: walker state lands in
      // bucket-ordered arrays (sequential reads, one streaming write head
      // per bucket), so the pick loop below never chases sc.cur/bof/off
      // through the processing order — its only random traffic is the
      // adjacency rows that bucketing keeps cache-resident.
      sc.order.resize(live);
      sc.gcur.resize(live);
      sc.gbof.resize(live);
      sc.glrow.resize(live);
      if (biased) sc.gprev.resize(live);
      for (std::size_t w = 0; w < live; ++w) {
        const auto b = static_cast<std::size_t>(
            vbucket_[static_cast<std::size_t>(sc.cur[w])]);
        const auto slot = static_cast<std::size_t>(sc.bucket_start[b]++);
        sc.order[slot] = static_cast<index_t>(w);
        sc.gcur[slot] = sc.cur[w];
        sc.gbof[slot] = sc.bof[w];
        sc.glrow[slot] = static_cast<index_t>(w) -
                         sc.off[static_cast<std::size_t>(sc.bof[w])];
        if (biased) sc.gprev[slot] = sc.prev[w];
      }
    }

    for (std::size_t pos = 0; pos < live; ++pos) {
      const auto w = bucketed ? static_cast<std::size_t>(sc.order[pos]) : pos;
      const index_t r = bucketed ? sc.gcur[pos] : sc.cur[pos];
      const nnz_t rb = rowptr_[static_cast<std::size_t>(r)];
      const auto deg = static_cast<index_t>(
          rowptr_[static_cast<std::size_t>(r) + 1] - rb);
      if (deg == 0) {  // sink vertex: the walk terminates
        sc.nxt[w] = -1;
        continue;
      }
      const auto b =
          static_cast<std::size_t>(bucketed ? sc.gbof[pos] : sc.bof[pos]);
      const auto bid = static_cast<std::uint64_t>(
          batch_ids[static_cast<std::size_t>(first_batch) + b]);
      const auto lrow = static_cast<std::uint64_t>(
          bucketed ? sc.glrow[pos] : static_cast<index_t>(pos) - sc.off[b]);
      const std::uint64_t seed = derive_seed(epoch_seed, bid, round_term, lrow);

      const index_t prev_new =
          !biased ? -1 : (bucketed ? sc.gprev[pos] : sc.prev[pos]);
      if (biased && prev_new >= 0) {
        // Second-order pick: bias each candidate, then replicate the
        // normalize + single-draw float ops over the biased values. The
        // membership test runs in the original id space, where the
        // previous vertex's neighbor list is sorted.
        const auto orig_cols = orig_->row_cols(unmap_v(r));
        const auto prev_row = orig_->row_cols(unmap_v(prev_new));
        sc.raw.resize(static_cast<std::size_t>(deg));
        for (index_t k = 0; k < deg; ++k) {
          sc.raw[static_cast<std::size_t>(k)] =
              vals_[static_cast<std::size_t>(rb) + static_cast<std::size_t>(k)] *
              node2vec_bias_factor(orig_cols[static_cast<std::size_t>(k)],
                                   unmap_v(prev_new), prev_row, walk.bias_p,
                                   walk.bias_q);
        }
        value_t ssum = 0.0;
        for (index_t k = 0; k < deg; ++k) ssum += sc.raw[static_cast<std::size_t>(k)];
        // normalize_rows leaves an all-zero-sum row unchanged.
        const value_t inv = ssum == 0.0 ? 1.0 : 1.0 / ssum;
        const bool scale = ssum != 0.0;
        value_t total = 0.0;
        for (index_t k = 0; k < deg; ++k) {
          const value_t raw = sc.raw[static_cast<std::size_t>(k)];
          total += std::max(scale ? raw * inv : raw, static_cast<value_t>(0.0));
        }
        if (total <= 0.0) {
          sc.nxt[w] = -1;
          continue;
        }
        if (deg == 1) {
          sc.nxt[w] = cols_[static_cast<std::size_t>(rb)];
          continue;
        }
        Pcg32 rng(seed, 0x175);
        const value_t u = static_cast<value_t>(rng.uniform()) * total;
        value_t acc = 0.0;
        index_t idx = deg - 1;
        for (index_t k = 0; k < deg; ++k) {
          const value_t raw = sc.raw[static_cast<std::size_t>(k)];
          acc += std::max(scale ? raw * inv : raw, static_cast<value_t>(0.0));
          if (acc > u) {
            idx = k;
            break;
          }
        }
        sc.nxt[w] =
            cols_[static_cast<std::size_t>(rb) + static_cast<std::size_t>(idx)];
        continue;
      }

      if (unit_weights_) {
        // Unit-weight fast path: the normalized row is the constant 1/deg,
        // and the running sums the matrix path's linear scan compares
        // against u depend only on the degree — binary-searching the
        // memoized prefix finds the first sum > u, the identical index,
        // without the O(pick) serially-dependent float-add chain.
        if (deg == 1) {  // single neighbor: taken without consuming a draw
          sc.nxt[w] = cols_[static_cast<std::size_t>(rb)];
          continue;
        }
        const value_t total = unit_total(deg);
        Pcg32 rng(seed, 0x175);
        const value_t u = static_cast<value_t>(rng.uniform()) * total;
        const std::vector<value_t>& pre = unit_prefix(deg);
        const auto it = std::upper_bound(pre.begin(), pre.end(), u);
        const auto idx = it == pre.end()
                             ? static_cast<std::size_t>(deg) - 1
                             : static_cast<std::size_t>(it - pre.begin());
        sc.nxt[w] = cols_[static_cast<std::size_t>(rb) + idx];
        continue;
      }

      // Weighted unbiased pick: same float ops as normalize + the ITS
      // single-draw fast path, streamed off the engine row.
      value_t ssum = 0.0;
      for (index_t k = 0; k < deg; ++k) {
        ssum += vals_[static_cast<std::size_t>(rb) + static_cast<std::size_t>(k)];
      }
      const value_t inv = ssum == 0.0 ? 1.0 : 1.0 / ssum;
      const bool scale = ssum != 0.0;
      value_t total = 0.0;
      for (index_t k = 0; k < deg; ++k) {
        const value_t v =
            vals_[static_cast<std::size_t>(rb) + static_cast<std::size_t>(k)];
        total += std::max(scale ? v * inv : v, static_cast<value_t>(0.0));
      }
      if (total <= 0.0) {
        sc.nxt[w] = -1;
        continue;
      }
      if (deg == 1) {
        sc.nxt[w] = cols_[static_cast<std::size_t>(rb)];
        continue;
      }
      Pcg32 rng(seed, 0x175);
      const value_t u = static_cast<value_t>(rng.uniform()) * total;
      value_t acc = 0.0;
      index_t idx = deg - 1;
      for (index_t k = 0; k < deg; ++k) {
        const value_t v =
            vals_[static_cast<std::size_t>(rb) + static_cast<std::size_t>(k)];
        acc += std::max(scale ? v * inv : v, static_cast<value_t>(0.0));
        if (acc > u) {
          idx = k;
          break;
        }
      }
      sc.nxt[w] =
          cols_[static_cast<std::size_t>(rb) + static_cast<std::size_t>(idx)];
    }

    // Merge survivors back in walker order (forward compaction, j <= w):
    // visited appends match the matrix path's per-batch row order exactly.
    std::size_t j = 0;
    for (std::size_t w = 0; w < live; ++w) {
      if (sc.nxt[w] < 0) continue;
      visited[static_cast<std::size_t>(sc.bof[w])].push_back(unmap_v(sc.nxt[w]));
      ++*steps;
      const index_t from = sc.cur[w];
      sc.cur[j] = sc.nxt[w];
      sc.prev[j] = from;
      sc.bof[j] = sc.bof[w];
      ++j;
    }
    live = j;
  }

  // Write the surviving walkers (and their previous vertices) back to the
  // plan's per-batch lists, in original ids.
  for (std::size_t b = 0; b < nb; ++b) {
    walkers[b].clear();
    if (prev != nullptr) (*prev)[b].clear();
  }
  for (std::size_t w = 0; w < live; ++w) {
    const auto b = static_cast<std::size_t>(sc.bof[w]);
    walkers[b].push_back(unmap_v(sc.cur[w]));
    if (prev != nullptr) (*prev)[b].push_back(unmap_v(sc.prev[w]));
  }
}

}  // namespace dms
