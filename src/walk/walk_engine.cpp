#include "walk/walk_engine.hpp"

#include "common/rng.hpp"

namespace dms {

namespace {

/// normalize_rows followed by the ITS single-draw fast path over one row of
/// (possibly biased) weights, with the matrix path's float ops: returns the
/// picked position, or -1 when the row has no positive mass.
index_t weighted_pick(std::span<const value_t> w, std::uint64_t seed) {
  value_t ssum = 0.0;
  for (const value_t x : w) ssum += x;
  // normalize_rows leaves an all-zero-sum row unchanged.
  const value_t inv = ssum == 0.0 ? 1.0 : 1.0 / ssum;
  const bool scale = ssum != 0.0;
  const auto normalized = [&](value_t x) {
    return std::max(scale ? x * inv : x, static_cast<value_t>(0.0));
  };
  value_t total = 0.0;
  for (const value_t x : w) total += normalized(x);
  if (total <= 0.0) return -1;
  if (w.size() == 1) return 0;
  Pcg32 rng(seed, 0x175);
  const value_t u = static_cast<value_t>(rng.uniform()) * total;
  value_t acc = 0.0;
  for (std::size_t k = 0; k < w.size(); ++k) {
    acc += normalized(w[k]);
    if (acc > u) return static_cast<index_t>(k);
  }
  return static_cast<index_t>(w.size()) - 1;
}

}  // namespace

WalkEngine::WalkEngine(const CsrMatrix& adj) : adj_(adj) {
  check(adj.rows() == adj.cols(), "WalkEngine: adjacency not square");
  for (const value_t v : adj.vals()) unit_weights_ = unit_weights_ && v == 1.0;
  index_t max_deg = 0;
  for (index_t v = 0; v < adj.rows(); ++v) {
    max_deg = std::max(max_deg, static_cast<index_t>(adj.row_nnz(v)));
  }
  unit_total_.assign(static_cast<std::size_t>(max_deg) + 1, 0.0);
  unit_prefix_.resize(static_cast<std::size_t>(max_deg) + 1);
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

index_t WalkEngine::next_vertex(index_t v, index_t prev, std::uint64_t seed,
                                const PlanOp& walk,
                                std::vector<value_t>& raw) const {
  const auto cols = adj_.row_cols(v);
  if (cols.empty()) return -1;  // sink vertex: the walk terminates
  if (prev >= 0) {
    // Second-order pick: bias each candidate, then replicate the normalize
    // + single-draw float ops over the biased values.
    const auto vals = adj_.row_vals(v);
    const auto prev_row = adj_.row_cols(prev);
    raw.resize(cols.size());
    for (std::size_t k = 0; k < cols.size(); ++k) {
      raw[k] = vals[k] * node2vec_bias_factor(cols[k], prev, prev_row,
                                              walk.bias_p, walk.bias_q);
    }
    const index_t k = weighted_pick(raw, seed);
    return k < 0 ? -1 : cols[static_cast<std::size_t>(k)];
  }
  if (unit_weights_) {
    // Unit-weight fast path: the normalized row is the constant 1/deg, and
    // the running sums the matrix path's linear scan compares against u
    // depend only on the degree — binary-searching the memoized prefix
    // finds the first sum > u, the identical index, without the O(pick)
    // serially-dependent float-add chain.
    if (cols.size() == 1) return cols[0];  // taken without consuming a draw
    const auto deg = static_cast<index_t>(cols.size());
    Pcg32 rng(seed, 0x175);
    const value_t u = static_cast<value_t>(rng.uniform()) * unit_total(deg);
    const std::vector<value_t>& pre = unit_prefix(deg);
    const auto it = std::upper_bound(pre.begin(), pre.end(), u);
    return it == pre.end() ? cols.back()
                           : cols[static_cast<std::size_t>(it - pre.begin())];
  }
  // Weighted unbiased pick, streamed off the adjacency row.
  const index_t k = weighted_pick(adj_.row_vals(v), seed);
  return k < 0 ? -1 : cols[static_cast<std::size_t>(k)];
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

  // Flatten the per-batch walker lists into batch-grouped flat state.
  // prev = -1: no previous step yet, so the first round of a biased plan
  // draws unbiased — the matrix path's empty prev lists.
  sc.cur.clear();
  sc.bof.clear();
  sc.prev.clear();
  for (std::size_t b = 0; b < nb; ++b) {
    for (const index_t v : walkers[b]) {
      sc.cur.push_back(v);
      sc.bof.push_back(static_cast<index_t>(b));
      sc.prev.push_back(-1);
    }
  }
  std::size_t live = sc.cur.size();

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

    // Advance every walker in walker order and compact the survivors in
    // place (write index j <= read index w): visited appends match the
    // matrix path's per-batch row order exactly.
    std::size_t j = 0;
    for (std::size_t w = 0; w < live; ++w) {
      const index_t v = sc.cur[w];
      const auto b = static_cast<std::size_t>(sc.bof[w]);
      const auto bid = static_cast<std::uint64_t>(
          batch_ids[static_cast<std::size_t>(first_batch) + b]);
      const auto lrow = static_cast<std::uint64_t>(
          static_cast<index_t>(w) - sc.off[b]);
      const index_t next =
          next_vertex(v, biased ? sc.prev[w] : -1,
                      derive_seed(epoch_seed, bid, round_term, lrow), walk,
                      sc.raw);
      if (next < 0) continue;
      visited[b].push_back(next);
      ++*steps;
      sc.cur[j] = next;
      sc.prev[j] = v;
      sc.bof[j] = sc.bof[w];
      ++j;
    }
    live = j;
  }

  // Write the surviving walkers (and their previous vertices) back to the
  // plan's per-batch lists.
  for (std::size_t b = 0; b < nb; ++b) {
    walkers[b].clear();
    if (prev != nullptr) (*prev)[b].clear();
  }
  for (std::size_t w = 0; w < live; ++w) {
    const auto b = static_cast<std::size_t>(sc.bof[w]);
    walkers[b].push_back(sc.cur[w]);
    if (prev != nullptr) (*prev)[b].push_back(sc.prev[w]);
  }
}

}  // namespace dms
