#include "dist/spgemm_15d.hpp"

#include <algorithm>

#include "common/timer.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm_engine.hpp"

namespace dms {

DistBlockRowMatrix::DistBlockRowMatrix(const ProcessGrid& grid, const CsrMatrix& global)
    : grid_(grid), part_(global.rows(), grid.rows()), cols_(global.cols()) {
  blocks_.reserve(static_cast<std::size_t>(part_.parts()));
  for (index_t i = 0; i < part_.parts(); ++i) {
    blocks_.push_back(row_slice(global, part_.begin(i), part_.end(i)));
  }
}

CsrMatrix DistBlockRowMatrix::gather() const { return vstack(blocks_); }

namespace {

/// What one sparsity-aware request/reply between a requester and the owner
/// of a block cost: each side's compute seconds and the two messages' bytes.
/// id_bytes == 0 means nothing was requested and no message moves.
struct AwareCost {
  double requester_sec = 0.0;
  double owner_sec = 0.0;
  std::size_t id_bytes = 0;
  std::size_t reply_bytes = 0;
};

/// Adds to out[col] the CSR bytes of the rows r of m with row_col[r] ==
/// col. A part with no entries moves nothing: its receiver knows the shape.
void add_row_parts(const CsrMatrix& m, const std::vector<int>& row_col,
                   std::vector<std::size_t>& out) {
  std::vector<std::size_t> rows(out.size(), 0), nnz(out.size(), 0);
  for (index_t r = 0; r < m.rows(); ++r) {
    const auto col = static_cast<std::size_t>(row_col[static_cast<std::size_t>(r)]);
    ++rows[col];
    nnz[col] += static_cast<std::size_t>(m.row_nnz(r));
  }
  for (std::size_t col = 0; col < out.size(); ++col) {
    if (nnz[col] == 0) continue;
    out[col] += (rows[col] + 1) * sizeof(nnz_t) +
                nnz[col] * (sizeof(index_t) + sizeof(value_t));
  }
}

/// The round schedule of both collectives (Algorithm 2, §5.2.1), with the
/// crash recovery of DESIGN.md §13, then the row exchange. `work` says what
/// process row i computes against block k:
///   has_rows(i)     row i still has rows (a fully dead row throws iff so);
///   touches(i, k)   row i reads block k (a lost block throws iff so);
///   skip(i, k)      (i, k) contributes nothing;
///   local(i, k)     (i, k) computed on one rank against the whole block
///                   (the oblivious receiver, or i == k);
///   aware(i, k)     the sparsity-aware exchange, i != k;
///   batches(i)      the number of batches in row i's list;
///   inputs(i, kc, out)     adds to out[col] the bytes of the inputs of the
///                          batches whose keeper is in column col
///                          (kc[b] = batch b's keeper column);
///   results(i, k, kc, out) the same for what (i, k) produced;
///   finish(i)       row i's fold after the rounds.
/// Compute is billed to the rank that does it, each round's comm is the
/// max over process columns, and comm is recorded once per round that
/// moves a message plus once for the row exchange, so the loss-draw
/// counter advances the same way for both collectives.
template <typename Work>
void run_schedule(Cluster& cluster, const DistBlockRowMatrix& a,
                  const Spgemm15dOptions& opts, Spgemm15dStats* stats,
                  const std::string& who, Work& work) {
  const ProcessGrid& grid = a.grid();
  const CostModel& cm = cluster.cost_model();
  const index_t rows = grid.rows();
  const int c = grid.replication();

  // Block rows of A are split among the c ranks of every process row: rank
  // (i, j) works on the A blocks of chunk j, one per round.
  const BlockPartition chunks(rows, c);
  index_t num_rounds = 0;
  for (index_t j = 0; j < c; ++j) num_rounds = std::max(num_rounds, chunks.size(j));

  // Crash recovery (DESIGN.md §13): a dead rank's per-chunk work degrades
  // onto its row's first keeper (block rows are replicated across the
  // row's c ranks), and a dead owner's A block is fetched from a survivor
  // in another column. The arithmetic is untouched, so results stay
  // bit-identical to the healthy run; only attribution and the extra
  // survivor-fetch communication change. A block row with *no* surviving
  // replica is unrecoverable if anyone still needs it.
  std::vector<std::vector<int>> keepers(static_cast<std::size_t>(rows));
  for (index_t i = 0; i < rows; ++i) {
    keepers[static_cast<std::size_t>(i)] = row_keepers(cluster, grid, static_cast<int>(i));
  }
  const auto first_alive_in_row = [&](index_t row) -> int {
    const std::vector<int>& keep = keepers[static_cast<std::size_t>(row)];
    return keep.empty() ? -1 : keep.front();
  };
  // The rank that computes row i's chunk j: (i, j), or its stand-in.
  const auto worker = [&](index_t i, int j) -> int {
    const int r = grid.rank_of(static_cast<int>(i), j);
    return cluster.alive(r) ? r : first_alive_in_row(i);
  };
  const auto first_alive_in_col = [&](int j) -> int {
    for (const int r : grid.col_ranks(j)) {
      if (cluster.alive(r)) return r;
    }
    return -1;
  };

  for (index_t round = 0; round < num_rounds; ++round) {
    std::vector<double> rank_sec(static_cast<std::size_t>(grid.size()), 0.0);
    double comm_sec = 0.0;
    std::size_t comm_bytes = 0, comm_msgs = 0;
    double redist_sec = 0.0;
    std::size_t redist_bytes = 0;

    for (int j = 0; j < c; ++j) {
      if (round >= chunks.size(j)) continue;
      const index_t k = chunks.begin(j) + round;
      const CsrMatrix& ak = a.block(k);
      double col_comm = 0.0;
      const int owner = grid.rank_of(static_cast<int>(k), j);
      const int src = cluster.alive(owner) ? owner : first_alive_in_row(k);
      const bool src_degraded = src != owner;

      if (!opts.sparsity_aware && rows > 1) {
        // Oblivious round: the owner broadcasts its whole block row down the
        // process column (Koanantakool et al.). Each alive receiver gets the
        // payload once, so the link volume is payload * receivers — the
        // same per-destination accounting as the sparsity-aware path.
        std::size_t receivers = 0;
        for (const int r : grid.col_ranks(j)) {
          if (r != src && cluster.alive(r)) ++receivers;
        }
        if (src != -1 && receivers > 0) {
          const std::size_t payload =
              ak.bytes() * static_cast<std::size_t>(receivers);
          double t_bcast = cm.broadcast(grid.col_ranks(j), ak.bytes());
          if (src_degraded) {
            // The survivor first ships the block into the column before the
            // broadcast can run — the degrade-and-continue re-fetch.
            const int entry = first_alive_in_col(j);
            if (entry != -1) t_bcast += cm.p2p(entry, src, ak.bytes());
            redist_sec += t_bcast;
            redist_bytes += payload + ak.bytes();
          }
          col_comm += t_bcast;
          comm_bytes += payload;
          comm_msgs += receivers;
          if (stats != nullptr) stats->row_data_bytes += payload;
        }
      }

      for (index_t i = 0; i < rows; ++i) {
        const int dst_pref = grid.rank_of(static_cast<int>(i), j);
        const int dst = worker(i, j);
        if (dst == -1) {
          // Process row i lost every replica; it must have nothing left to
          // compute (the training layer assigns batches to alive rows only).
          check(!work.has_rows(i),
                who + ": process row " + std::to_string(i) +
                    " crashed entirely but still has rows — unrecoverable");
          work.skip(i, k);
          continue;
        }
        if (src == -1) {
          // Block row k is gone from the cluster: survivable only for rows
          // that never touch it.
          check(!work.touches(i, k),
                who + ": block row " + std::to_string(k) +
                    " lost (all replicas crashed) but is still referenced — "
                    "unrecoverable");
          work.skip(i, k);
          continue;
        }
        if (!opts.sparsity_aware || i == k) {
          // Whole-block work (the block is row-local when i == k).
          Timer t;
          work.local(i, k);
          rank_sec[static_cast<std::size_t>(dst)] += t.seconds();
          if (dst != dst_pref && i != k) {
            // Oblivious, requester replica dead: its row-mate in another
            // column computes against block k, which column j's broadcast
            // never reached — a live replica of block row k ships it over,
            // the one in the survivor's column if it is alive.
            const int near = grid.rank_of(static_cast<int>(k), grid.col_of(dst));
            const int from = cluster.alive(near) ? near : src;
            const double t_ship = cm.p2p(from, dst, ak.bytes());
            col_comm += t_ship;
            comm_bytes += ak.bytes();
            ++comm_msgs;
            redist_sec += t_ship;
            redist_bytes += ak.bytes();
            if (stats != nullptr) stats->row_data_bytes += ak.bytes();
          }
          continue;
        }
        // Sparsity-aware round (Algorithm 2 lines 4-9): the requester asks
        // the owner (or its survivor) for only what it touches.
        const AwareCost x = work.aware(i, k);
        rank_sec[static_cast<std::size_t>(dst)] += x.requester_sec;
        rank_sec[static_cast<std::size_t>(src)] += x.owner_sec;
        if (x.id_bytes == 0) continue;
        const double t_xfer =
            cm.p2p(dst, src, x.id_bytes) + cm.p2p(src, dst, x.reply_bytes);
        col_comm += t_xfer;
        comm_bytes += x.id_bytes + x.reply_bytes;
        comm_msgs += 2;
        if (src_degraded || dst != dst_pref) {
          redist_sec += t_xfer;
          redist_bytes += x.id_bytes + x.reply_bytes;
        }
        if (stats != nullptr) {
          stats->id_bytes += x.id_bytes;
          stats->row_data_bytes += x.reply_bytes;
        }
      }
      // Columns communicate concurrently; the round is gated by the slowest.
      comm_sec = std::max(comm_sec, col_comm);
    }

    cluster.add_compute(opts.phase,
                        *std::max_element(rank_sec.begin(), rank_sec.end()));
    if (comm_msgs > 0) cluster.record_comm(opts.phase, comm_sec, comm_bytes, comm_msgs);
    if (redist_sec > 0.0 || redist_bytes > 0) {
      cluster.add_fault_redistribution(redist_sec, redist_bytes);
    }
    if (stats != nullptr) {
      stats->round_messages += comm_msgs;
      ++stats->rounds;
      stats->redistribution_bytes += redist_bytes;
    }
  }

  // The row exchange (DESIGN.md §3.2), in place of Algorithm 2's row
  // all-reduce: each batch's result goes only to its keeper. Before the
  // rounds, the replicas that compute for row i need every keeper's
  // inputs (an all-gather); after them, each sends the parts of what it
  // computed that belong to batches another replica keeps (the
  // all-to-allv). Each is priced per row, rows run concurrently (max), and
  // the two are one comm event, recorded whenever some row has two alive
  // replicas — where the all-reduce was.
  bool exchange = false;
  for (const std::vector<int>& keep : keepers) exchange = exchange || keep.size() >= 2;
  if (exchange) {
    double gather_max = 0.0, route_max = 0.0;
    std::size_t gather_bytes = 0, route_bytes = 0, msgs = 0;
    const auto c_sz = static_cast<std::size_t>(c);
    for (index_t i = 0; i < rows; ++i) {
      const std::vector<int>& keep = keepers[static_cast<std::size_t>(i)];
      if (keep.size() < 2) continue;  // one survivor computes and keeps all
      std::vector<int> keeper_col(work.batches(i));
      for (std::size_t b = 0; b < keeper_col.size(); ++b) {
        keeper_col[b] = grid.col_of(batch_keeper(keep, b));
      }
      std::vector<char> computes(c_sz, 0);
      for (int j = 0; j < c; ++j) {
        if (chunks.size(j) > 0) computes[static_cast<std::size_t>(grid.col_of(worker(i, j)))] = 1;
      }
      std::vector<std::vector<std::size_t>> gather(c_sz, std::vector<std::size_t>(c_sz, 0));
      std::vector<std::vector<std::size_t>> route = gather;
      std::vector<std::size_t> inputs(c_sz, 0);
      work.inputs(i, keeper_col, inputs);
      for (std::size_t from = 0; from < c_sz; ++from) {
        for (std::size_t to = 0; to < c_sz; ++to) {
          if (to != from && computes[to] != 0) gather[from][to] = inputs[from];
        }
      }
      for (index_t k = 0; k < rows; ++k) {
        const auto holder = static_cast<std::size_t>(
            grid.col_of(worker(i, static_cast<int>(chunks.owner(k)))));
        std::vector<std::size_t> parts(c_sz, 0);
        work.results(i, k, keeper_col, parts);
        for (std::size_t to = 0; to < c_sz; ++to) {
          if (to != holder) route[holder][to] += parts[to];
        }
      }
      const std::vector<int> group = grid.row_ranks(static_cast<int>(i));
      gather_max = std::max(gather_max, cm.alltoallv(group, gather));
      route_max = std::max(route_max, cm.alltoallv(group, route));
      for (std::size_t from = 0; from < c_sz; ++from) {
        for (std::size_t to = 0; to < c_sz; ++to) {
          gather_bytes += gather[from][to];
          route_bytes += route[from][to];
          msgs += (gather[from][to] > 0 ? 1 : 0) + (route[from][to] > 0 ? 1 : 0);
        }
      }
    }
    cluster.record_comm(opts.phase, gather_max + route_max, gather_bytes + route_bytes,
                        msgs);
    if (stats != nullptr) {
      stats->gather_bytes += gather_bytes;
      stats->route_bytes += route_bytes;
      stats->exchange_messages += msgs;
    }
  }

  // Each keeper folds what it holds and received; rows run concurrently.
  double fold_max = 0.0;
  for (index_t i = 0; i < rows; ++i) {
    Timer t;
    work.finish(i);
    fold_max = std::max(fold_max, t.seconds());
  }
  cluster.add_compute(opts.phase, fold_max);
}

/// spgemm_15d's work: contrib[i][k] = Qˡ_ik · A_k, folded per row.
class ProductWork {
 public:
  ProductWork(const std::vector<CsrMatrix>& q,
              const std::vector<std::vector<index_t>>& q_batches,
              const DistBlockRowMatrix& a, const SpgemmOptions& local)
      : q_(q), q_batches_(q_batches), a_(a), local_(local), contrib_(q.size()),
        result_(q.size()) {
    for (auto& row : contrib_) row.resize(q.size());
  }

  bool has_rows(index_t i) const { return q_[static_cast<std::size_t>(i)].nnz() != 0; }
  bool touches(index_t i, index_t k) const { return panel(i, k).nnz() != 0; }
  void skip(index_t i, index_t k) {
    slot(i, k) = CsrMatrix(q_[static_cast<std::size_t>(i)].rows(), a_.cols());
  }
  void local(index_t i, index_t k) { slot(i, k) = spgemm(panel(i, k), a_.block(k), local_); }

  AwareCost aware(index_t i, index_t k) {
    AwareCost x;
    Timer t_dst;
    const CsrMatrix p = panel(i, k);
    const std::vector<index_t> needed = nonzero_columns(p);
    x.requester_sec = t_dst.seconds();
    if (needed.empty()) {
      slot(i, k) = CsrMatrix(p.rows(), a_.cols());
      return x;
    }
    Timer t_src;  // row extraction happens on the owner (or survivor) rank
    const CsrMatrix a_sub = extract_rows(a_.block(k), needed);
    x.owner_sec = t_src.seconds();
    Timer t_mul;
    slot(i, k) = spgemm(extract_columns(p, needed), a_sub, local_);
    x.requester_sec += t_mul.seconds();
    x.id_bytes = needed.size() * sizeof(index_t);
    x.reply_bytes = a_sub.bytes();
    return x;
  }

  std::size_t batches(index_t i) const {
    const std::vector<index_t>* off = offsets(i);
    return off == nullptr ? static_cast<std::size_t>(q_[static_cast<std::size_t>(i)].rows())
                          : off->size() - 1;
  }
  /// A keeper owns its batches' Q rows.
  void inputs(index_t i, const std::vector<int>& keeper_col,
              std::vector<std::size_t>& out) const {
    add_row_parts(q_[static_cast<std::size_t>(i)], row_cols(i, keeper_col), out);
  }
  /// (i, k)'s partial product, split by the keepers of its rows.
  void results(index_t i, index_t k, const std::vector<int>& keeper_col,
               std::vector<std::size_t>& out) {
    add_row_parts(slot(i, k), row_cols(i, keeper_col), out);
  }

  /// Folds the partial products in ascending k, so the per-entry
  /// accumulation order is independent of the grid shape.
  void finish(index_t i) {
    auto& parts = contrib_[static_cast<std::size_t>(i)];
    CsrMatrix acc = std::move(parts[0]);
    for (std::size_t k = 1; k < parts.size(); ++k) acc = csr_add(acc, parts[k]);
    result_[static_cast<std::size_t>(i)] = std::move(acc);
  }

  std::vector<CsrMatrix> take() { return std::move(result_); }

 private:
  CsrMatrix panel(index_t i, index_t k) const {
    const BlockPartition& part = a_.partition();
    return column_window(q_[static_cast<std::size_t>(i)], part.begin(k), part.end(k));
  }
  CsrMatrix& slot(index_t i, index_t k) {
    return contrib_[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)];
  }
  /// Row i's batch offsets over its Q rows; nullptr: Q row b is batch b.
  const std::vector<index_t>* offsets(index_t i) const {
    if (q_batches_.empty() || q_batches_[static_cast<std::size_t>(i)].empty()) return nullptr;
    return &q_batches_[static_cast<std::size_t>(i)];
  }
  /// The keeper column of each Q row of row i.
  std::vector<int> row_cols(index_t i, const std::vector<int>& keeper_col) const {
    const std::vector<index_t>* off = offsets(i);
    if (off == nullptr) return keeper_col;
    std::vector<int> cols(static_cast<std::size_t>(q_[static_cast<std::size_t>(i)].rows()));
    for (std::size_t b = 0; b + 1 < off->size(); ++b) {
      std::fill(cols.begin() + (*off)[b], cols.begin() + (*off)[b + 1], keeper_col[b]);
    }
    return cols;
  }

  const std::vector<CsrMatrix>& q_;
  const std::vector<std::vector<index_t>>& q_batches_;
  const DistBlockRowMatrix& a_;
  const SpgemmOptions& local_;
  std::vector<std::vector<CsrMatrix>> contrib_;
  std::vector<CsrMatrix> result_;
};

/// masked_extract_15d's work. Before the rounds, each requester row splits
/// every batch's rows by owner block (local ids, frontier order); serving
/// (i, k) runs spgemm_masked on block k once per batch with rows there; the
/// fold interleaves each batch's pieces back into frontier order.
class ExtractWork {
 public:
  ExtractWork(const std::vector<ExtractBatches>& batches,
              const DistBlockRowMatrix& a, const SpgemmOptions& local)
      : batches_(batches), a_(a), local_(local), rows_(batches.size()),
        result_(batches.size()) {}

  /// Requester-side split of row i's batches by owner block.
  void split(index_t i) {
    const ExtractBatches& in = batches_[static_cast<std::size_t>(i)];
    const BlockPartition& part = a_.partition();
    Requests& r = rows_[static_cast<std::size_t>(i)];
    const auto blocks = static_cast<std::size_t>(a_.num_blocks());
    r.ids.assign(blocks, {});
    r.off.assign(blocks, std::vector<index_t>{0});
    r.pieces.assign(blocks, std::vector<CsrMatrix>(in.rows.size()));
    for (const std::vector<index_t>& rb : in.rows) {
      for (const index_t g : rb) {
        check(g >= 0 && g < a_.rows(), "masked_extract_15d: row id out of range");
        const index_t k = part.owner(g);
        r.ids[static_cast<std::size_t>(k)].push_back(g - part.begin(k));
      }
      for (std::size_t k = 0; k < blocks; ++k) {
        r.off[k].push_back(static_cast<index_t>(r.ids[k].size()));
      }
    }
  }

  bool has_rows(index_t i) const {
    for (const auto& ids : rows_[static_cast<std::size_t>(i)].ids) {
      if (!ids.empty()) return true;
    }
    return false;
  }
  bool touches(index_t i, index_t k) const { return !ids(i, k).empty(); }
  void skip(index_t, index_t) {}  // no rows there: no pieces to make
  void local(index_t i, index_t k) { serve(i, k); }

  AwareCost aware(index_t i, index_t k) {
    AwareCost x;
    if (ids(i, k).empty()) return x;
    // One request: the rows of every batch with rows in block k, and that
    // batch's mask.
    const Requests& r = rows_[static_cast<std::size_t>(i)];
    const auto& off = r.off[static_cast<std::size_t>(k)];
    const auto& masks = batches_[static_cast<std::size_t>(i)].masks;
    std::size_t ids_sent = ids(i, k).size();
    for (std::size_t b = 0; b < masks.size(); ++b) {
      if (off[b + 1] > off[b]) ids_sent += masks[b].size();
    }
    x.id_bytes = ids_sent * sizeof(index_t);
    Timer t;
    x.reply_bytes = serve(i, k);
    x.owner_sec = t.seconds();
    return x;
  }

  std::size_t batches(index_t i) const {
    return batches_[static_cast<std::size_t>(i)].rows.size();
  }
  /// A keeper owns its batches' frontiers and masks.
  void inputs(index_t i, const std::vector<int>& keeper_col,
              std::vector<std::size_t>& out) const {
    const ExtractBatches& in = batches_[static_cast<std::size_t>(i)];
    for (std::size_t b = 0; b < in.rows.size(); ++b) {
      out[static_cast<std::size_t>(keeper_col[b])] +=
          (in.rows[b].size() + in.masks[b].size()) * sizeof(index_t);
    }
  }
  /// (i, k)'s masked pieces, each to its batch's keeper.
  void results(index_t i, index_t k, const std::vector<int>& keeper_col,
               std::vector<std::size_t>& out) const {
    const auto& pieces =
        rows_[static_cast<std::size_t>(i)].pieces[static_cast<std::size_t>(k)];
    for (std::size_t b = 0; b < pieces.size(); ++b) {
      if (pieces[b].nnz() == 0) continue;
      out[static_cast<std::size_t>(keeper_col[b])] += pieces[b].bytes();
    }
  }

  /// Interleaves each batch's pieces back into frontier order.
  void finish(index_t i) {
    const ExtractBatches& in = batches_[static_cast<std::size_t>(i)];
    auto& pieces = rows_[static_cast<std::size_t>(i)].pieces;
    const BlockPartition& part = a_.partition();
    std::vector<CsrMatrix>& out = result_[static_cast<std::size_t>(i)];
    out.resize(in.rows.size());
    std::vector<index_t> cursor(pieces.size());  // next row of each piece
    for (std::size_t b = 0; b < in.rows.size(); ++b) {
      const std::vector<index_t>& rb = in.rows[b];
      std::size_t nnz = 0;
      for (const auto& piece : pieces) nnz += static_cast<std::size_t>(piece[b].nnz());
      std::fill(cursor.begin(), cursor.end(), 0);
      std::vector<nnz_t> rowptr(rb.size() + 1, 0);
      std::vector<index_t> colidx(nnz);
      std::vector<value_t> vals(nnz);
      for (std::size_t t = 0; t < rb.size(); ++t) {
        const auto k = static_cast<std::size_t>(part.owner(rb[t]));
        const CsrMatrix& p = pieces[k][b];
        const index_t row = cursor[k]++;
        const auto at = static_cast<std::ptrdiff_t>(rowptr[t]);
        std::copy(p.row_cols(row).begin(), p.row_cols(row).end(), colidx.begin() + at);
        std::copy(p.row_vals(row).begin(), p.row_vals(row).end(), vals.begin() + at);
        rowptr[t + 1] = rowptr[t] + p.row_nnz(row);
      }
      out[b] = CsrMatrix(static_cast<index_t>(rb.size()),
                         static_cast<index_t>(in.masks[b].size()), std::move(rowptr),
                         std::move(colidx), std::move(vals));
    }
    pieces.clear();
  }

  std::vector<std::vector<CsrMatrix>> take() { return std::move(result_); }

 private:
  /// Row i's requests: ids[k] holds its rows in block k as local ids, batch
  /// by batch in frontier order, batch b's at [off[k][b], off[k][b+1]);
  /// pieces[k][b] is the served A[R_b ∩ block k, S_b] (0 rows if none).
  struct Requests {
    std::vector<std::vector<index_t>> ids;
    std::vector<std::vector<index_t>> off;
    std::vector<std::vector<CsrMatrix>> pieces;
  };

  const std::vector<index_t>& ids(index_t i, index_t k) const {
    return rows_[static_cast<std::size_t>(i)].ids[static_cast<std::size_t>(k)];
  }

  /// The owner's side of (i, k): one spgemm_masked per batch with rows in
  /// block k, read in place. Returns the pieces' bytes.
  std::size_t serve(index_t i, index_t k) {
    Requests& r = rows_[static_cast<std::size_t>(i)];
    const auto kk = static_cast<std::size_t>(k);
    const auto& masks = batches_[static_cast<std::size_t>(i)].masks;
    std::size_t bytes = 0;
    for (std::size_t b = 0; b < masks.size(); ++b) {
      const index_t b0 = r.off[kk][b], b1 = r.off[kk][b + 1];
      if (b1 == b0) continue;
      const std::span<const index_t> local_rows(r.ids[kk].data() + b0,
                                                static_cast<std::size_t>(b1 - b0));
      r.pieces[kk][b] = spgemm_masked(a_.block(k), local_rows, masks[b], local_);
      bytes += r.pieces[kk][b].bytes();
    }
    return bytes;
  }

  const std::vector<ExtractBatches>& batches_;
  const DistBlockRowMatrix& a_;
  const SpgemmOptions& local_;
  std::vector<Requests> rows_;
  std::vector<std::vector<CsrMatrix>> result_;
};

}  // namespace

std::vector<int> row_keepers(const Cluster& cluster, const ProcessGrid& grid, int i) {
  std::vector<int> keepers;
  for (const int r : grid.row_ranks(i)) {
    if (cluster.alive(r)) keepers.push_back(r);
  }
  return keepers;
}

std::vector<CsrMatrix> spgemm_15d(Cluster& cluster,
                                  const std::vector<CsrMatrix>& q_blocks,
                                  const DistBlockRowMatrix& a,
                                  const Spgemm15dOptions& opts, Spgemm15dStats* stats,
                                  const std::vector<std::vector<index_t>>& q_batches) {
  check(a.grid().size() <= cluster.size(),
        "spgemm_15d: A's grid has more ranks than the cluster");
  check(static_cast<index_t>(q_blocks.size()) == a.num_blocks(),
        "spgemm_15d: need one Q block per process row");
  check(q_batches.empty() || q_batches.size() == q_blocks.size(),
        "spgemm_15d: need one batch offset list per process row");
  for (std::size_t i = 0; i < q_blocks.size(); ++i) {
    check(q_blocks[i].cols() == a.rows(), "spgemm_15d: Q block columns must equal A rows");
    if (q_batches.empty() || q_batches[i].empty()) continue;
    const std::vector<index_t>& off = q_batches[i];
    check(off.front() == 0 && off.back() == q_blocks[i].rows() &&
              std::is_sorted(off.begin(), off.end()),
          "spgemm_15d: batch offsets must rise from 0 to the Q block's rows");
  }
  ProductWork work(q_blocks, q_batches, a, opts.local);
  run_schedule(cluster, a, opts, stats, "spgemm_15d", work);
  return work.take();
}

std::vector<std::vector<CsrMatrix>> masked_extract_15d(
    Cluster& cluster, const DistBlockRowMatrix& a,
    const std::vector<ExtractBatches>& batches, const Spgemm15dOptions& opts,
    Spgemm15dStats* stats) {
  const index_t rows = a.num_blocks();
  check(a.grid().size() <= cluster.size(),
        "masked_extract_15d: A's grid has more ranks than the cluster");
  check(static_cast<index_t>(batches.size()) == rows,
        "masked_extract_15d: need one batch list per process row");
  // Every mask is checked here, once, as spgemm_masked on the whole matrix
  // checks it: also for a batch with no rows, which no owner ever serves.
  for (const ExtractBatches& in : batches) {
    check(in.rows.size() == in.masks.size(),
          "masked_extract_15d: need one mask per batch");
    for (const std::vector<index_t>& s : in.masks) {
      for (std::size_t t = 0; t < s.size(); ++t) {
        check(s[t] >= 0 && s[t] < a.cols(),
              "masked_extract_15d: mask column id out of range");
        check(t == 0 || s[t - 1] < s[t],
              "masked_extract_15d: mask must be sorted and duplicate-free");
      }
    }
  }
  ExtractWork work(batches, a, opts.local);
  // Each requester row builds its requests before the rounds; rows run
  // concurrently.
  double split_max = 0.0;
  for (index_t i = 0; i < rows; ++i) {
    Timer t;
    work.split(i);
    split_max = std::max(split_max, t.seconds());
  }
  cluster.add_compute(opts.phase, split_max);
  run_schedule(cluster, a, opts, stats, "masked_extract_15d", work);
  return work.take();
}

}  // namespace dms
