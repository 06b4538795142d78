#include "dist/spgemm_15d.hpp"

#include <algorithm>

#include "common/timer.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm_engine.hpp"

namespace dms {

DistBlockRowMatrix::DistBlockRowMatrix(const ProcessGrid& grid, const CsrMatrix& global)
    : part_(global.rows(), grid.rows()), cols_(global.cols()) {
  blocks_.reserve(static_cast<std::size_t>(part_.parts()));
  for (index_t i = 0; i < part_.parts(); ++i) {
    blocks_.push_back(row_slice(global, part_.begin(i), part_.end(i)));
  }
}

CsrMatrix DistBlockRowMatrix::gather() const { return vstack(blocks_); }

std::vector<CsrMatrix> spgemm_15d(Cluster& cluster,
                                  const std::vector<CsrMatrix>& q_blocks,
                                  const DistBlockRowMatrix& a,
                                  const Spgemm15dOptions& opts, Spgemm15dStats* stats) {
  const ProcessGrid& grid = cluster.grid();
  const CostModel& cm = cluster.cost_model();
  const index_t rows = grid.rows();
  const int c = grid.replication();
  check(a.num_blocks() == rows, "spgemm_15d: A distributed over a different grid shape");
  check(static_cast<index_t>(q_blocks.size()) == rows,
        "spgemm_15d: need one Q block per process row");
  for (const CsrMatrix& q : q_blocks) {
    check(q.cols() == a.rows(), "spgemm_15d: Q block columns must equal A rows");
  }

  const BlockPartition& apart = a.partition();
  // Block rows of A are split among the c ranks of every process row: rank
  // (i, j) multiplies against the A blocks of chunk j, one per round.
  const BlockPartition chunks(rows, c);
  index_t num_rounds = 0;
  for (index_t j = 0; j < c; ++j) num_rounds = std::max(num_rounds, chunks.size(j));

  // contrib[i][k] = Qˡ_ik · A_k, computed on rank (i, owner column of k).
  std::vector<std::vector<CsrMatrix>> contrib(static_cast<std::size_t>(rows));
  for (auto& row : contrib) row.resize(static_cast<std::size_t>(rows));

  // Crash recovery (DESIGN.md §13): a dead rank's per-chunk work degrades
  // onto a surviving replica of its process row (block rows are replicated
  // across the row's c ranks), and a dead owner's A block is fetched from a
  // survivor in another column. The arithmetic — panels, products, fold
  // order — is untouched, so results stay bit-identical to the healthy run;
  // only attribution and the extra survivor-fetch communication change.
  // A block row with *no* surviving replica is unrecoverable if anyone
  // still needs it.
  const auto first_alive_in_row = [&](index_t row) -> int {
    for (int j2 = 0; j2 < c; ++j2) {
      const int r = grid.rank_of(static_cast<int>(row), j2);
      if (cluster.alive(r)) return r;
    }
    return -1;
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
      const index_t c0 = apart.begin(k), c1 = apart.end(k);
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
        const int dst =
            cluster.alive(dst_pref) ? dst_pref : first_alive_in_row(i);
        auto& slot =
            contrib[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)];
        if (dst == -1) {
          // Process row i lost every replica; its Q block must already be
          // empty (the training layer assigns batches to alive rows only).
          check(q_blocks[static_cast<std::size_t>(i)].nnz() == 0,
                "spgemm_15d: process row " + std::to_string(i) +
                    " crashed entirely but still owns Q rows — unrecoverable");
          slot = CsrMatrix(q_blocks[static_cast<std::size_t>(i)].rows(), a.cols());
          continue;
        }
        if (src == -1) {
          // Block row k is gone from the cluster: survivable only for
          // panels that never touch it.
          const CsrMatrix panel =
              column_window(q_blocks[static_cast<std::size_t>(i)], c0, c1);
          check(panel.nnz() == 0,
                "spgemm_15d: block row " + std::to_string(k) +
                    " lost (all replicas crashed) but is still referenced — "
                    "unrecoverable");
          slot = CsrMatrix(panel.rows(), a.cols());
          continue;
        }
        if (!opts.sparsity_aware || i == k) {
          // Full-block multiply (the block is row-local when i == k).
          Timer t;
          const CsrMatrix panel = column_window(q_blocks[static_cast<std::size_t>(i)], c0, c1);
          slot = spgemm(panel, ak, opts.local);
          rank_sec[static_cast<std::size_t>(dst)] += t.seconds();
          continue;
        }
        // Sparsity-aware round (Algorithm 2 lines 4-9): request only the
        // A-rows that NnzCols(Qˡ_ik) touches.
        Timer t_dst;
        const CsrMatrix panel = column_window(q_blocks[static_cast<std::size_t>(i)], c0, c1);
        const std::vector<index_t> needed = nonzero_columns(panel);
        rank_sec[static_cast<std::size_t>(dst)] += t_dst.seconds();
        if (needed.empty()) {
          slot = CsrMatrix(panel.rows(), a.cols());
          continue;
        }
        Timer t_src;  // row extraction happens on the owner (or survivor) rank
        const CsrMatrix a_sub = extract_rows(ak, needed);
        rank_sec[static_cast<std::size_t>(src)] += t_src.seconds();
        Timer t_mul;
        const CsrMatrix panel_sub = extract_columns(panel, needed);
        slot = spgemm(panel_sub, a_sub, opts.local);
        rank_sec[static_cast<std::size_t>(dst)] += t_mul.seconds();

        const std::size_t id_bytes = needed.size() * sizeof(index_t);
        const std::size_t row_bytes = a_sub.bytes();
        const double t_xfer =
            cm.p2p(dst, src, id_bytes) + cm.p2p(src, dst, row_bytes);
        col_comm += t_xfer;
        comm_bytes += id_bytes + row_bytes;
        comm_msgs += 2;
        if (src_degraded || dst != dst_pref) {
          redist_sec += t_xfer;
          redist_bytes += id_bytes + row_bytes;
        }
        if (stats != nullptr) {
          stats->id_bytes += id_bytes;
          stats->row_data_bytes += row_bytes;
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
      stats->messages += comm_msgs;
      ++stats->rounds;
      stats->redistribution_bytes += redist_bytes;
    }
  }

  // Local reduction of partial products, folded in ascending k so the
  // per-entry accumulation order is independent of the grid shape.
  std::vector<CsrMatrix> result(static_cast<std::size_t>(rows));
  double reduce_max = 0.0;
  for (index_t i = 0; i < rows; ++i) {
    Timer t;
    CsrMatrix acc = std::move(contrib[static_cast<std::size_t>(i)][0]);
    for (index_t k = 1; k < rows; ++k) {
      acc = csr_add(acc, contrib[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)]);
    }
    result[static_cast<std::size_t>(i)] = std::move(acc);
    reduce_max = std::max(reduce_max, t.seconds());
  }
  cluster.add_compute(opts.phase, reduce_max);

  // All-reduce of the partials across each process row (Algorithm 2 line
  // 14); every row reduces concurrently, so the clock advances by the max.
  // Only surviving replicas participate — a row reduced to one rank (or
  // zero) has nothing to exchange.
  if (c > 1) {
    double allreduce_max = 0.0;
    std::size_t allreduce_bytes = 0;
    std::size_t allreduce_msgs = 0;
    for (index_t i = 0; i < rows; ++i) {
      std::vector<int> group;
      for (const int r : grid.row_ranks(static_cast<int>(i))) {
        if (cluster.alive(r)) group.push_back(r);
      }
      if (group.size() < 2) continue;
      const std::size_t bytes = result[static_cast<std::size_t>(i)].bytes();
      allreduce_max = std::max(allreduce_max, cm.allreduce(group, bytes));
      allreduce_bytes += bytes * (group.size() - 1);
      allreduce_msgs += 2 * (group.size() - 1);
    }
    if (allreduce_msgs > 0) {
      cluster.record_comm(opts.phase, allreduce_max, allreduce_bytes,
                          allreduce_msgs);
    }
    if (stats != nullptr) {
      stats->allreduce_bytes += allreduce_bytes;
      stats->messages += allreduce_msgs;
    }
  }
  return result;
}

}  // namespace dms
