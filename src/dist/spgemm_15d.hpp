// 1.5D distributed SpGEMM (Algorithm 2, §5.2): P ← Q·A where both operands
// are block-row partitioned over the p/c process rows of a 1.5D grid and
// block row i is replicated on the c ranks of process row P(i, :).
//
// The p/c block rows of A are processed in chunked rounds: the c ranks of a
// process row split the block rows among themselves (each rank handles
// ⌈(p/c)/c⌉ rounds), receive the A block assigned to the current round from
// its owner inside their process column, and multiply it against the
// matching column panel of the row's Q block — the α·p/c² + β·kbd/c round
// terms of T_prob (§5.2.1).
//
// Two data-movement variants are provided (§5.2.1):
//  - sparsity-oblivious (Koanantakool et al.): whole A block rows are
//    broadcast down each process column;
//  - sparsity-aware (Ballard et al.): each rank first sends the list
//    NnzCols(Qˡ_ik) of A-rows its panel actually touches, and the owner
//    replies with exactly those rows.
// Both variants produce bit-identical products (the per-entry accumulation
// order is unchanged); only the communication volume differs.
//
// The row exchange replaces Algorithm 2's closing all-reduce. Each replica
// trains only its row's batches that the keeper rule (row_keepers) gives
// it, so a batch's result goes to its keeper alone: before the rounds the
// row all-gathers the inputs its keepers own (Q rows), and after them each
// replica sends the rows of its partial products that belong to batches
// another replica keeps, one all-to-allv per process row.
//
// masked_extract_15d runs the same round schedule for EXTRACT (§4.2.3):
// every batch's A[R_b, S_b], with the sampled-column mask applied where the
// rows live, so only the kept entries cross the fabric; its exchange
// gathers each batch's frontier and mask and routes the masked pieces.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "graph/partition.hpp"
#include "sparse/csr.hpp"
#include "sparse/spgemm_engine.hpp"

namespace dms {

/// Block-row distributed sparse matrix: rows split into grid.rows() balanced
/// contiguous blocks; block i lives on (is replicated over) process row
/// P(i, :), so each process column holds the entire matrix. The grid is the
/// process layout every collective over the matrix runs on; its ranks are
/// global ranks [0, grid.size()) of whatever cluster records the run.
class DistBlockRowMatrix {
 public:
  /// Partitions `global` into grid.rows() block rows.
  DistBlockRowMatrix(const ProcessGrid& grid, const CsrMatrix& global);

  /// The process grid the matrix was partitioned over.
  const ProcessGrid& grid() const { return grid_; }
  index_t rows() const { return part_.total(); }
  index_t cols() const { return cols_; }
  index_t num_blocks() const { return part_.parts(); }
  const BlockPartition& partition() const { return part_; }

  /// Local block of process row i (rows partition().begin(i)..end(i)).
  const CsrMatrix& block(index_t i) const {
    return blocks_[static_cast<std::size_t>(i)];
  }

  /// Bytes a rank in process row i stores for this matrix.
  std::size_t block_bytes(index_t i) const {
    return blocks_[static_cast<std::size_t>(i)].bytes();
  }

  /// Reassembles the global matrix (tests / debugging).
  CsrMatrix gather() const;

 private:
  ProcessGrid grid_;
  BlockPartition part_;
  index_t cols_ = 0;
  std::vector<CsrMatrix> blocks_;
};

struct Spgemm15dOptions {
  /// Ship only the A-rows that nonzero columns of each Q panel touch
  /// (Algorithm 2 line 4) instead of broadcasting whole block rows.
  bool sparsity_aware = true;
  /// Phase name under which compute/comm time is recorded on the Cluster.
  std::string phase = "spgemm_15d";
  /// Engine options for the per-panel local multiplies Qˡ_ik·A_k. The
  /// default kAuto dispatch picks a kernel per panel from the symbolic
  /// phase's flop estimate (the sparsity-aware panels are exactly the
  /// sparse-rows-over-wide-matrix shape the hash kernel targets); every
  /// kernel choice yields bit-identical partial products, so the grid-shape
  /// equivalence contract is unaffected. masked_extract_15d passes it to
  /// every spgemm_masked call.
  SpgemmOptions local;
};

/// Exact communication volumes of one spgemm_15d or masked_extract_15d
/// call (Figure 7 analysis and the sparsity-aware ablation).
struct Spgemm15dStats {
  /// A payload shipped between ranks: requested A-rows (spgemm_15d) or
  /// masked pieces A[R_b ∩ block, S_b] (masked_extract_15d), sparsity-aware;
  /// whole broadcast blocks, oblivious.
  std::size_t row_data_bytes = 0;
  /// Request lists (aware only): row ids, plus each requested batch's mask
  /// for masked_extract_15d.
  std::size_t id_bytes = 0;
  /// The row exchange (c > 1): keepers' inputs all-gathered to the row's
  /// computing replicas — Q rows (CSR), or each batch's frontier and mask —
  /// and partial-product rows (CSR) or masked pieces routed to the keepers
  /// of their batches.
  std::size_t gather_bytes = 0;
  std::size_t route_bytes = 0;
  std::size_t round_messages = 0;     ///< request/reply and broadcast messages
  std::size_t exchange_messages = 0;  ///< gather and route messages
  std::size_t rounds = 0;             ///< chunked broadcast rounds executed
  /// Bytes moved only because a crashed rank's block/work was re-fetched
  /// from a surviving replica (degrade-and-continue, DESIGN.md §13). Always
  /// 0 on a healthy cluster.
  std::size_t redistribution_bytes = 0;
};

/// The keeper rule (DESIGN.md §3.2). Process row i's keepers are its alive
/// ranks of `grid`, in column order; batch b of the row's batch list is
/// kept by keepers[b mod keepers.size()] (batch_keeper) — the replica that
/// trains it and the only one its 1.5D results are sent to. Empty when every
/// replica of the row is dead.
std::vector<int> row_keepers(const Cluster& cluster, const ProcessGrid& grid, int i);

/// Batch b's keeper among its process row's non-empty row_keepers.
inline int batch_keeper(const std::vector<int>& keepers, std::size_t b) {
  return keepers[b % keepers.size()];
}

/// Computes P = Q·A over a.grid(). q_blocks[i] is process row i's block of
/// Q (any row count, cols == a.rows()); the result is returned in the same
/// block-row layout (result[i] is process row i's, its rows held by the
/// keepers of their batches). q_batches, if not empty, holds one batch
/// offset list per process row, as a FrontierStack's offsets: batch b owns
/// Q rows [off[b], off[b+1]). An empty list, or none, means Q row b is
/// batch b (LADIES' indicator Q). Compute and communication time/volume
/// are recorded on `cluster` under opts.phase; `cluster` must have at least
/// a.grid().size() ranks, and its liveness of global ranks
/// [0, a.grid().size()) drives crash recovery and the keepers.
std::vector<CsrMatrix> spgemm_15d(Cluster& cluster,
                                  const std::vector<CsrMatrix>& q_blocks,
                                  const DistBlockRowMatrix& a,
                                  const Spgemm15dOptions& opts = {},
                                  Spgemm15dStats* stats = nullptr,
                                  const std::vector<std::vector<index_t>>& q_batches = {});

/// One process row's batches for masked_extract_15d: rows[b] is batch b's
/// frontier R_b (global row ids of A, any order, repeats allowed), masks[b]
/// its sampled set S_b (sorted and duplicate-free).
struct ExtractBatches {
  std::span<const std::vector<index_t>> rows;
  std::span<const std::vector<index_t>> masks;
};

/// Computes A[R_b, S_b] for every batch b of every process row of a.grid(),
/// recorded on `cluster` as spgemm_15d records; result[i][b] is process row
/// i's batch b, bit-identical to
/// spgemm_masked(global A, R_b, S_b) (values pass through). It runs
/// spgemm_15d's round schedule — the same owners, survivors, rounds and
/// messages — but masks at the owner: sparsity-aware, the requester sends
/// each owner one message holding its batches' rows in that block (in
/// frontier order) and their masks, and the owner replies with only the
/// kept entries; sparsity-oblivious, the owner broadcasts its whole block
/// and the requester extracts locally. The row exchange then routes each
/// batch's pieces to its keeper. Every extraction is spgemm_masked with
/// opts.local (workspace included); compute and comm are recorded under
/// opts.phase.
std::vector<std::vector<CsrMatrix>> masked_extract_15d(
    Cluster& cluster, const DistBlockRowMatrix& a,
    const std::vector<ExtractBatches>& batches, const Spgemm15dOptions& opts = {},
    Spgemm15dStats* stats = nullptr);

}  // namespace dms
