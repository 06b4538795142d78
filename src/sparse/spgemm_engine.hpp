// Unified adaptive SpGEMM engine — the single entry point for every sparse ×
// sparse product in the library.
//
// The paper's central claim is that minibatch sampling *is* SpGEMM (§4), so
// this kernel is the hot path of every sampler. The engine splits each
// multiply into a symbolic and a numeric phase:
//
//  - SYMBOLIC: one O(nnz(A)) pass computes the Gustavson FLOP count of every
//    output row (sum of B-row lengths the row touches), a flop-balanced
//    block decomposition of the rows, and a kernel choice per block. The
//    same pass notes whether every row of A stores at most one entry.
//  - NUMERIC: each block runs the kernel the estimator picked:
//      * gather — kAuto products whose A is a selection matrix (LABOR's
//                 Qˡ, the 1.5D panels of partitioned Qˡ·A, and GraphSAGE's
//                 Qˡ on the unoptimized reference path; the optimized
//                 GraphSAGE plan draws from A's rows instead and builds no
//                 product, see core/its.hpp): output row r is a(r,k)·B(k,:),
//                 so the flop prefix is the output rowptr and each block
//                 copies scaled B rows straight into the result. No
//                 accumulator, sort, workspace slot or stitch.
//      * dense  — a value per output column and a bitmap of the columns
//                 the current row touched (1 bit per column, all zero
//                 between rows). A row is emitted in column order by
//                 walking the bitmap's set bits; no sort, no per-row
//                 reset. It runs the accumulating products of the samplers
//                 (LADIES' indicator-row probability product and its 1.5D
//                 panels) and csr_sum, the 1.5D fold.
//      * hash   — nsparse-style open addressing sized to each row's
//                 upper-bound fill; sorts every row. Picked only for blocks
//                 with fewer flops than bitmap words (tiny products into
//                 wide outputs).
//
// The engine only multiplies: NORM is the plan's kNormalize op
// (sparse/ops.hpp normalize_rows, core/ladies.hpp ladies_norm). Masked
// extraction A[rows, mask] — the product Q_R·A·Q_C of §4.1.3/§4.2.3 with
// one nonzero per row of Q_R and per column of Q_C — is spgemm_masked,
// which reads the listed rows of A in place and keeps only the masked
// columns, so the work is proportional to the entries it reads
// (§4.2.3, §8.2.2).
//
// Bit-identity contract: all kernels emit rows in sorted column order and
// accumulate each output entry's contributions in the same order (the order
// the A row traverses its B rows: the first product is stored, the later
// ones added), so gather, dense, hash and auto products are bit-identical —
// not merely close (a selection row touches each column once, so every
// kernel stores av·bv in B's order). csr_sum adds its parts' entries in
// list order through the same accumulators. spgemm_masked passes
// values through, so it equals extraction by product-then-slice bit for
// bit. This is what lets the samplers dispatch adaptively while preserving
// the single-node/partitioned equivalence contract, and what makes the
// distributed 1.5D SpGEMM's results independent of the per-panel kernel
// choice.
#pragma once

#include <span>
#include <vector>

#include "common/workspace.hpp"
#include "sparse/csr.hpp"

namespace dms {

/// Kernel selector. kAuto gathers selection products and otherwise lets
/// the symbolic phase pick per row block (spgemm_pick_kernel).
enum class SpgemmKernel { kAuto, kDense, kHash };

/// Options controlling the SpGEMM engine.
struct SpgemmOptions {
  /// Parallelize over flop-balanced row blocks using the global thread pool.
  bool parallel = true;
  /// Kernel override. kAuto runs the row gather when every A row stores at
  /// most one entry, else dispatches per row block by spgemm_pick_kernel; a
  /// forced kDense/kHash always runs that kernel. Never affects result bits.
  /// csr_sum never gathers; spgemm_masked ignores it.
  SpgemmKernel kernel = SpgemmKernel::kAuto;
  /// Reusable scratch arena (DESIGN.md §7). When non-null, every symbolic
  /// prefix, block accumulator, staging buffer and mask lookup comes from
  /// (and stays in) the workspace, so repeated products allocate only their
  /// results. Selection gathers use only the shared prefix, never a slot.
  /// One kernel invocation at a time per Workspace; results are bitwise
  /// independent of whether (or which) workspace is supplied.
  Workspace* workspace = nullptr;
};

/// C = A * B. A is (m × k), B is (k × n); C is (m × n). Per-row column ids
/// of C are sorted and the result is bitwise independent of the kernel
/// choice, the block decomposition, and the thread count.
CsrMatrix spgemm(const CsrMatrix& a, const CsrMatrix& b,
                 const SpgemmOptions& opts = {});

/// C = parts[0] + parts[1] + ... (all the same shape, at least one): the
/// 1.5D SpGEMM's fold of partial products (Algorithm 2 line 14). Each
/// output entry is its first contribution plus the later ones, added in
/// list order — exactly what a left-to-right chain of pairwise sorted
/// merges computes, bit for bit. It runs the product's symbolic prefix
/// (a row's entries over all parts), flop-balanced blocks, per-block
/// kernel choice, workspace slots and stitch; opts.kernel forces a kernel
/// as for spgemm.
CsrMatrix csr_sum(std::span<const CsrMatrix> parts, const SpgemmOptions& opts = {});

/// Masked extraction A[rows, mask]: row i of the result is A's row rows[i]
/// (read in place; ids may repeat and come in any order) restricted to the
/// columns in `mask`, renumbered 0..mask.size()-1 in order. `mask` must be
/// sorted and duplicate-free. Values pass through unchanged (Q_R and Q_C
/// hold only ones), so the result is bit-identical to
/// extract_columns(extract_rows(a, rows), mask). Each call picks, from the
/// number of entries the listed rows store, between a column→position table
/// (the workspace keeps it all -1 between calls, so a call sets and resets
/// only the mask's positions, then probes once per entry) and per-row
/// sorted-list intersection against the mask; both yield the same bits. With
/// opts.parallel, the rows split across the pool only into blocks that read
/// at least 16384 entries, so small extractions never pay a pool dispatch.
CsrMatrix spgemm_masked(const CsrMatrix& a, std::span<const index_t> rows,
                        const std::vector<index_t>& mask,
                        const SpgemmOptions& opts = {});

/// Kernel the kAuto estimator picks for a row block performing `block_flops`
/// multiply-adds into `out_cols` output columns: dense iff
/// 64·block_flops >= out_cols, i.e. at least one flop per word of the
/// dense kernel's touched-column bitmap. The dense accumulator pays
/// O(out_cols/64) per block to clear its bitmap and per row to walk it;
/// the hash kernel pays a probe per flop and sorts every row. Exposed so tests and the
/// kernel-comparison bench can pin down the dispatch boundary.
SpgemmKernel spgemm_pick_kernel(nnz_t block_flops, index_t out_cols);

/// Number of scalar multiply-adds Gustavson performs for A*B:
/// sum over nonzeros (i,k) of A of nnz(B row k). This is exactly what the
/// symbolic phase computes per row; used by the simulator's compute
/// accounting and by tests.
nnz_t spgemm_flops(const CsrMatrix& a, const CsrMatrix& b);

/// The symbolic phase's work-balanced block decomposition, exposed for
/// other row-parallel kernels (ITS balances on the CSR rowptr, which is
/// exactly a per-row work prefix). Given prefix[r] = work of rows [0, r)
/// (size m+1), returns contiguous row bounds b_0=0 < b_1 < ... < b_k=m
/// with ~equal work per block; every block is non-empty and k never
/// exceeds max_blocks.
std::vector<index_t> work_balanced_bounds(const std::vector<nnz_t>& prefix,
                                          index_t m, index_t max_blocks);

}  // namespace dms
