// Inverse Transform Sampling (ITS) from the rows of a probability matrix —
// the SAMPLE step of Algorithm 1 (§4.1.2).
//
// For each row of P: build a prefix sum of the row's values, draw s uniform
// randoms, binary-search each into the prefix sum, and redraw duplicates so
// the s selected nonzero columns are distinct (sampling without
// replacement). Rows with ≤ s nonzeros contribute all their nonzeros.
//
// Execution: rows are embarrassingly parallel — every row's randomness comes
// only from its own seed — so its_sample_rows runs a two-pass count-then-fill
// scheme over nnz-balanced contiguous row blocks (DESIGN.md §7): pass 1
// samples each block's rows into per-block workspace staging (recording
// per-row counts), a serial prefix sum lays out the CSR rowptr, and pass 2
// copies each block's staged columns to its final offset. The result is
// bit-identical to the serial row loop at every thread count. Every row
// takes the one path — its prefix sum, then its_sample_one's draw — for
// every s, the s = 1 rounds of an unfused walk plan included.
//
// AdjacencyDraw runs the same sampling straight off the rows of a bound
// adjacency, for the plans whose probability matrix is a row-normalized
// selection product (GraphSAGE's P = Qˡ·A): it never builds P.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/workspace.hpp"
#include "sparse/csr.hpp"

namespace dms {

/// Per-row seed callback: must return the same seed for the same logical row
/// regardless of how rows are distributed across ranks. This is what makes a
/// p-rank run reproduce a 1-rank run sample-for-sample.
using RowSeedFn = std::function<std::uint64_t(index_t row)>;

/// Samples up to s distinct nonzero columns from each row of P proportional
/// to the row's values. Returns a 0/1 matrix Q of the same shape with
/// min(s, row_nnz) nonzeros per row (sorted column order). `ws` (optional)
/// provides reusable scratch so steady-state calls allocate only the result.
CsrMatrix its_sample_rows(const CsrMatrix& p, index_t s, const RowSeedFn& row_seed,
                          Workspace* ws = nullptr);

/// Convenience overload: seeds derived as derive_seed(seed, row).
CsrMatrix its_sample_rows(const CsrMatrix& p, index_t s, std::uint64_t seed,
                          Workspace* ws = nullptr);

/// Samples s distinct indices proportional to the weights whose prefix sum
/// is `prefix` (size m + 1, prefix[0] = 0, nondecreasing), writing them
/// ascending to `out`; rows with m ≤ s take every positive-mass index. The
/// one without-replacement draw of the ITS step: its_sample_rows and
/// AdjacencyDraw run it too. It keeps the picks in `out` as a sorted list,
/// so it needs no scratch and costs O(s log m + s²), not O(m), unless the
/// redraw cap is exhausted; it is sized for the fanouts sampling uses
/// (tens), where the s² insert shifts are a few cache lines.
void its_sample_one(const std::vector<value_t>& prefix, index_t s,
                    std::uint64_t seed, std::vector<index_t>* out);

/// One draw (s = 1) from a row of weights, with the float ops of the matrix
/// path that normalizes the row and then samples it: normalize_rows' sum and
/// scale (a row summing to zero stays unscaled), then its_sample_rows'
/// max(v, 0) accumulation, one uniform draw and the first running sum > u.
/// Returns the picked position, or -1 when the row has no positive mass. A
/// one-entry row is taken without consuming a draw.
index_t its_pick_weighted(std::span<const value_t> w, std::uint64_t seed);

/// ITS straight off the rows of a bound adjacency A (DESIGN.md §11, §12).
/// Row r of sample_rows(vertices, s, fn) is bit-identical to row r of
/// its_sample_rows(P, s, fn) for P = Qˡ·A row-normalized, where Qˡ holds a
/// unit entry at (r, vertices[r]): the matrix path's kBuildQ → kSpgemm →
/// kNormalize → kItsSample. P is never built; each row draws from A's row
/// in place.
///
/// A unit-weight row of degree d normalizes to the constant 1/d, so its ITS
/// prefix depends only on d. For every degree present in A, the table holds
/// the exact fl-accumulated prefixes (1/d, 1/d + 1/d, ...) that the matrix
/// path's prefix build produces. A row then runs its_sample_one's draw over
/// them, so s picks from a degree-d row cost that draw's O(s log d + s²)
/// without the matrix path's O(d) row copy and prefix build. Distinct
/// degrees sum to at most nnz(A), so the table holds at
/// most one value per stored edge plus one offset per degree. It is built
/// eagerly at construction, only when every stored value is exactly 1.0.
/// Weighted rows (PinSAGE's importance graph) build their prefix from the
/// row with the matrix path's normalize and prefix float ops instead.
///
/// Immutable after construction: one object may serve concurrent callers.
class AdjacencyDraw {
 public:
  /// Borrows `adj`, which must outlive the object.
  explicit AdjacencyDraw(const CsrMatrix& adj);

  const CsrMatrix& adjacency() const { return adj_; }

  /// One draw (s = 1) from row v: the picked position within the row, or -1
  /// when the row has no positive mass (a sink).
  index_t pick(index_t v, std::uint64_t seed) const;

  /// Samples up to s distinct columns from the row of every vertices[r],
  /// seeded by row_seed(r). Returns a (vertices.size() × A.cols()) 0/1
  /// matrix with ascending columns per row. Rows run in parallel with
  /// its_sample_rows' count-then-fill scheme, so the result does not depend
  /// on the thread count. `ws` works as in its_sample_rows.
  CsrMatrix sample_rows(const std::vector<index_t>& vertices, index_t s,
                        const RowSeedFn& row_seed, Workspace* ws = nullptr) const;

 private:
  /// prefix[1..d] of the normalized unit-weight row of degree d.
  std::span<const value_t> unit_prefix(index_t d) const;

  const CsrMatrix& adj_;
  bool unit_weights_;
  /// Degree d's prefixes are prefix_[offset_[d], offset_[d] + d).
  std::vector<nnz_t> offset_;
  std::vector<value_t> prefix_;
};

}  // namespace dms
