// Structural sparse-matrix operations used by the sampling framework:
// stacking (bulk sampling, Eq. 1), row/column extraction (§4.1.3, §4.2.3),
// transpose, normalization (NORM).
#pragma once

#include <vector>

#include "sparse/csr.hpp"
#include "sparse/dense.hpp"

namespace dms {

/// Bᵀ. O(nnz) counting transpose; output rows sorted.
CsrMatrix transpose(const CsrMatrix& a);

/// Vertical stack [A1; A2; ...]: all blocks must share the column count.
/// This is the bulk-sampling stacking of Equation 1.
CsrMatrix vstack(const std::vector<CsrMatrix>& blocks);

/// Rows [r0, r1) of A as a new (r1-r0) × cols matrix.
CsrMatrix row_slice(const CsrMatrix& a, index_t r0, index_t r1);

/// Gathers the given rows (with repetition allowed) into a new matrix whose
/// row i equals A[rows[i], :]. Equivalent to the row-extraction SpGEMM
/// Q_R · A but implemented directly.
CsrMatrix extract_rows(const CsrMatrix& a, const std::vector<index_t>& rows);

/// Keeps only the listed columns (which must be sorted and unique),
/// renumbering them 0..k-1 in order. Equivalent to the column-extraction
/// SpGEMM A · Q_C.
CsrMatrix extract_columns(const CsrMatrix& a, const std::vector<index_t>& cols);

/// Divides each row by its sum (rows with zero sum are left untouched):
/// the NORM step of Algorithm 1.
void normalize_rows(CsrMatrix& a);

/// Columns that contain at least one nonzero, ascending. This is
/// NnzCols(Qˡ_ik) of Algorithm 2 line 4 (the sparsity-aware fetch list).
std::vector<index_t> nonzero_columns(const CsrMatrix& a);

/// Dense copy (small matrices / tests only).
DenseD to_dense(const CsrMatrix& a);

/// Max |A - B| over all entries (shape must match). Test helper.
double max_abs_diff(const CsrMatrix& a, const CsrMatrix& b);

/// Restricts A to columns [c0, c1), shifting surviving column ids down by
/// c0. Used to select the Qˡ_ik panel of the 1.5D algorithm.
CsrMatrix column_window(const CsrMatrix& a, index_t c0, index_t c1);

}  // namespace dms
