// Compressed Sparse Row matrix — the core storage format of the library.
//
// The paper's framework (§4) expresses every sampling step as operations on
// CSR matrices, mirroring the cuSPARSE/nsparse constraint that SpGEMM is
// CSR-only (§8.2.2). Values are doubles (probabilities / edge indicators).
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"

namespace dms {

struct CooMatrix;  // forward declaration (coo.hpp)

/// CSR sparse matrix with 64-bit indices.
///
/// Invariants (checked by validate()):
///  - rowptr.size() == rows + 1, rowptr.front() == 0, rowptr is nondecreasing
///  - colidx/vals have rowptr.back() entries; column ids are in [0, cols)
///  - column ids within each row are strictly increasing (sorted, no dups)
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Empty matrix of the given shape (no nonzeros).
  CsrMatrix(index_t rows, index_t cols);

  /// Takes ownership of pre-built CSR arrays. Call validate() afterwards if
  /// the arrays come from untrusted construction code.
  CsrMatrix(index_t rows, index_t cols, std::vector<nnz_t> rowptr,
            std::vector<index_t> colidx, std::vector<value_t> vals);

  /// Builds a CSR matrix from (possibly unsorted, possibly duplicated) COO
  /// triplets. Duplicates are summed.
  static CsrMatrix from_coo(const CooMatrix& coo);

  /// Builds from explicit triplet arrays (convenience for tests).
  static CsrMatrix from_triplets(index_t rows, index_t cols,
                                 const std::vector<index_t>& ri,
                                 const std::vector<index_t>& ci,
                                 const std::vector<value_t>& vals);

  /// Identity-like matrix with one given nonzero per row:
  /// row i has value 1 at column cols_of_row[i]. This is exactly the
  /// GraphSAGE Q^L construction of §4.1.1.
  static CsrMatrix one_nonzero_per_row(index_t cols,
                                       const std::vector<index_t>& cols_of_row);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  nnz_t nnz() const { return rowptr_.empty() ? 0 : rowptr_.back(); }

  const std::vector<nnz_t>& rowptr() const { return rowptr_; }
  const std::vector<index_t>& colidx() const { return colidx_; }
  const std::vector<value_t>& vals() const { return vals_; }
  std::vector<value_t>& mutable_vals() { return vals_; }

  nnz_t row_begin(index_t r) const { return rowptr_[r]; }
  nnz_t row_end(index_t r) const { return rowptr_[r + 1]; }
  nnz_t row_nnz(index_t r) const { return rowptr_[r + 1] - rowptr_[r]; }

  std::span<const index_t> row_cols(index_t r) const {
    return {colidx_.data() + rowptr_[r], static_cast<std::size_t>(row_nnz(r))};
  }
  std::span<const value_t> row_vals(index_t r) const {
    return {vals_.data() + rowptr_[r], static_cast<std::size_t>(row_nnz(r))};
  }

  /// Value at (r, c), or 0 if absent. O(log row_nnz).
  value_t at(index_t r, index_t c) const;

  /// Verifies all invariants; throws DmsError with a description on failure.
  void validate() const;

  /// Approximate heap footprint in bytes (used by memory-cap logic that
  /// mirrors the paper's per-GPU memory constraints on c and k).
  std::size_t bytes() const {
    return rowptr_.size() * sizeof(nnz_t) + colidx_.size() * sizeof(index_t) +
           vals_.size() * sizeof(value_t);
  }

  bool operator==(const CsrMatrix& other) const;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<nnz_t> rowptr_{0};
  std::vector<index_t> colidx_;
  std::vector<value_t> vals_;
};

}  // namespace dms
