#include "sparse/csr.hpp"

#include <algorithm>
#include <string>

#include "sparse/coo.hpp"

namespace dms {

CsrMatrix::CsrMatrix(index_t rows, index_t cols) : rows_(rows), cols_(cols) {
  check(rows >= 0 && cols >= 0, "CsrMatrix: negative dimensions");
  rowptr_.assign(static_cast<std::size_t>(rows) + 1, 0);
}

CsrMatrix::CsrMatrix(index_t rows, index_t cols, std::vector<nnz_t> rowptr,
                     std::vector<index_t> colidx, std::vector<value_t> vals)
    : rows_(rows),
      cols_(cols),
      rowptr_(std::move(rowptr)),
      colidx_(std::move(colidx)),
      vals_(std::move(vals)) {}

CsrMatrix CsrMatrix::from_coo(const CooMatrix& coo_in) {
  CooMatrix coo = coo_in;  // sort_and_combine mutates
  coo.sort_and_combine();
  CsrMatrix out(coo.rows, coo.cols);
  const nnz_t nnz = coo.nnz();
  out.colidx_.resize(static_cast<std::size_t>(nnz));
  out.vals_.resize(static_cast<std::size_t>(nnz));
  for (nnz_t i = 0; i < nnz; ++i) {
    check(coo.row_idx[static_cast<std::size_t>(i)] >= 0 &&
              coo.row_idx[static_cast<std::size_t>(i)] < coo.rows,
          "from_coo: row index out of range");
    check(coo.col_idx[static_cast<std::size_t>(i)] >= 0 &&
              coo.col_idx[static_cast<std::size_t>(i)] < coo.cols,
          "from_coo: col index out of range");
    ++out.rowptr_[static_cast<std::size_t>(coo.row_idx[static_cast<std::size_t>(i)]) + 1];
  }
  for (index_t r = 0; r < coo.rows; ++r) {
    out.rowptr_[static_cast<std::size_t>(r) + 1] += out.rowptr_[static_cast<std::size_t>(r)];
  }
  // COO is sorted, so a sequential fill preserves per-row column order.
  std::vector<nnz_t> cursor(out.rowptr_.begin(), out.rowptr_.end() - 1);
  for (nnz_t i = 0; i < nnz; ++i) {
    const auto r = static_cast<std::size_t>(coo.row_idx[static_cast<std::size_t>(i)]);
    const nnz_t dst = cursor[r]++;
    out.colidx_[static_cast<std::size_t>(dst)] = coo.col_idx[static_cast<std::size_t>(i)];
    out.vals_[static_cast<std::size_t>(dst)] = coo.vals[static_cast<std::size_t>(i)];
  }
  return out;
}

CsrMatrix CsrMatrix::from_triplets(index_t rows, index_t cols,
                                   const std::vector<index_t>& ri,
                                   const std::vector<index_t>& ci,
                                   const std::vector<value_t>& vals) {
  check(ri.size() == ci.size() && ci.size() == vals.size(),
        "from_triplets: array length mismatch");
  CooMatrix coo(rows, cols);
  coo.row_idx = ri;
  coo.col_idx = ci;
  coo.vals = vals;
  return from_coo(coo);
}

CsrMatrix CsrMatrix::one_nonzero_per_row(index_t cols,
                                         const std::vector<index_t>& cols_of_row) {
  const auto rows = static_cast<index_t>(cols_of_row.size());
  CsrMatrix out(rows, cols);
  out.colidx_.resize(cols_of_row.size());
  out.vals_.assign(cols_of_row.size(), 1.0);
  for (index_t r = 0; r < rows; ++r) {
    const index_t c = cols_of_row[static_cast<std::size_t>(r)];
    check(c >= 0 && c < cols, "one_nonzero_per_row: column out of range");
    out.rowptr_[static_cast<std::size_t>(r) + 1] = r + 1;
    out.colidx_[static_cast<std::size_t>(r)] = c;
  }
  return out;
}

value_t CsrMatrix::at(index_t r, index_t c) const {
  check(r >= 0 && r < rows_ && c >= 0 && c < cols_, "at: index out of range");
  const auto cols = row_cols(r);
  const auto it = std::lower_bound(cols.begin(), cols.end(), c);
  if (it == cols.end() || *it != c) return 0.0;
  return vals_[static_cast<std::size_t>(rowptr_[r] + (it - cols.begin()))];
}

void CsrMatrix::validate() const {
  check(rows_ >= 0 && cols_ >= 0, "validate: negative dims");
  check(rowptr_.size() == static_cast<std::size_t>(rows_) + 1,
        "validate: rowptr size != rows+1");
  check(rowptr_.front() == 0, "validate: rowptr[0] != 0");
  for (index_t r = 0; r < rows_; ++r) {
    if (rowptr_[static_cast<std::size_t>(r)] > rowptr_[static_cast<std::size_t>(r) + 1]) {
      throw DmsError("validate: rowptr not nondecreasing at row " + std::to_string(r));
    }
  }
  check(colidx_.size() == static_cast<std::size_t>(rowptr_.back()),
        "validate: colidx size != nnz");
  check(vals_.size() == colidx_.size(), "validate: vals size != nnz");
  for (index_t r = 0; r < rows_; ++r) {
    for (nnz_t i = rowptr_[static_cast<std::size_t>(r)];
         i < rowptr_[static_cast<std::size_t>(r) + 1]; ++i) {
      const index_t c = colidx_[static_cast<std::size_t>(i)];
      if (c < 0 || c >= cols_) {
        throw DmsError("validate: column out of range in row " + std::to_string(r));
      }
      if (i > rowptr_[static_cast<std::size_t>(r)] &&
          colidx_[static_cast<std::size_t>(i) - 1] >= c) {
        throw DmsError("validate: columns not strictly increasing in row " +
                       std::to_string(r));
      }
    }
  }
}

bool CsrMatrix::operator==(const CsrMatrix& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ && rowptr_ == other.rowptr_ &&
         colidx_ == other.colidx_ && vals_ == other.vals_;
}

}  // namespace dms
