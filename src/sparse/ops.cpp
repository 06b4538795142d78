#include "sparse/ops.hpp"

#include <algorithm>
#include <cmath>

namespace dms {

CsrMatrix transpose(const CsrMatrix& a) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  std::vector<nnz_t> rowptr(static_cast<std::size_t>(n) + 1, 0);
  for (const index_t c : a.colidx()) ++rowptr[static_cast<std::size_t>(c) + 1];
  for (index_t c = 0; c < n; ++c) {
    rowptr[static_cast<std::size_t>(c) + 1] += rowptr[static_cast<std::size_t>(c)];
  }
  std::vector<index_t> colidx(a.colidx().size());
  std::vector<value_t> vals(a.vals().size());
  std::vector<nnz_t> cursor(rowptr.begin(), rowptr.end() - 1);
  for (index_t r = 0; r < m; ++r) {
    const auto cols = a.row_cols(r);
    const auto v = a.row_vals(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      const nnz_t dst = cursor[static_cast<std::size_t>(cols[i])]++;
      colidx[static_cast<std::size_t>(dst)] = r;
      vals[static_cast<std::size_t>(dst)] = v[i];
    }
  }
  return CsrMatrix(n, m, std::move(rowptr), std::move(colidx), std::move(vals));
}

CsrMatrix vstack(const std::vector<CsrMatrix>& blocks) {
  check(!blocks.empty(), "vstack: no blocks");
  const index_t cols = blocks.front().cols();
  index_t rows = 0;
  nnz_t nnz = 0;
  for (const auto& b : blocks) {
    check(b.cols() == cols, "vstack: column count mismatch");
    rows += b.rows();
    nnz += b.nnz();
  }
  std::vector<nnz_t> rowptr;
  std::vector<index_t> colidx;
  std::vector<value_t> vals;
  rowptr.reserve(static_cast<std::size_t>(rows) + 1);
  colidx.reserve(static_cast<std::size_t>(nnz));
  vals.reserve(static_cast<std::size_t>(nnz));
  rowptr.push_back(0);
  nnz_t offset = 0;
  for (const auto& b : blocks) {
    for (index_t r = 0; r < b.rows(); ++r) {
      rowptr.push_back(offset + b.row_end(r));
    }
    colidx.insert(colidx.end(), b.colidx().begin(), b.colidx().end());
    vals.insert(vals.end(), b.vals().begin(), b.vals().end());
    offset += b.nnz();
  }
  return CsrMatrix(rows, cols, std::move(rowptr), std::move(colidx), std::move(vals));
}

CsrMatrix row_slice(const CsrMatrix& a, index_t r0, index_t r1) {
  check(0 <= r0 && r0 <= r1 && r1 <= a.rows(), "row_slice: bad range");
  const nnz_t base = a.row_begin(r0);
  std::vector<nnz_t> rowptr(static_cast<std::size_t>(r1 - r0) + 1);
  for (index_t r = r0; r <= r1; ++r) {
    rowptr[static_cast<std::size_t>(r - r0)] = a.rowptr()[static_cast<std::size_t>(r)] - base;
  }
  std::vector<index_t> colidx(a.colidx().begin() + static_cast<std::ptrdiff_t>(base),
                              a.colidx().begin() + static_cast<std::ptrdiff_t>(a.row_begin(r1)));
  std::vector<value_t> vals(a.vals().begin() + static_cast<std::ptrdiff_t>(base),
                            a.vals().begin() + static_cast<std::ptrdiff_t>(a.row_begin(r1)));
  return CsrMatrix(r1 - r0, a.cols(), std::move(rowptr), std::move(colidx), std::move(vals));
}

CsrMatrix extract_rows(const CsrMatrix& a, const std::vector<index_t>& rows) {
  const auto m = static_cast<index_t>(rows.size());
  std::vector<nnz_t> rowptr(static_cast<std::size_t>(m) + 1, 0);
  for (index_t i = 0; i < m; ++i) {
    const index_t r = rows[static_cast<std::size_t>(i)];
    check(r >= 0 && r < a.rows(), "extract_rows: row out of range");
    rowptr[static_cast<std::size_t>(i) + 1] = rowptr[static_cast<std::size_t>(i)] + a.row_nnz(r);
  }
  std::vector<index_t> colidx(static_cast<std::size_t>(rowptr.back()));
  std::vector<value_t> vals(static_cast<std::size_t>(rowptr.back()));
  for (index_t i = 0; i < m; ++i) {
    const index_t r = rows[static_cast<std::size_t>(i)];
    const auto cols = a.row_cols(r);
    const auto v = a.row_vals(r);
    std::copy(cols.begin(), cols.end(),
              colidx.begin() + static_cast<std::ptrdiff_t>(rowptr[static_cast<std::size_t>(i)]));
    std::copy(v.begin(), v.end(),
              vals.begin() + static_cast<std::ptrdiff_t>(rowptr[static_cast<std::size_t>(i)]));
  }
  return CsrMatrix(m, a.cols(), std::move(rowptr), std::move(colidx), std::move(vals));
}

CsrMatrix extract_columns(const CsrMatrix& a, const std::vector<index_t>& cols) {
  // Build old-col -> new-col map; cols must be sorted unique.
  for (std::size_t i = 0; i + 1 < cols.size(); ++i) {
    check(cols[i] < cols[i + 1], "extract_columns: cols not sorted/unique");
  }
  std::vector<index_t> remap(static_cast<std::size_t>(a.cols()), -1);
  for (std::size_t i = 0; i < cols.size(); ++i) {
    check(cols[i] >= 0 && cols[i] < a.cols(), "extract_columns: col out of range");
    remap[static_cast<std::size_t>(cols[i])] = static_cast<index_t>(i);
  }
  std::vector<nnz_t> rowptr(static_cast<std::size_t>(a.rows()) + 1, 0);
  std::vector<index_t> colidx;
  std::vector<value_t> vals;
  for (index_t r = 0; r < a.rows(); ++r) {
    const auto rc = a.row_cols(r);
    const auto rv = a.row_vals(r);
    for (std::size_t i = 0; i < rc.size(); ++i) {
      const index_t nc = remap[static_cast<std::size_t>(rc[i])];
      if (nc >= 0) {
        colidx.push_back(nc);
        vals.push_back(rv[i]);
      }
    }
    rowptr[static_cast<std::size_t>(r) + 1] = static_cast<nnz_t>(colidx.size());
  }
  return CsrMatrix(a.rows(), static_cast<index_t>(cols.size()), std::move(rowptr),
                   std::move(colidx), std::move(vals));
}

void normalize_rows(CsrMatrix& a) {
  auto& vals = a.mutable_vals();
  for (index_t r = 0; r < a.rows(); ++r) {
    value_t s = 0.0;
    for (nnz_t i = a.row_begin(r); i < a.row_end(r); ++i) s += vals[static_cast<std::size_t>(i)];
    if (s == 0.0) continue;
    const value_t inv = 1.0 / s;
    for (nnz_t i = a.row_begin(r); i < a.row_end(r); ++i) vals[static_cast<std::size_t>(i)] *= inv;
  }
}

std::vector<index_t> nonzero_columns(const CsrMatrix& a) {
  std::vector<char> seen(static_cast<std::size_t>(a.cols()), 0);
  for (const index_t c : a.colidx()) seen[static_cast<std::size_t>(c)] = 1;
  std::vector<index_t> cols;
  for (index_t c = 0; c < a.cols(); ++c) {
    if (seen[static_cast<std::size_t>(c)]) cols.push_back(c);
  }
  return cols;
}

DenseD to_dense(const CsrMatrix& a) {
  DenseD d(a.rows(), a.cols());
  for (index_t r = 0; r < a.rows(); ++r) {
    const auto cols = a.row_cols(r);
    const auto vals = a.row_vals(r);
    for (std::size_t i = 0; i < cols.size(); ++i) d(r, cols[i]) = vals[i];
  }
  return d;
}

double max_abs_diff(const CsrMatrix& a, const CsrMatrix& b) {
  check(a.rows() == b.rows() && a.cols() == b.cols(), "max_abs_diff: shape mismatch");
  const DenseD da = to_dense(a);
  const DenseD db = to_dense(b);
  return DenseD::max_abs_diff(da, db);
}

CsrMatrix csr_add(const CsrMatrix& a, const CsrMatrix& b) {
  check(a.rows() == b.rows() && a.cols() == b.cols(), "csr_add: shape mismatch");
  std::vector<nnz_t> rowptr(static_cast<std::size_t>(a.rows()) + 1, 0);
  std::vector<index_t> colidx;
  std::vector<value_t> vals;
  colidx.reserve(static_cast<std::size_t>(a.nnz() + b.nnz()));
  vals.reserve(static_cast<std::size_t>(a.nnz() + b.nnz()));
  for (index_t r = 0; r < a.rows(); ++r) {
    const auto ac = a.row_cols(r);
    const auto av = a.row_vals(r);
    const auto bc = b.row_cols(r);
    const auto bv = b.row_vals(r);
    std::size_t i = 0, j = 0;
    while (i < ac.size() || j < bc.size()) {
      if (j >= bc.size() || (i < ac.size() && ac[i] < bc[j])) {
        colidx.push_back(ac[i]);
        vals.push_back(av[i]);
        ++i;
      } else if (i >= ac.size() || bc[j] < ac[i]) {
        colidx.push_back(bc[j]);
        vals.push_back(bv[j]);
        ++j;
      } else {
        colidx.push_back(ac[i]);
        vals.push_back(av[i] + bv[j]);
        ++i;
        ++j;
      }
    }
    rowptr[static_cast<std::size_t>(r) + 1] = static_cast<nnz_t>(colidx.size());
  }
  return CsrMatrix(a.rows(), a.cols(), std::move(rowptr), std::move(colidx),
                   std::move(vals));
}

CsrMatrix column_window(const CsrMatrix& a, index_t c0, index_t c1) {
  check(0 <= c0 && c0 <= c1 && c1 <= a.cols(), "column_window: bad range");
  std::vector<nnz_t> rowptr(static_cast<std::size_t>(a.rows()) + 1, 0);
  std::vector<index_t> colidx;
  std::vector<value_t> vals;
  for (index_t r = 0; r < a.rows(); ++r) {
    const auto rc = a.row_cols(r);
    const auto rv = a.row_vals(r);
    const auto lo = std::lower_bound(rc.begin(), rc.end(), c0);
    const auto hi = std::lower_bound(rc.begin(), rc.end(), c1);
    for (auto it = lo; it != hi; ++it) {
      colidx.push_back(*it - c0);
      vals.push_back(rv[static_cast<std::size_t>(it - rc.begin())]);
    }
    rowptr[static_cast<std::size_t>(r) + 1] = static_cast<nnz_t>(colidx.size());
  }
  return CsrMatrix(a.rows(), c1 - c0, std::move(rowptr), std::move(colidx),
                   std::move(vals));
}

}  // namespace dms
