// Structural sparse operations: transpose, stacking, extraction, NORM.
#include <gtest/gtest.h>

#include "sparse/ops.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

using testutil::random_csr;

TEST(Transpose, MatchesDense) {
  const CsrMatrix a = random_csr(12, 9, 0.3, 21);
  const CsrMatrix at = transpose(a);
  at.validate();
  EXPECT_EQ(at.rows(), 9);
  EXPECT_EQ(at.cols(), 12);
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) {
      EXPECT_DOUBLE_EQ(a.at(i, j), at.at(j, i));
    }
  }
}

TEST(Transpose, Involution) {
  const CsrMatrix a = random_csr(15, 11, 0.2, 22);
  EXPECT_TRUE(transpose(transpose(a)) == a);
}

TEST(Vstack, ConcatenatesRows) {
  const CsrMatrix a = random_csr(3, 5, 0.5, 23);
  const CsrMatrix b = random_csr(4, 5, 0.5, 24);
  const CsrMatrix s = vstack({a, b});
  s.validate();
  EXPECT_EQ(s.rows(), 7);
  EXPECT_EQ(s.nnz(), a.nnz() + b.nnz());
  for (index_t j = 0; j < 5; ++j) {
    EXPECT_DOUBLE_EQ(s.at(1, j), a.at(1, j));
    EXPECT_DOUBLE_EQ(s.at(5, j), b.at(2, j));
  }
}

TEST(Vstack, RejectsColumnMismatch) {
  EXPECT_THROW(vstack({CsrMatrix(2, 3), CsrMatrix(2, 4)}), DmsError);
  EXPECT_THROW(vstack({}), DmsError);
}

TEST(RowSlice, ExtractsContiguousRows) {
  const CsrMatrix a = random_csr(10, 6, 0.4, 27);
  const CsrMatrix s = row_slice(a, 3, 7);
  s.validate();
  EXPECT_EQ(s.rows(), 4);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 6; ++j) {
      EXPECT_DOUBLE_EQ(s.at(i, j), a.at(i + 3, j));
    }
  }
}

TEST(RowSlice, EmptyAndFullRanges) {
  const CsrMatrix a = random_csr(5, 4, 0.5, 28);
  EXPECT_EQ(row_slice(a, 2, 2).rows(), 0);
  EXPECT_TRUE(row_slice(a, 0, 5) == a);
  EXPECT_THROW(row_slice(a, 3, 2), DmsError);
}

TEST(ExtractRows, GathersWithRepetition) {
  const CsrMatrix a = random_csr(6, 5, 0.5, 29);
  const CsrMatrix g = extract_rows(a, {4, 0, 4});
  g.validate();
  EXPECT_EQ(g.rows(), 3);
  for (index_t j = 0; j < 5; ++j) {
    EXPECT_DOUBLE_EQ(g.at(0, j), a.at(4, j));
    EXPECT_DOUBLE_EQ(g.at(1, j), a.at(0, j));
    EXPECT_DOUBLE_EQ(g.at(2, j), a.at(4, j));
  }
}

TEST(ExtractColumns, RenumbersKeptColumns) {
  const CsrMatrix a = random_csr(4, 8, 0.6, 30);
  const CsrMatrix e = extract_columns(a, {1, 4, 6});
  e.validate();
  EXPECT_EQ(e.cols(), 3);
  for (index_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(e.at(i, 0), a.at(i, 1));
    EXPECT_DOUBLE_EQ(e.at(i, 1), a.at(i, 4));
    EXPECT_DOUBLE_EQ(e.at(i, 2), a.at(i, 6));
  }
}

TEST(ExtractColumns, RejectsUnsorted) {
  const CsrMatrix a = random_csr(2, 4, 0.5, 31);
  EXPECT_THROW(extract_columns(a, {2, 1}), DmsError);
  EXPECT_THROW(extract_columns(a, {0, 0}), DmsError);
}

TEST(DropEmptyColumns, IsThePaperExtractStep) {
  // Figure 2a: Q^{L-1} for batch {1,5} with samples {0,2} and {3,4} has
  // empty columns {1,5}; extraction keeps {0,2,3,4}.
  const CsrMatrix q = CsrMatrix::from_triplets(2, 6, {0, 0, 1, 1}, {0, 2, 3, 4},
                                               {1.0, 1.0, 1.0, 1.0});
  const std::vector<index_t> kept = nonzero_columns(q);
  const CsrMatrix as = extract_columns(q, kept);
  as.validate();
  EXPECT_EQ(as.cols(), 4);
  EXPECT_EQ(kept, (std::vector<index_t>{0, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(as.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(as.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(as.at(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(as.at(1, 3), 1.0);
}

TEST(NormalizeRows, MakesRowsStochastic) {
  CsrMatrix a = random_csr(8, 8, 0.5, 32);
  normalize_rows(a);
  for (index_t r = 0; r < 8; ++r) {
    if (a.row_nnz(r) == 0) continue;
    value_t sum = 0.0;
    for (const value_t v : a.row_vals(r)) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(NormalizeRows, LeavesEmptyRowsAlone) {
  CsrMatrix a(3, 3);
  EXPECT_NO_THROW(normalize_rows(a));
  EXPECT_EQ(a.nnz(), 0);
}

TEST(NonzeroColumns, FindsOccupiedColumns) {
  const CsrMatrix a =
      CsrMatrix::from_triplets(3, 6, {0, 1, 2}, {4, 1, 4}, {1.0, 1.0, 1.0});
  EXPECT_EQ(nonzero_columns(a), (std::vector<index_t>{1, 4}));
}

TEST(ColumnWindow, SelectsAndShifts) {
  const CsrMatrix a = random_csr(5, 10, 0.5, 36);
  const CsrMatrix w = column_window(a, 3, 7);
  w.validate();
  EXPECT_EQ(w.cols(), 4);
  for (index_t i = 0; i < 5; ++i) {
    for (index_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(w.at(i, j), a.at(i, j + 3));
    }
  }
}

}  // namespace
}  // namespace dms
