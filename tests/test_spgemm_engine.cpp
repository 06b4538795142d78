// The unified SpGEMM engine: property tests asserting every kernel (dense,
// hash, auto-dispatched, selection gather) produces bit-identical results on
// random CSR inputs across shapes — including empty rows/columns, rows of a
// few entries over a wide output and -0.0 values — that csr_sum equals a
// left-to-right chain of pairwise merges bit for bit, and that
// spgemm_masked equals row-then-column extraction bit for bit under random
// duplicate-free masks, plus dispatch and mask-contract checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm_engine.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

using testutil::dense_matmul;
using testutil::random_csr;
using testutil::same_bits;

CsrMatrix run(const CsrMatrix& a, const CsrMatrix& b, SpgemmKernel kernel,
              bool parallel = true) {
  SpgemmOptions opts;
  opts.kernel = kernel;
  opts.parallel = parallel;
  return spgemm(a, b, opts);
}

/// Random sorted duplicate-free subset of [0, cols).
std::vector<index_t> random_mask(index_t cols, double keep, std::uint64_t seed) {
  Pcg32 rng(seed, 0x3a5c);
  std::vector<index_t> mask;
  for (index_t c = 0; c < cols; ++c) {
    if (rng.uniform() < keep) mask.push_back(c);
  }
  return mask;
}

struct EngineSweep {
  index_t m, k, n;
  double da, db;
};

class SpgemmEngineSweep : public ::testing::TestWithParam<EngineSweep> {};

TEST_P(SpgemmEngineSweep, AllKernelsBitIdentical) {
  const auto p = GetParam();
  const CsrMatrix a = random_csr(p.m, p.k, p.da, 311 + p.m);
  const CsrMatrix b = random_csr(p.k, p.n, p.db, 313 + p.n);

  const CsrMatrix dense = run(a, b, SpgemmKernel::kDense);
  dense.validate();
  const CsrMatrix hash = run(a, b, SpgemmKernel::kHash);
  hash.validate();
  const CsrMatrix autok = run(a, b, SpgemmKernel::kAuto);
  const CsrMatrix serial = run(a, b, SpgemmKernel::kAuto, /*parallel=*/false);

  // Bit-identity across kernels, dispatch, and block decompositions.
  EXPECT_TRUE(dense == hash);
  EXPECT_TRUE(dense == autok);
  EXPECT_TRUE(dense == serial);

  // And the numbers are actually right.
  const DenseD ref = dense_matmul(to_dense(a), to_dense(b));
  EXPECT_LT(DenseD::max_abs_diff(to_dense(dense), ref), 1e-12);
}

TEST_P(SpgemmEngineSweep, MaskedVariantMatchesProductThenSlice) {
  // spgemm_masked(b, rows, mask) reads the listed rows of b in place; it
  // must equal extract_columns(extract_rows(b, rows), mask) bit for bit.
  // The row lists cover no rows, repeated rows, and every row twice
  // (structurally empty rows included); with the sparse rows and the
  // repeated passes over all rows they land on both sides of the lookup
  // rule (2·entries >= cols, e.g. on the {100,100,100} and {4,64,512}
  // shapes). Each case runs in parallel on one reused Workspace and
  // serially on a fresh one; only reads of 16384+ entries per block split
  // across the pool (the {48,256,192} shape's every-row-twice list).
  const auto p = GetParam();
  const CsrMatrix b = random_csr(p.k, p.n, p.db, 313 + p.n);
  std::vector<index_t> every_row_twice;
  for (index_t r = 0; r < p.k; ++r) every_row_twice.push_back(r);
  for (index_t r = p.k; r-- > 0;) every_row_twice.push_back(r);
  const std::vector<std::vector<index_t>> row_lists = {
      {}, {p.k - 1, 0, p.k - 1}, every_row_twice};
  Workspace ws;
  for (const auto& rows : row_lists) {
    const CsrMatrix picked = extract_rows(b, rows);
    for (const double keep : {0.0, 0.25, 1.0}) {
      const std::vector<index_t> mask =
          random_mask(p.n, keep, 317 + p.m + static_cast<std::uint64_t>(keep * 8));
      const CsrMatrix want = extract_columns(picked, mask);
      SpgemmOptions par;
      par.workspace = &ws;
      SpgemmOptions ser;
      ser.parallel = false;
      for (const SpgemmOptions& opts : {par, ser}) {
        const CsrMatrix masked = spgemm_masked(b, rows, mask, opts);
        masked.validate();
        EXPECT_EQ(masked.rows(), static_cast<index_t>(rows.size()));
        EXPECT_EQ(masked.cols(), static_cast<index_t>(mask.size()));
        EXPECT_TRUE(masked == want)
            << rows.size() << " rows, mask of " << mask.size();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndDensities, SpgemmEngineSweep,
    ::testing::Values(EngineSweep{1, 1, 1, 1.0, 1.0},
                      EngineSweep{5, 7, 3, 0.5, 0.5},
                      // density 0 operands: every row/column empty
                      EngineSweep{12, 9, 14, 0.0, 0.4},
                      EngineSweep{12, 9, 14, 0.4, 0.0},
                      // sparse operands with many structurally empty rows/cols
                      EngineSweep{40, 30, 50, 0.03, 0.03},
                      EngineSweep{16, 16, 16, 0.1, 0.9},
                      EngineSweep{16, 16, 16, 0.9, 0.1},
                      EngineSweep{1, 40, 40, 0.3, 0.3},
                      EngineSweep{40, 1, 40, 1.0, 1.0},
                      EngineSweep{40, 40, 1, 0.3, 0.3},
                      // tall-thin vs short-wide (hash vs dense territory)
                      EngineSweep{4, 64, 512, 0.2, 0.05},
                      EngineSweep{128, 16, 8, 0.4, 0.6},
                      EngineSweep{100, 100, 100, 0.02, 0.02},
                      // folded from the retired hash-kernel suite
                      EngineSweep{16, 128, 16, 0.3, 0.02},
                      EngineSweep{33, 77, 55, 0.02, 0.5},
                      // large enough for spgemm_masked to use several blocks
                      EngineSweep{48, 256, 192, 0.05, 0.4}));

// --- folded from tests/test_spgemm_hash.cpp (the suite that tested the
// pre-engine hash kernel; it has exercised the engine API since PR 2) -----

TEST(SpgemmEngine, HashKernelSurvivesCollisionHeavyColumns) {
  // Many A rows hitting the same few B columns stresses probing/merging.
  CooMatrix acoo(32, 8);
  CooMatrix bcoo(8, 4);
  Pcg32 rng(7);
  for (index_t r = 0; r < 32; ++r) {
    for (index_t k = 0; k < 8; ++k) acoo.push(r, k, rng.uniform() + 0.1);
  }
  for (index_t k = 0; k < 8; ++k) {
    for (index_t c = 0; c < 4; ++c) bcoo.push(k, c, rng.uniform() + 0.1);
  }
  const CsrMatrix a = CsrMatrix::from_coo(acoo);
  const CsrMatrix b = CsrMatrix::from_coo(bcoo);
  EXPECT_TRUE(run(a, b, SpgemmKernel::kHash) == run(a, b, SpgemmKernel::kDense));
}

TEST(SpgemmEngine, EstimatorPrefersHashForSparseRowsOverWideOutput) {
  // Tiny flop volume into a huge column space → fewer flops than the dense
  // kernel's bitmap has words.
  EXPECT_EQ(spgemm_pick_kernel(16, 1 << 20), SpgemmKernel::kHash);
  // Dense row blocks over a modest column space → dense wins.
  EXPECT_EQ(spgemm_pick_kernel(1 << 20, 1024), SpgemmKernel::kDense);
  // A 26-row LADIES panel over 65,536 columns with ~4 K flops: four
  // flops per bitmap word, so dense.
  EXPECT_EQ(spgemm_pick_kernel(4096, 1 << 16), SpgemmKernel::kDense);
}

TEST(SpgemmEngine, PickIsDenseFromOneFlopPerBitmapWord) {
  // kAuto picks dense iff 64·flops >= out_cols (ties dense): at least one
  // flop per 64-column word of the dense kernel's bitmap.
  const struct {
    nnz_t flops;
    index_t cols;
    SpgemmKernel want;
  } cases[] = {{1024, 1 << 16, SpgemmKernel::kDense},
               {1023, 1 << 16, SpgemmKernel::kHash},
               {1, 64, SpgemmKernel::kDense},
               {1, 65, SpgemmKernel::kHash},
               {0, 1, SpgemmKernel::kHash},
               {24, 100, SpgemmKernel::kDense}};
  for (const auto& c : cases) {
    EXPECT_EQ(spgemm_pick_kernel(c.flops, c.cols), c.want)
        << c.flops << " flops, " << c.cols << " cols";
  }
}

TEST(SpgemmEngine, DenseRowsMatchHashBitForBit) {
  // Over 1<<16 columns the dense kernel walks a 1024-word bitmap for every
  // row, however few columns the row touched. B's rows: a few entries
  // (column 0 and the last column among them), a near-dense row, a row
  // whose entry at column 0 is -0.0, and two empty rows. A's rows pick
  // them so that output rows hold a few entries or nearly all columns,
  // and two are empty (an empty A row and an A row over an empty B row).
  // Values include negatives, and column 0 of row 1 and the last column
  // of row 6 have the single contributions 1·(-0.0) and 3·(-0.0), which
  // must stay -0.0: a kernel that started from +0.0 and added would store
  // +0.0.
  const index_t cols = index_t{1} << 16;
  CooMatrix bcoo(5, cols);
  bcoo.push(0, 0, -1.5);
  bcoo.push(0, 7, 2.25);
  bcoo.push(0, cols - 1, -0.0);
  for (index_t c = 0; c < cols; ++c) {
    if (c % 7 != 3) bcoo.push(1, c, static_cast<value_t>(c % 11) * 0.25 - 1.3);
  }
  bcoo.push(2, 0, -0.0);
  bcoo.push(2, 100, 0.1);
  bcoo.push(2, cols - 1, 3.5);
  const CsrMatrix b = CsrMatrix::from_coo(bcoo);  // keeps the -0.0 entries
  ASSERT_TRUE(std::signbit(b.at(2, 0)));
  const CsrMatrix a = CsrMatrix::from_triplets(
      8, 5,
      {0, 0, 1, 2, 4, 5, 5, 5, 5, 6, 6, 7, 7},
      {0, 2, 2, 1, 3, 0, 1, 2, 4, 0, 4, 1, 2},
      {1.0, 1.0, 1.0, 0.5, 2.0, -2.0, 0.75, -1.0, 1.25, 3.0, -0.5, -1.0, 2.0});
  const CsrMatrix want = run(a, b, SpgemmKernel::kDense, /*parallel=*/false);
  want.validate();
  EXPECT_TRUE(std::signbit(want.at(1, 0)));
  EXPECT_TRUE(std::signbit(want.at(6, cols - 1)));
  EXPECT_EQ(want.row_nnz(1), 3);
  EXPECT_EQ(want.row_nnz(3), 0);
  EXPECT_EQ(want.row_nnz(4), 0);
  EXPECT_EQ(want.row_nnz(6), 3);
  for (const SpgemmKernel kernel :
       {SpgemmKernel::kDense, SpgemmKernel::kHash, SpgemmKernel::kAuto}) {
    for (const bool parallel : {true, false}) {
      EXPECT_TRUE(same_bits(run(a, b, kernel, parallel), want))
          << "kernel " << static_cast<int>(kernel) << " parallel " << parallel;
    }
  }
  const DenseD ref = dense_matmul(to_dense(a), to_dense(b));
  EXPECT_LT(DenseD::max_abs_diff(to_dense(want), ref), 1e-12);
}

/// A sorted merge of two same-shape matrices, a + b where both store an
/// entry: the fold's reference, chained left to right.
CsrMatrix merge_add(const CsrMatrix& a, const CsrMatrix& b) {
  std::vector<index_t> ri, ci;
  std::vector<value_t> vs;
  for (index_t r = 0; r < a.rows(); ++r) {
    const auto ac = a.row_cols(r), bc = b.row_cols(r);
    const auto av = a.row_vals(r), bv = b.row_vals(r);
    std::size_t i = 0, j = 0;
    while (i < ac.size() || j < bc.size()) {
      ri.push_back(r);
      if (j == bc.size() || (i < ac.size() && ac[i] < bc[j])) {
        ci.push_back(ac[i]);
        vs.push_back(av[i++]);
      } else if (i == ac.size() || bc[j] < ac[i]) {
        ci.push_back(bc[j]);
        vs.push_back(bv[j++]);
      } else {
        ci.push_back(ac[i]);
        vs.push_back(av[i++] + bv[j++]);
      }
    }
  }
  std::vector<nnz_t> rowptr(static_cast<std::size_t>(a.rows()) + 1, 0);
  for (const index_t r : ri) ++rowptr[static_cast<std::size_t>(r) + 1];
  for (index_t r = 0; r < a.rows(); ++r) {
    rowptr[static_cast<std::size_t>(r) + 1] += rowptr[static_cast<std::size_t>(r)];
  }
  return CsrMatrix(a.rows(), a.cols(), std::move(rowptr), std::move(ci), std::move(vs));
}

TEST(SpgemmEngine, SumEqualsLeftToRightPairwiseMerge) {
  // random_csr values are not integers, so the association order of a
  // three- or four-way sum changes bits: csr_sum must add in list order,
  // exactly as ((p0 + p1) + p2) + p3. Narrow parts overlap heavily (dense
  // kernel under kAuto), wide ones barely and a few-row wide sum has
  // fewer entries than bitmap words (hash under kAuto).
  const struct {
    index_t rows, cols;
    double density;
  } shapes[] = {{24, 60, 0.5}, {24, index_t{1} << 16, 0.002}, {3, index_t{1} << 16, 0.0005}};
  for (const auto& shape : shapes) {
    for (const std::size_t nparts : {1u, 2u, 4u}) {
      std::vector<CsrMatrix> parts;
      for (std::size_t k = 0; k < nparts; ++k) {
        parts.push_back(random_csr(shape.rows, shape.cols, shape.density,
                                   501 + k + static_cast<std::uint64_t>(shape.cols)));
      }
      CsrMatrix want = parts[0];
      for (std::size_t k = 1; k < nparts; ++k) want = merge_add(want, parts[k]);
      for (const SpgemmKernel kernel :
           {SpgemmKernel::kDense, SpgemmKernel::kHash, SpgemmKernel::kAuto}) {
        for (const bool parallel : {true, false}) {
          SpgemmOptions opts;
          opts.kernel = kernel;
          opts.parallel = parallel;
          const CsrMatrix sum = csr_sum(parts, opts);
          sum.validate();
          EXPECT_TRUE(same_bits(sum, want))
              << shape.cols << " cols, " << nparts << " parts, kernel "
              << static_cast<int>(kernel) << " parallel " << parallel;
        }
      }
      if (nparts == 4 && shape.cols == 60) {
        // The test has teeth: summing right to left changes some bits.
        const CsrMatrix rtl =
            merge_add(parts[0], merge_add(parts[1], merge_add(parts[2], parts[3])));
        EXPECT_FALSE(same_bits(rtl, want));
      }
    }
  }
  EXPECT_THROW(csr_sum(std::vector<CsrMatrix>{}), DmsError);
  EXPECT_THROW(csr_sum(std::vector<CsrMatrix>{CsrMatrix(2, 2), CsrMatrix(2, 3)}), DmsError);
  EXPECT_THROW(csr_sum(std::vector<CsrMatrix>{CsrMatrix(2, 2), CsrMatrix(3, 2)}), DmsError);
}

std::vector<index_t> all_rows(const CsrMatrix& a) {
  std::vector<index_t> rows(static_cast<std::size_t>(a.rows()));
  for (index_t r = 0; r < a.rows(); ++r) rows[static_cast<std::size_t>(r)] = r;
  return rows;
}

TEST(SpgemmEngine, MaskedExtractionMatchesExtractColumns) {
  const CsrMatrix a = random_csr(30, 80, 0.15, 401);
  for (const double keep : {0.1, 0.5, 1.0}) {
    const std::vector<index_t> mask =
        random_mask(80, keep, 403 + static_cast<std::uint64_t>(keep * 16));
    if (mask.empty()) continue;
    EXPECT_TRUE(spgemm_masked(a, all_rows(a), mask) == extract_columns(a, mask));
  }
}

TEST(SpgemmEngine, MaskedExtractionEmptyMask) {
  const CsrMatrix a = random_csr(6, 10, 0.5, 405);
  const std::vector<index_t> empty;
  const CsrMatrix e = spgemm_masked(a, all_rows(a), empty);
  EXPECT_EQ(e.rows(), 6);
  EXPECT_EQ(e.cols(), 0);
  EXPECT_EQ(e.nnz(), 0);
}

TEST(SpgemmEngine, MaskContractViolationsThrow) {
  const CsrMatrix a = random_csr(4, 6, 0.5, 407);
  const std::vector<index_t> rows{0, 3, 0};
  EXPECT_THROW(spgemm_masked(a, rows, {3, 1}), DmsError);      // unsorted
  EXPECT_THROW(spgemm_masked(a, rows, {2, 2}), DmsError);      // duplicated
  EXPECT_THROW(spgemm_masked(a, rows, {5, 6}), DmsError);      // column range
  const std::vector<index_t> past_end{1, 4};
  const std::vector<index_t> negative{-1};
  EXPECT_THROW(spgemm_masked(a, past_end, {1, 2}), DmsError);  // row range
  EXPECT_THROW(spgemm_masked(a, negative, {1, 2}), DmsError);
  EXPECT_NO_THROW(spgemm_masked(a, rows, {1, 5}));
}

TEST(SpgemmEngine, DimensionMismatchThrows) {
  EXPECT_THROW(spgemm(CsrMatrix(2, 3), CsrMatrix(4, 2)), DmsError);
}

TEST(SpgemmEngine, FlopBalancedBlocksHandleFewRows) {
  // m far below the thread count: the old ceil_div decomposition produced
  // trailing empty blocks; the flop-balanced bounds never do, and results
  // stay bit-identical between serial and parallel runs.
  const CsrMatrix a = random_csr(2, 300, 0.3, 411);
  const CsrMatrix b = random_csr(300, 200, 0.05, 412);
  EXPECT_TRUE(run(a, b, SpgemmKernel::kAuto, true) ==
              run(a, b, SpgemmKernel::kAuto, false));
}

TEST(SpgemmEngine, SkewedRowsStayBitIdenticalAcrossDecompositions) {
  // One massive row among many empty ones stresses the flop-balanced
  // boundary placement (most blocks end up owning only empty rows).
  CooMatrix acoo(64, 128);
  Pcg32 rng(9);
  for (index_t k = 0; k < 128; ++k) acoo.push(17, k, rng.uniform() + 0.1);
  acoo.push(63, 5, 1.0);
  const CsrMatrix a = CsrMatrix::from_coo(acoo);
  const CsrMatrix b = random_csr(128, 256, 0.1, 413);
  const CsrMatrix par = run(a, b, SpgemmKernel::kAuto, true);
  par.validate();
  EXPECT_TRUE(par == run(a, b, SpgemmKernel::kAuto, false));
}

TEST(SpgemmEngine, SelectionProductsGatherBitIdentical) {
  // A selection matrix (at most one entry per row, the shape of GraphSAGE's
  // Qˡ and of every extraction Q_R) takes kAuto's row gather. It must match
  // the forced accumulating kernels bit for bit, and never borrow a
  // workspace slot. The rows cover empty rows, repeated target rows and the
  // values 1, 0.5, 0 and -2.
  const value_t values[] = {1.0, 0.5, 0.0, -2.0};
  const index_t k = 30;
  const index_t m = 48;
  std::vector<index_t> ri, ci;
  std::vector<value_t> vs;
  Pcg32 rng(441);
  for (index_t r = 0; r < m; ++r) {
    if (r % 5 == 3) continue;  // empty row
    ri.push_back(r);
    ci.push_back(r % 7 == 0 ? 2 : static_cast<index_t>(rng.bounded(k)));
    vs.push_back(values[r % 4]);
  }
  const CsrMatrix selections[] = {CsrMatrix::from_triplets(m, k, ri, ci, vs),
                                  CsrMatrix(m, k)};
  // Wide sparse B (hash territory) and narrow dense B (dense territory),
  // both with empty rows.
  const CsrMatrix bs[] = {random_csr(k, 500, 0.05, 443),
                          random_csr(k, 20, 0.3, 445)};
  for (const CsrMatrix& a : selections) {
    for (const CsrMatrix& b : bs) {
      for (const bool parallel : {true, false}) {
        SpgemmOptions opts;
        opts.parallel = parallel;
        Workspace ws;
        opts.workspace = &ws;
        const CsrMatrix gathered = spgemm(a, b, opts);
        EXPECT_EQ(ws.num_slots(), 0u);
        gathered.validate();
        opts.workspace = nullptr;
        opts.kernel = SpgemmKernel::kDense;
        EXPECT_TRUE(gathered == spgemm(a, b, opts));
        opts.kernel = SpgemmKernel::kHash;
        EXPECT_TRUE(gathered == spgemm(a, b, opts));
      }
    }
  }
}

TEST(SpgemmEngine, SharedWorkspaceReuseAcrossKernelsAndShapes) {
  // One arena serving interleaved dense/hash/auto products, sums and masked
  // extractions of different shapes must never change any result: every
  // accumulator re-establishes its own state from whatever a previous call
  // left behind (the stale-bitmap / stale-hash-fill regression this pins
  // down). Wide (1<<16-column) and narrow products and sums alternate, so
  // the dense kernel's bitmap and value array change size between calls.
  const CsrMatrix a1 = random_csr(40, 90, 0.2, 421);
  const CsrMatrix b1 = random_csr(90, 120, 0.1, 422);
  const CsrMatrix a2 = random_csr(7, 300, 0.3, 423);
  const CsrMatrix b2 = random_csr(300, 50, 0.05, 424);
  const CsrMatrix a3 = random_csr(9, 40, 0.3, 425);
  const CsrMatrix b3 = random_csr(40, index_t{1} << 16, 0.002, 426);
  // Selects rows of b1 (kAuto gathers it between the staged products).
  const CsrMatrix sel = CsrMatrix::one_nonzero_per_row(90, {5, 0, 89, 5, 41});
  const std::vector<CsrMatrix> wide_parts = {random_csr(6, index_t{1} << 16, 0.002, 427),
                                             random_csr(6, index_t{1} << 16, 0.002, 428),
                                             random_csr(6, index_t{1} << 16, 0.002, 429)};
  const std::vector<CsrMatrix> narrow_parts = {random_csr(40, 120, 0.3, 430),
                                               random_csr(40, 120, 0.3, 431)};
  std::vector<index_t> mask;
  for (index_t c = 3; c < 120; c += 7) mask.push_back(c);

  Workspace ws;
  for (int round = 0; round < 3; ++round) {
    for (const SpgemmKernel kernel :
         {SpgemmKernel::kDense, SpgemmKernel::kHash, SpgemmKernel::kAuto}) {
      SpgemmOptions fresh;
      fresh.kernel = kernel;
      SpgemmOptions reused = fresh;
      reused.workspace = &ws;
      EXPECT_TRUE(same_bits(spgemm(a1, b1, reused), spgemm(a1, b1, fresh)));
      EXPECT_TRUE(same_bits(csr_sum(wide_parts, reused), csr_sum(wide_parts, fresh)));
      EXPECT_TRUE(same_bits(spgemm(sel, b1, reused), spgemm(sel, b1, fresh)));
      EXPECT_TRUE(same_bits(spgemm(a3, b3, reused), spgemm(a3, b3, fresh)));
      EXPECT_TRUE(same_bits(csr_sum(narrow_parts, reused), csr_sum(narrow_parts, fresh)));
      EXPECT_TRUE(same_bits(spgemm(a2, b2, reused), spgemm(a2, b2, fresh)));
    }
    SpgemmOptions fresh;
    SpgemmOptions reused;
    reused.workspace = &ws;
    // b1's rows 5, 0, 89, 5, 41 under the mask: few entries (intersection).
    const std::vector<index_t> picked{5, 0, 89, 5, 41};
    EXPECT_TRUE(spgemm_masked(b1, picked, mask, reused) ==
                spgemm_masked(b1, picked, mask, fresh));
    std::vector<index_t> col_mask;  // indexes a1's own 90 columns
    for (index_t c = 2; c < 90; c += 5) col_mask.push_back(c);
    EXPECT_TRUE(spgemm_masked(a1, all_rows(a1), col_mask, reused) ==
                spgemm_masked(a1, all_rows(a1), col_mask, fresh));
  }
  EXPECT_GT(ws.bytes_held(), 0u);
}

TEST(SpgemmEngine, MaskedLookupTableStaysClearAcrossCalls) {
  // spgemm_masked's column→position table lives in the workspace all -1
  // between calls: each call sets only its mask's positions and resets
  // them, also when it throws. Calls alternate between the table path
  // (every row) and the sorted-intersection path (one row), and between a
  // wide and a narrow matrix, so a stale position would show up in a
  // result or in the table.
  const CsrMatrix wide = random_csr(60, 400, 0.05, 441);
  const CsrMatrix narrow = random_csr(50, 120, 0.2, 442);
  const std::vector<index_t> wide_mask = random_mask(400, 0.3, 443);
  const std::vector<index_t> narrow_mask = random_mask(120, 0.5, 444);
  struct Call {
    const CsrMatrix* a;
    std::vector<index_t> rows;
    const std::vector<index_t>* mask;
  };
  const std::vector<Call> calls = {
      {&wide, all_rows(wide), &wide_mask},       {&narrow, {7}, &narrow_mask},
      {&narrow, all_rows(narrow), &narrow_mask}, {&wide, {3}, &wide_mask},
      {&wide, {3, 60}, &wide_mask},  // row 60 is out of range: throws
      {&narrow, all_rows(narrow), &narrow_mask}, {&wide, all_rows(wide), &wide_mask}};
  Workspace ws;
  SpgemmOptions reused;
  reused.workspace = &ws;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const Call& c = calls[i];
    if (c.rows.back() >= c.a->rows()) {
      EXPECT_THROW(spgemm_masked(*c.a, c.rows, *c.mask, reused), DmsError);
    } else {
      EXPECT_TRUE(spgemm_masked(*c.a, c.rows, *c.mask, reused) ==
                  spgemm_masked(*c.a, c.rows, *c.mask))
          << "call " << i;
    }
    const std::vector<index_t>& table = ws.shared_lookup();
    EXPECT_TRUE(std::all_of(table.begin(), table.end(),
                            [](index_t pos) { return pos == -1; }))
        << "call " << i;
  }
  // The table path ran: the table spans the wide matrix's columns.
  EXPECT_GE(ws.shared_lookup().size(), 400u);
}

TEST(SpgemmEngine, WorkspaceSerialAndParallelAgree) {
  const CsrMatrix a = random_csr(100, 150, 0.15, 431);
  const CsrMatrix b = random_csr(150, 80, 0.1, 432);
  Workspace ws;
  SpgemmOptions par;
  par.workspace = &ws;
  SpgemmOptions ser = par;
  ser.parallel = false;
  EXPECT_TRUE(spgemm(a, b, par) == spgemm(a, b, ser));
}

}  // namespace
}  // namespace dms
