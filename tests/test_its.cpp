// Inverse transform sampling: exactness, distinctness, determinism, and the
// sampling distribution itself.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/its.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

std::vector<value_t> prefix_of(const std::vector<value_t>& weights) {
  std::vector<value_t> p(1, 0.0);
  for (const value_t w : weights) p.push_back(p.back() + w);
  return p;
}

TEST(ItsSampleOne, TakesAllWhenFewerThanS) {
  std::vector<index_t> out;
  its_sample_one(prefix_of({1.0, 2.0, 3.0}), 5, 1, &out);
  EXPECT_EQ(out, (std::vector<index_t>{0, 1, 2}));
}

TEST(ItsSampleOne, SkipsZeroWeightWhenTakingAll) {
  std::vector<index_t> out;
  its_sample_one(prefix_of({1.0, 0.0, 3.0}), 5, 1, &out);
  EXPECT_EQ(out, (std::vector<index_t>{0, 2}));
}

TEST(ItsSampleOne, EmptyDistributionYieldsNothing) {
  std::vector<index_t> out{7};
  its_sample_one({0.0}, 3, 1, &out);
  EXPECT_TRUE(out.empty());
  its_sample_one(prefix_of({0.0, 0.0}), 3, 1, &out);
  EXPECT_TRUE(out.empty());
}

TEST(ItsSampleOne, ProducesDistinctSortedIndices) {
  const auto prefix = prefix_of({5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 10.0, 1.0});
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    std::vector<index_t> out;
    its_sample_one(prefix, 4, seed, &out);
    ASSERT_EQ(out.size(), 4u);
    for (std::size_t i = 0; i + 1 < out.size(); ++i) {
      EXPECT_LT(out[i], out[i + 1]);
    }
  }
}

TEST(ItsSampleOne, IsDeterministicPerSeed) {
  const auto prefix = prefix_of({1, 2, 3, 4, 5, 6, 7, 8});
  std::vector<index_t> a, b;
  its_sample_one(prefix, 3, 99, &a);
  its_sample_one(prefix, 3, 99, &b);
  EXPECT_EQ(a, b);
  its_sample_one(prefix, 3, 100, &b);
  EXPECT_NE(a, b);  // overwhelmingly likely
}

TEST(ItsSampleOne, NeverPicksZeroWeightElements) {
  const auto prefix = prefix_of({1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0});
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    std::vector<index_t> out;
    its_sample_one(prefix, 3, seed, &out);
    for (const index_t i : out) EXPECT_EQ(i % 2, 0) << "picked zero-weight index";
  }
}

TEST(ItsSampleOne, SingleDrawFollowsTheDistribution) {
  // Weights 1:3 → index 1 picked ~75% of the time.
  const auto prefix = prefix_of({1.0, 3.0});
  int count1 = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    std::vector<index_t> out;
    its_sample_one(prefix, 1, static_cast<std::uint64_t>(t) + 7, &out);
    ASSERT_EQ(out.size(), 1u);
    if (out[0] == 1) ++count1;
  }
  EXPECT_NEAR(static_cast<double>(count1) / trials, 0.75, 0.02);
}

TEST(ItsSampleOne, HeavySkewStillCompletes) {
  // One giant weight: redraw-on-duplicate would stall without the
  // deterministic completion sweep. Every one of the 64·8+64 draws lands on
  // index 10, so the sweep adds the first seven other positive-mass
  // indices and the result merges to ascending order.
  std::vector<value_t> w(64, 1e-9);
  w[10] = 1e9;
  std::vector<index_t> out;
  its_sample_one(prefix_of(w), 8, 3, &out);
  EXPECT_EQ(out, (std::vector<index_t>{0, 1, 2, 3, 4, 5, 6, 10}));
}

TEST(ItsSampleRows, RespectsPerRowCaps) {
  const CsrMatrix p = testutil::random_csr(30, 40, 0.2, 61);
  const CsrMatrix q = its_sample_rows(p, 3, std::uint64_t{5});
  q.validate();
  EXPECT_EQ(q.rows(), p.rows());
  EXPECT_EQ(q.cols(), p.cols());
  for (index_t r = 0; r < p.rows(); ++r) {
    EXPECT_EQ(q.row_nnz(r), std::min<nnz_t>(3, p.row_nnz(r)));
  }
}

TEST(ItsSampleRows, SamplesAreNonzerosOfP) {
  const CsrMatrix p = testutil::random_csr(20, 20, 0.3, 62);
  const CsrMatrix q = its_sample_rows(p, 4, std::uint64_t{6});
  for (index_t r = 0; r < p.rows(); ++r) {
    for (const index_t c : q.row_cols(r)) {
      EXPECT_GT(p.at(r, c), 0.0);
    }
  }
}

TEST(ItsSampleRows, ValuesAreOne) {
  const CsrMatrix p = testutil::random_csr(10, 10, 0.5, 63);
  const CsrMatrix q = its_sample_rows(p, 2, std::uint64_t{7});
  for (const value_t v : q.vals()) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(ItsSampleRows, RowSeedFunctionControlsStreams) {
  const CsrMatrix p = testutil::random_csr(10, 30, 0.5, 64);
  const auto fixed = [](index_t) { return std::uint64_t{42}; };
  const CsrMatrix q1 = its_sample_rows(p, 3, fixed);
  const CsrMatrix q2 = its_sample_rows(p, 3, fixed);
  EXPECT_TRUE(q1 == q2);
}

TEST(ItsSampleRows, MarginalFrequenciesMatchWeights) {
  // Row with weights (1,1,2): over many epochs sampling s=1, column 2
  // should appear ~50%.
  const CsrMatrix p =
      CsrMatrix::from_triplets(1, 3, {0, 0, 0}, {0, 1, 2}, {1.0, 1.0, 2.0});
  std::map<index_t, int> counts;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    const CsrMatrix q =
        its_sample_rows(p, 1, [t](index_t) { return static_cast<std::uint64_t>(t); });
    counts[q.row_cols(0)[0]]++;
  }
  EXPECT_NEAR(counts[2] / static_cast<double>(trials), 0.5, 0.02);
  EXPECT_NEAR(counts[0] / static_cast<double>(trials), 0.25, 0.02);
}

TEST(ItsSampleRows, NegativeSThrows) {
  EXPECT_THROW(its_sample_rows(CsrMatrix(1, 1), -1, std::uint64_t{0}), DmsError);
}

class ItsSweep : public ::testing::TestWithParam<index_t> {};

TEST_P(ItsSweep, WithoutReplacementForAllS) {
  const index_t s = GetParam();
  const CsrMatrix p = testutil::random_csr(25, 60, 0.4, 65);
  const CsrMatrix q = its_sample_rows(p, s, std::uint64_t{77});
  for (index_t r = 0; r < q.rows(); ++r) {
    const auto cols = q.row_cols(r);
    std::set<index_t> unique(cols.begin(), cols.end());
    EXPECT_EQ(unique.size(), cols.size());
    EXPECT_EQ(static_cast<nnz_t>(cols.size()), std::min<nnz_t>(s, p.row_nnz(r)));
  }
}

INSTANTIATE_TEST_SUITE_P(SampleCounts, ItsSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 100));

}  // namespace
}  // namespace dms
