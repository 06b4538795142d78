// Cross-cutting statistical and structural property tests.
//
// These check the *distributional* contracts the paper's correctness rests
// on: the matrix-based samplers draw from the same distributions as the
// classic loop-based implementations, sampling probabilities follow the
// algorithm definitions, and distribution invariants survive stacking and
// partitioning.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "baselines/classic_sage.hpp"
#include "core/plan_sampler.hpp"
#include "graph/generators.hpp"
#include "plan/builders.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm_engine.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

/// Chi-square statistic of observed counts vs expected probabilities.
double chi_square(const std::map<index_t, int>& counts,
                  const std::map<index_t, double>& probs, int trials) {
  double stat = 0.0;
  for (const auto& [v, p] : probs) {
    const double expected = p * trials;
    const auto it = counts.find(v);
    const double observed = it == counts.end() ? 0.0 : it->second;
    if (expected > 1e-9) stat += (observed - expected) * (observed - expected) / expected;
  }
  return stat;
}

TEST(PropertyMatrixVsClassic, GraphSageMarginalsAgree) {
  // One vertex of degree 6 sampling s=2: every neighbor should appear with
  // probability 2/6 in both the matrix-based and the classic sampler.
  CooMatrix coo(8, 8);
  for (index_t j = 1; j <= 6; ++j) coo.push(0, j, 1.0);
  const Graph g{CsrMatrix::from_coo(coo)};
  PlanSampler matrix_sampler(g, build_sage_plan(), {{2}, 1});

  const int trials = 6000;
  std::map<index_t, int> matrix_counts, classic_counts;
  for (int t = 0; t < trials; ++t) {
    const auto m = matrix_sampler.sample_one({0}, 0, static_cast<std::uint64_t>(t));
    for (const index_t c : m.layers[0].adj.row_cols(0)) {
      matrix_counts[m.layers[0].col_vertices[static_cast<std::size_t>(c)]]++;
    }
    const auto cl = classic_sage_sample(g, {0}, {2}, 0, static_cast<std::uint64_t>(t));
    for (const index_t c : cl.layers[0].adj.row_cols(0)) {
      classic_counts[cl.layers[0].col_vertices[static_cast<std::size_t>(c)]]++;
    }
  }
  std::map<index_t, double> expected;
  for (index_t j = 1; j <= 6; ++j) expected[j] = 2.0 / 6.0;
  // 5 degrees of freedom; chi-square 99.9th percentile ≈ 20.5.
  EXPECT_LT(chi_square(matrix_counts, expected, trials), 21.0);
  EXPECT_LT(chi_square(classic_counts, expected, trials), 21.0);
}

TEST(PropertyLadies, SamplingFollowsSquaredCountDistribution) {
  // Figure 1 example: probabilities [1/7,0,1/7,1/7,4/7,0] with s=1.
  const Graph g(testutil::paper_example_adjacency());
  PlanSampler sampler(g, build_ladies_plan(), {{1}, 1});
  const int trials = 14000;
  std::map<index_t, int> counts;
  for (int t = 0; t < trials; ++t) {
    const auto ms = sampler.sample_one({1, 5}, 0, static_cast<std::uint64_t>(t));
    // The sampled vertex is the frontier entry after the two batch vertices.
    ASSERT_EQ(ms.layers[0].col_vertices.size(), 3u);
    counts[ms.layers[0].col_vertices[2]]++;
  }
  const std::map<index_t, double> expected = {
      {0, 1.0 / 7.0}, {2, 1.0 / 7.0}, {3, 1.0 / 7.0}, {4, 4.0 / 7.0}};
  EXPECT_LT(chi_square(counts, expected, trials), 16.3);  // df=3, 99.9th pct
}

TEST(PropertyNorm, GraphSageRowsAreUniformOverNeighbors) {
  const Graph g = generate_erdos_renyi(64, 8.0, 81);
  const CsrMatrix q = CsrMatrix::one_nonzero_per_row(
      64, {0, 1, 2, 3, 4, 5, 6, 7});
  CsrMatrix p = spgemm(q, g.adjacency());
  normalize_rows(p);
  for (index_t r = 0; r < p.rows(); ++r) {
    const auto vals = p.row_vals(r);
    if (vals.empty()) continue;
    for (const value_t v : vals) {
      EXPECT_NEAR(v, 1.0 / static_cast<double>(vals.size()), 1e-12);
    }
  }
}

TEST(PropertyStacking, ProbabilityMatrixIsPermutationInvariant) {
  // Stacking order must not change per-batch P rows (Eq. 1).
  const Graph g = generate_erdos_renyi(64, 6.0, 82);
  PlanSampler sampler(g, build_sage_plan(), {{3}, 1});
  std::vector<std::vector<index_t>> batches = {{1, 2}, {3, 4}, {5, 6}};
  const auto abc = sampler.sample_bulk(batches, {0, 1, 2}, 9);
  std::vector<std::vector<index_t>> reversed = {{5, 6}, {3, 4}, {1, 2}};
  const auto cba = sampler.sample_bulk(reversed, {2, 1, 0}, 9);
  EXPECT_TRUE(abc[0].layers[0].adj == cba[2].layers[0].adj);
  EXPECT_TRUE(abc[2].layers[0].adj == cba[0].layers[0].adj);
}

TEST(PropertySamplers, LayerAdjacencyAlwaysPattern) {
  // All sampled adjacencies are 0/1 matrices with sorted unique columns.
  const Graph g = generate_erdos_renyi(128, 10.0, 83);
  PlanSampler sage(g, build_sage_plan(), {{4, 3}, 1});
  PlanSampler ladies(g, build_ladies_plan(), {{16}, 1});
  for (const MatrixSampler* s :
       std::initializer_list<const MatrixSampler*>{&sage, &ladies}) {
    const auto ms = s->sample_one({1, 2, 3, 4, 5}, 0, 77);
    for (const auto& layer : ms.layers) {
      layer.adj.validate();
      for (const value_t v : layer.adj.vals()) EXPECT_DOUBLE_EQ(v, 1.0);
      EXPECT_EQ(layer.adj.rows(), static_cast<index_t>(layer.row_vertices.size()));
      EXPECT_EQ(layer.adj.cols(), static_cast<index_t>(layer.col_vertices.size()));
    }
  }
}

class EpochSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EpochSeedSweep, SamplesAlwaysWithinNeighborhoods) {
  const std::uint64_t seed = GetParam();
  const Graph g = generate_erdos_renyi(96, 7.0, 84);
  PlanSampler sampler(g, build_sage_plan(), {{3, 2}, 1});
  const auto ms = sampler.sample_one({10, 20, 30}, 0, seed);
  for (const auto& layer : ms.layers) {
    for (index_t r = 0; r < layer.adj.rows(); ++r) {
      const index_t u = layer.row_vertices[static_cast<std::size_t>(r)];
      for (const index_t c : layer.adj.row_cols(r)) {
        EXPECT_DOUBLE_EQ(
            g.adjacency().at(u, layer.col_vertices[static_cast<std::size_t>(c)]),
            1.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EpochSeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace dms
