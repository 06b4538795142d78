// LABOR (layer-neighbor sampling by per-vertex Poisson thinning), the
// first sampler defined purely as a plan: determinism, sampling semantics,
// the frontier-shrinking property that motivates the algorithm, mode
// parity, and an end-to-end convergence sanity check.
#include <gtest/gtest.h>

#include <set>

#include "dist/dist_sampler.hpp"
#include "graph/generators.hpp"
#include "plan/builders.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

Graph test_graph() { return generate_erdos_renyi(300, 12.0, 71); }

std::vector<std::vector<index_t>> make_batches(index_t n) {
  std::vector<std::vector<index_t>> batches(4);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 16; ++j) {
      batches[static_cast<std::size_t>(i)].push_back((i * 53 + j * 7) % n);
    }
  }
  return batches;
}

const std::vector<index_t> kIds = {0, 1, 2, 3};

bool samples_equal(const MinibatchSample& a, const MinibatchSample& b) {
  if (a.batch_vertices != b.batch_vertices) return false;
  if (a.layers.size() != b.layers.size()) return false;
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    if (!(a.layers[l].adj == b.layers[l].adj)) return false;
    if (a.layers[l].col_vertices != b.layers[l].col_vertices) return false;
  }
  return true;
}

TEST(Labor, DeterministicPerSeedAndEpoch) {
  const Graph g = test_graph();
  const SamplerConfig cfg{{5, 3}, 1};
  PlanSampler s1(g, build_labor_plan(), cfg);
  PlanSampler s2(g, build_labor_plan(), cfg);
  const auto batches = make_batches(g.num_vertices());
  const auto r1 = s1.sample_bulk(batches, kIds, 11);
  const auto r2 = s2.sample_bulk(batches, kIds, 11);
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_TRUE(samples_equal(r1[i], r2[i])) << "batch " << i;
  }
  // A different epoch seed redraws the per-vertex uniforms.
  const auto r3 = s1.sample_bulk(batches, kIds, 12);
  bool any_differs = false;
  for (std::size_t i = 0; i < r1.size(); ++i) {
    if (!samples_equal(r1[i], r3[i])) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(Labor, SampledEdgesAreGraphEdgesAndLayersAreWellFormed) {
  const Graph g = test_graph();
  PlanSampler s(g, build_labor_plan(), {{4, 2}, 1});
  const auto out = s.sample_bulk(make_batches(g.num_vertices()), kIds, 21);
  for (const auto& ms : out) {
    ASSERT_EQ(ms.layers.size(), 2u);
    for (const auto& layer : ms.layers) {
      layer.adj.validate();
      ASSERT_EQ(layer.adj.rows(),
                static_cast<index_t>(layer.row_vertices.size()));
      ASSERT_EQ(layer.adj.cols(),
                static_cast<index_t>(layer.col_vertices.size()));
      for (index_t r = 0; r < layer.adj.rows(); ++r) {
        const index_t v = layer.row_vertices[static_cast<std::size_t>(r)];
        for (const index_t c : layer.adj.row_cols(r)) {
          const index_t u = layer.col_vertices[static_cast<std::size_t>(c)];
          EXPECT_GT(g.adjacency().at(v, u), 0.0)
              << "sampled non-edge " << v << "→" << u;
        }
      }
    }
  }
}

TEST(Labor, PerVertexSampleCountTracksTheExpectedFanout) {
  // Each neighbor of v is kept with probability min(1, s/deg(v)), so the
  // per-vertex expected count is min(s, deg(v)). Check the batch-0 layer-0
  // rows aggregated over epochs (law of large numbers at test scale).
  const Graph g = test_graph();
  const index_t s = 4;
  PlanSampler sampler(g, build_labor_plan(), {{s}, 1});
  const std::vector<std::vector<index_t>> batch = {{0, 1, 2, 3, 4, 5, 6, 7}};
  double sampled = 0.0, expected = 0.0;
  const int epochs = 300;
  for (int e = 0; e < epochs; ++e) {
    const auto out =
        sampler.sample_bulk(batch, {0}, static_cast<std::uint64_t>(e));
    const auto& layer = out[0].layers[0];
    for (index_t r = 0; r < layer.adj.rows(); ++r) {
      sampled += static_cast<double>(layer.adj.row_nnz(r));
      expected += std::min<double>(
          s, g.out_degree(layer.row_vertices[static_cast<std::size_t>(r)]));
    }
  }
  EXPECT_NEAR(sampled / expected, 1.0, 0.05);
}

TEST(Labor, FrontierSmallerThanGraphSageAtEqualFanout) {
  // The point of correlated thinning: at equal expected fanout, the union
  // frontier (= feature-fetch volume) undercuts independent per-row
  // sampling. Compare summed input-frontier sizes over several epochs.
  const Graph g = generate_erdos_renyi(400, 16.0, 72);
  const SamplerConfig cfg{{8, 8}, 1};
  PlanSampler labor(g, build_labor_plan(), cfg);
  PlanSampler sage(g, build_sage_plan(), cfg);
  std::vector<std::vector<index_t>> batch = {{}};
  for (index_t v = 0; v < 64; ++v) batch[0].push_back(v * 5 % 400);
  std::size_t labor_frontier = 0, sage_frontier = 0;
  for (std::uint64_t e = 0; e < 20; ++e) {
    labor_frontier += labor.sample_bulk(batch, {0}, e)[0].input_vertices().size();
    sage_frontier += sage.sample_bulk(batch, {0}, e)[0].input_vertices().size();
  }
  EXPECT_LT(labor_frontier, sage_frontier);
}

struct GridParam {
  int p, c;
};

class PartitionedLaborSweep : public ::testing::TestWithParam<GridParam> {};

TEST_P(PartitionedLaborSweep, MatchesSingleNodeSampler) {
  const auto [p, c] = GetParam();
  Cluster cluster(ProcessGrid(p, c), CostModel(LinkParams{}));
  const Graph g = test_graph();
  const SamplerConfig cfg{{4, 3}, 1};
  const auto batches = make_batches(g.num_vertices());

  PartitionedSamplerBase dist(g, cluster.grid(), build_labor_plan(), cfg);
  const auto per_row = dist.sample_bulk(cluster, batches, kIds, 2026);

  PlanSampler local(g, build_labor_plan(), cfg);
  const auto ref = local.sample_bulk(batches, kIds, 2026);

  std::size_t seen = 0;
  for (const auto& row : per_row) {
    for (const auto& ms : row) {
      EXPECT_TRUE(samples_equal(ms, ref[seen++]));
    }
  }
  EXPECT_EQ(seen, ref.size());
}

INSTANTIATE_TEST_SUITE_P(Grids, PartitionedLaborSweep,
                         ::testing::Values(GridParam{1, 1}, GridParam{2, 1},
                                           GridParam{4, 2}, GridParam{8, 2}));

TEST(Labor, ConvergesOnPlantedPartition) {
  // End-to-end sanity: a model trained through the LABOR plan learns the
  // planted structure — loss falls and train accuracy beats chance.
  const Dataset ds = make_planted_dataset(/*n=*/512, /*classes=*/4, /*f=*/8,
                                          /*avg_degree=*/8.0, /*p_intra=*/0.85,
                                          /*seed=*/5);
  Cluster cluster(ProcessGrid(2, 1), CostModel(LinkParams{}));
  PipelineConfig cfg;
  cfg.sampler = SamplerKind::kLabor;
  cfg.batch_size = 32;
  cfg.fanouts = {6, 4};
  cfg.hidden = 16;
  cfg.lr = 5e-3f;
  Pipeline pipe(cluster, ds, cfg);
  const EpochStats first = pipe.run_epoch(0);
  EpochStats last = first;
  for (int e = 1; e < 8; ++e) last = pipe.run_epoch(e);
  testutil::expect_epoch_stats_consistent(last);
  EXPECT_LT(last.loss, first.loss);
  EXPECT_GT(last.train_acc, 0.5);  // 4 classes → chance is 0.25
}

TEST(Labor, RejectsBadConfig) {
  const Graph g = test_graph();
  EXPECT_THROW(PlanSampler(g, build_labor_plan(), SamplerConfig{{}, 1}), DmsError);
  EXPECT_THROW(PlanSampler(g, build_labor_plan(), SamplerConfig{{0}, 1}), DmsError);
}

}  // namespace
}  // namespace dms
