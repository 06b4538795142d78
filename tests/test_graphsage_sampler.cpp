// Matrix-based GraphSAGE sampler: paper worked example, structural
// invariants, and bulk/k-invariance.
#include <gtest/gtest.h>

#include <set>

#include "core/plan_sampler.hpp"
#include "graph/generators.hpp"
#include "plan/builders.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm_engine.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

Graph paper_graph() { return Graph(testutil::paper_example_adjacency()); }

TEST(GraphSageProbability, MatchesFigure2a) {
  // P ← Q^L·A then NORM: row of batch vertex 1 is 1/3 on {0,2,4}; row of
  // batch vertex 5 is 1/2 on {3,4}.
  const Graph g = paper_graph();
  const CsrMatrix q = CsrMatrix::one_nonzero_per_row(6, {1, 5});
  CsrMatrix p = spgemm(q, g.adjacency());
  normalize_rows(p);
  EXPECT_DOUBLE_EQ(p.at(0, 0), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(p.at(0, 2), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(p.at(0, 4), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(p.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(p.at(1, 3), 0.5);
  EXPECT_DOUBLE_EQ(p.at(1, 4), 0.5);
  EXPECT_EQ(p.row_nnz(0), 3);
  EXPECT_EQ(p.row_nnz(1), 2);
}

TEST(GraphSageSampler, SampleCountsMatchFanout) {
  // Each batch vertex samples exactly min(s, deg) neighbors (§4.1.2).
  const Graph g = paper_graph();
  PlanSampler sampler(g, build_sage_plan(), {{2}, 1});
  const MinibatchSample ms = sampler.sample_one({1, 5}, 0, 123);
  ASSERT_EQ(ms.layers.size(), 1u);
  const LayerSample& layer = ms.layers[0];
  EXPECT_EQ(layer.adj.rows(), 2);
  EXPECT_EQ(layer.adj.row_nnz(0), 2);  // deg(1)=3 > s=2
  EXPECT_EQ(layer.adj.row_nnz(1), 2);  // deg(5)=2 == s=2 → both
}

TEST(GraphSageSampler, SampledEdgesExistInGraph) {
  const Graph g = paper_graph();
  PlanSampler sampler(g, build_sage_plan(), {{2, 2}, 1});
  const MinibatchSample ms = sampler.sample_one({1, 5}, 0, 5);
  for (const auto& layer : ms.layers) {
    for (index_t r = 0; r < layer.adj.rows(); ++r) {
      const index_t u = layer.row_vertices[static_cast<std::size_t>(r)];
      for (const index_t c : layer.adj.row_cols(r)) {
        const index_t v = layer.col_vertices[static_cast<std::size_t>(c)];
        EXPECT_DOUBLE_EQ(g.adjacency().at(u, v), 1.0)
            << "sampled edge (" << u << "," << v << ") not in graph";
      }
    }
  }
}

TEST(GraphSageSampler, FrontierChainsAcrossLayers) {
  // layers[l].row_vertices must equal layers[l-1].col_vertices, and layer 0
  // rows are the batch (sampler.hpp conventions).
  const Graph g = paper_graph();
  PlanSampler sampler(g, build_sage_plan(), {{2, 2, 1}, 1});
  const MinibatchSample ms = sampler.sample_one({1, 5}, 3, 17);
  ASSERT_EQ(ms.layers.size(), 3u);
  EXPECT_EQ(ms.layers[0].row_vertices, ms.batch_vertices);
  for (std::size_t l = 1; l < ms.layers.size(); ++l) {
    EXPECT_EQ(ms.layers[l].row_vertices, ms.layers[l - 1].col_vertices);
  }
}

TEST(GraphSageSampler, FrontierLeadsWithRowVertices) {
  const Graph g = paper_graph();
  PlanSampler sampler(g, build_sage_plan(), {{2}, 1});
  const MinibatchSample ms = sampler.sample_one({1, 5}, 0, 9);
  const auto& f = ms.layers[0].col_vertices;
  ASSERT_GE(f.size(), 2u);
  EXPECT_EQ(f[0], 1);
  EXPECT_EQ(f[1], 5);
  // Frontier has no duplicates.
  std::set<index_t> uniq(f.begin(), f.end());
  EXPECT_EQ(uniq.size(), f.size());
}

TEST(GraphSageSampler, BulkStackingIsInvariantToK) {
  // Sampling 4 batches in one bulk call must give the same per-batch result
  // as 4 separate calls (Eq. 1 stacking changes nothing semantically).
  const Graph g = Graph(generate_erdos_renyi(64, 8.0, 3).adjacency());
  PlanSampler sampler(g, build_sage_plan(), {{3, 2}, 1});
  std::vector<std::vector<index_t>> batches = {
      {0, 1, 2}, {10, 11}, {20, 21, 22, 23}, {40}};
  std::vector<index_t> ids = {0, 1, 2, 3};
  const auto bulk = sampler.sample_bulk(batches, ids, 777);
  ASSERT_EQ(bulk.size(), 4u);
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const auto single = sampler.sample_one(batches[i], ids[i], 777);
    ASSERT_EQ(single.layers.size(), bulk[i].layers.size());
    for (std::size_t l = 0; l < single.layers.size(); ++l) {
      EXPECT_TRUE(single.layers[l].adj == bulk[i].layers[l].adj);
      EXPECT_EQ(single.layers[l].col_vertices, bulk[i].layers[l].col_vertices);
    }
  }
}

TEST(GraphSageSampler, DifferentEpochsGiveDifferentSamples) {
  const Graph g = Graph(generate_erdos_renyi(128, 16.0, 4).adjacency());
  PlanSampler sampler(g, build_sage_plan(), {{4}, 1});
  const auto a = sampler.sample_one({5, 6, 7, 8}, 0, 1);
  const auto b = sampler.sample_one({5, 6, 7, 8}, 0, 2);
  EXPECT_FALSE(a.layers[0].adj == b.layers[0].adj);
}

TEST(GraphSageSampler, SameSeedReproduces) {
  const Graph g = Graph(generate_erdos_renyi(128, 16.0, 5).adjacency());
  PlanSampler sampler(g, build_sage_plan(), {{4, 3}, 1});
  const auto a = sampler.sample_one({1, 2, 3}, 7, 42);
  const auto b = sampler.sample_one({1, 2, 3}, 7, 42);
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    EXPECT_TRUE(a.layers[l].adj == b.layers[l].adj);
  }
}

TEST(GraphSageSampler, IsolatedVertexSamplesNothing) {
  // Vertex with no out-neighbors: empty P row → zero samples, no crash.
  CooMatrix coo(4, 4);
  coo.push(0, 1, 1.0);
  const Graph g{CsrMatrix::from_coo(coo)};
  PlanSampler sampler(g, build_sage_plan(), {{2}, 1});
  const MinibatchSample ms = sampler.sample_one({2}, 0, 1);
  EXPECT_EQ(ms.layers[0].adj.row_nnz(0), 0);
}

TEST(GraphSageSampler, RejectsEmptyOrNonPositiveFanouts) {
  const Graph g = paper_graph();
  EXPECT_THROW(PlanSampler(g, build_sage_plan(), {{}, 1}), DmsError);
  EXPECT_THROW(PlanSampler(g, build_sage_plan(), {{2, 0}, 1}), DmsError);
}

TEST(GraphSageSampler, InputVerticesAreLastFrontier) {
  const Graph g = paper_graph();
  PlanSampler sampler(g, build_sage_plan(), {{2, 2}, 1});
  const MinibatchSample ms = sampler.sample_one({1}, 0, 11);
  EXPECT_EQ(ms.input_vertices(), ms.layers.back().col_vertices);
}

class SageFanoutSweep : public ::testing::TestWithParam<index_t> {};

TEST_P(SageFanoutSweep, EveryRowRespectsFanoutOnRandomGraph) {
  const index_t s = GetParam();
  const Graph g = Graph(generate_erdos_renyi(200, 12.0, 6).adjacency());
  PlanSampler sampler(g, build_sage_plan(), {{s}, 1});
  std::vector<index_t> batch;
  for (index_t v = 0; v < 40; v += 2) batch.push_back(v);
  const MinibatchSample ms = sampler.sample_one(batch, 0, 3);
  for (index_t r = 0; r < ms.layers[0].adj.rows(); ++r) {
    const index_t v = ms.layers[0].row_vertices[static_cast<std::size_t>(r)];
    EXPECT_EQ(ms.layers[0].adj.row_nnz(r), std::min<nnz_t>(s, g.out_degree(v)));
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, SageFanoutSweep, ::testing::Values(1, 2, 4, 8, 16, 64));

}  // namespace
}  // namespace dms
