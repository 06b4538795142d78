// FastGCN sampler (framework extension): importance distribution and
// layer-wise extraction semantics.
#include <gtest/gtest.h>

#include <set>

#include "core/fastgcn.hpp"
#include "core/plan_sampler.hpp"
#include "graph/generators.hpp"
#include "plan/builders.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

TEST(FastGcn, ImportanceIsSquaredInDegree) {
  const Graph g(testutil::paper_example_adjacency());
  // In-degrees on the symmetric example equal out-degrees:
  // deg = {1, 3, 1, 2, 3, 2}.
  const auto q = fastgcn_importance(g);
  EXPECT_DOUBLE_EQ(q[0], 1.0);
  EXPECT_DOUBLE_EQ(q[1], 9.0);
  EXPECT_DOUBLE_EQ(q[2], 1.0);
  EXPECT_DOUBLE_EQ(q[3], 4.0);
  EXPECT_DOUBLE_EQ(q[4], 9.0);
  EXPECT_DOUBLE_EQ(q[5], 4.0);
}

TEST(FastGcn, SamplesAreIndependentOfBatch) {
  // FastGCN's distribution is batch-independent: two different batches at
  // the same (batch_id, layer) stream sample the same vertex set.
  const Graph g = Graph(generate_erdos_renyi(100, 10.0, 21).adjacency());
  PlanSampler sampler(g, build_fastgcn_plan(), {{8}, 1});
  const auto a = sampler.sample_one({1, 2, 3}, 5, 7);
  const auto b = sampler.sample_one({50, 60}, 5, 7);
  std::set<index_t> sa(a.layers[0].col_vertices.begin() + 3, a.layers[0].col_vertices.end());
  std::set<index_t> sb(b.layers[0].col_vertices.begin() + 2, b.layers[0].col_vertices.end());
  // The *new* sampled vertices agree up to overlap with the batch itself.
  const std::set<index_t> batch_union = {1, 2, 3, 50, 60};
  for (const index_t v : sa) {
    if (sb.count(v) == 0) {
      const bool is_batch_vertex = batch_union.count(v) > 0;
      EXPECT_TRUE(is_batch_vertex);
    }
  }
}

TEST(FastGcn, EdgesExistAndConnectBatchToSample) {
  const Graph g = Graph(generate_erdos_renyi(80, 9.0, 22).adjacency());
  PlanSampler sampler(g, build_fastgcn_plan(), {{16}, 1});
  const auto ms = sampler.sample_one({4, 8, 12}, 0, 3);
  const auto& layer = ms.layers[0];
  EXPECT_EQ(layer.adj.rows(), 3);
  for (index_t r = 0; r < layer.adj.rows(); ++r) {
    const index_t u = layer.row_vertices[static_cast<std::size_t>(r)];
    for (const index_t c : layer.adj.row_cols(r)) {
      EXPECT_DOUBLE_EQ(
          g.adjacency().at(u, layer.col_vertices[static_cast<std::size_t>(c)]), 1.0);
    }
  }
}

TEST(FastGcn, CanSampleVerticesOutsideNeighborhood) {
  // Unlike LADIES, FastGCN may sample vertices with no edge to the batch
  // (§2.2.2 points out this hurts accuracy). With a tiny batch on a large
  // graph this is overwhelmingly likely.
  const Graph g = Graph(generate_erdos_renyi(500, 4.0, 23).adjacency());
  PlanSampler sampler(g, build_fastgcn_plan(), {{64}, 1});
  const auto ms = sampler.sample_one({0}, 0, 9);
  std::set<index_t> neighborhood;
  for (const index_t v : g.adjacency().row_cols(0)) neighborhood.insert(v);
  const auto& f = ms.layers[0].col_vertices;
  bool outside = false;
  for (std::size_t i = 1; i < f.size(); ++i) {
    if (neighborhood.count(f[i]) == 0) outside = true;
  }
  EXPECT_TRUE(outside);
}

TEST(FastGcn, BulkMatchesSingle) {
  const Graph g = Graph(generate_erdos_renyi(90, 7.0, 24).adjacency());
  PlanSampler sampler(g, build_fastgcn_plan(), {{8, 8}, 1});
  std::vector<std::vector<index_t>> batches = {{0, 1}, {2, 3}};
  const auto bulk = sampler.sample_bulk(batches, {0, 1}, 55);
  for (std::size_t i = 0; i < 2; ++i) {
    const auto single = sampler.sample_one(batches[i], static_cast<index_t>(i), 55);
    for (std::size_t l = 0; l < 2; ++l) {
      EXPECT_TRUE(single.layers[l].adj == bulk[i].layers[l].adj);
    }
  }
}

}  // namespace
}  // namespace dms
