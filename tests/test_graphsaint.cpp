// GraphSAINT-RW matrix sampler (graph-wise extension).
#include <gtest/gtest.h>

#include <set>

#include "core/plan_sampler.hpp"
#include "graph/dataset.hpp"
#include "graph/generators.hpp"
#include "nn/model.hpp"
#include "plan/builders.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

/// GraphSAINT-RW: the saint_rw plan with one unit fanout per model layer.
PlanSampler saint_sampler(const Graph& g, index_t walk_length,
                          index_t model_layers = 1) {
  return PlanSampler(g, build_saint_plan(walk_length, model_layers),
                     walk_adapter_config(model_layers, /*seed=*/1));
}

TEST(GraphSaint, InducedSubgraphContainsRoots) {
  const Graph g = generate_erdos_renyi(100, 8.0, 71);
  PlanSampler sampler = saint_sampler(g, /*walk_length=*/3);
  const auto ms = sampler.sample_one({5, 17, 42}, 0, 1);
  std::set<index_t> vs(ms.batch_vertices.begin(), ms.batch_vertices.end());
  EXPECT_TRUE(vs.count(5) && vs.count(17) && vs.count(42));
}

TEST(GraphSaint, SubgraphIsExactlyInducedAdjacency) {
  const Graph g = generate_erdos_renyi(80, 10.0, 72);
  PlanSampler sampler = saint_sampler(g, /*walk_length=*/2);
  const auto ms = sampler.sample_one({1, 2, 3, 4}, 0, 9);
  const auto& layer = ms.layers[0];
  // Every induced edge present, nothing else.
  for (std::size_t i = 0; i < layer.row_vertices.size(); ++i) {
    for (std::size_t j = 0; j < layer.col_vertices.size(); ++j) {
      EXPECT_DOUBLE_EQ(layer.adj.at(static_cast<index_t>(i), static_cast<index_t>(j)),
                       g.adjacency().at(layer.row_vertices[i], layer.col_vertices[j]));
    }
  }
}

TEST(GraphSaint, VertexSetBoundedByWalks) {
  const Graph g = generate_erdos_renyi(200, 6.0, 73);
  PlanSampler sampler = saint_sampler(g, /*walk_length=*/4);
  const std::vector<index_t> roots = {0, 10, 20, 30, 40};
  const auto ms = sampler.sample_one(roots, 0, 2);
  // At most roots * (1 + walk_length) distinct vertices.
  EXPECT_LE(ms.batch_vertices.size(), roots.size() * 5);
  EXPECT_GE(ms.batch_vertices.size(), roots.size());
}

TEST(GraphSaint, WalkStepsFollowEdges) {
  // On a directed path graph 0->1->2->3->..., a walk from 0 of length 3
  // must visit exactly {0,1,2,3}.
  CooMatrix coo(8, 8);
  for (index_t v = 0; v + 1 < 8; ++v) coo.push(v, v + 1, 1.0);
  const Graph g{CsrMatrix::from_coo(coo)};
  PlanSampler sampler = saint_sampler(g, /*walk_length=*/3);
  const auto ms = sampler.sample_one({0}, 0, 5);
  EXPECT_EQ(ms.batch_vertices, (std::vector<index_t>{0, 1, 2, 3}));
}

TEST(GraphSaint, DeadEndWalksTerminateGracefully) {
  // Sink vertex: walks stop, no crash, subgraph is just the root.
  CooMatrix coo(4, 4);
  coo.push(1, 2, 1.0);
  const Graph g{CsrMatrix::from_coo(coo)};
  PlanSampler sampler = saint_sampler(g, /*walk_length=*/5);
  const auto ms = sampler.sample_one({3}, 0, 1);
  EXPECT_EQ(ms.batch_vertices, (std::vector<index_t>{3}));
  EXPECT_EQ(ms.layers[0].adj.nnz(), 0);
}

TEST(GraphSaint, EmitsRequestedModelLayers) {
  const Graph g = generate_erdos_renyi(60, 8.0, 74);
  PlanSampler sampler = saint_sampler(g, /*walk_length=*/2, /*model_layers=*/3);
  const auto ms = sampler.sample_one({1, 2}, 0, 3);
  ASSERT_EQ(ms.layers.size(), 3u);
  EXPECT_TRUE(ms.layers[0].adj == ms.layers[2].adj);
}

TEST(GraphSaint, DeterministicPerSeed) {
  const Graph g = generate_erdos_renyi(150, 9.0, 75);
  PlanSampler sampler = saint_sampler(g, /*walk_length=*/3);
  const auto a = sampler.sample_one({7, 8}, 4, 11);
  const auto b = sampler.sample_one({7, 8}, 4, 11);
  EXPECT_EQ(a.batch_vertices, b.batch_vertices);
  const auto c = sampler.sample_one({7, 8}, 4, 12);
  EXPECT_NE(a.batch_vertices, c.batch_vertices);  // overwhelmingly likely
}

TEST(GraphSaint, TrainsWithSageModel) {
  // End-to-end: the induced-subgraph sample drives the standard model.
  const Dataset ds = make_planted_dataset(256, 4, 8, 8.0, 0.85, 6);
  PlanSampler sampler =
      saint_sampler(ds.graph, /*walk_length=*/2, /*model_layers=*/2);
  const auto ms = sampler.sample_one({0, 50, 100, 150}, 0, 1);

  ModelConfig mc;
  mc.in_dim = 8;
  mc.hidden = 8;
  mc.num_classes = 4;
  mc.num_layers = 2;
  SageModel model(mc);
  DenseF h(static_cast<index_t>(ms.input_vertices().size()), 8);
  for (std::size_t i = 0; i < ms.input_vertices().size(); ++i) {
    std::copy(ds.features.row(ms.input_vertices()[i]),
              ds.features.row(ms.input_vertices()[i]) + 8,
              h.row(static_cast<index_t>(i)));
  }
  std::vector<int> labels;
  for (const index_t v : ms.batch_vertices) {
    labels.push_back(ds.labels[static_cast<std::size_t>(v)]);
  }
  const LossResult res = model.train_step(ms, h, labels);
  EXPECT_GT(res.loss, 0.0);
}

TEST(GraphSaint, RejectsBadConfig) {
  const Graph g = generate_erdos_renyi(10, 2.0, 76);
  EXPECT_THROW(saint_sampler(g, /*walk_length=*/0), DmsError);
  EXPECT_THROW(saint_sampler(g, /*walk_length=*/1, /*model_layers=*/0), DmsError);
}

}  // namespace
}  // namespace dms
