// Matrix-based LADIES sampler: the paper's probability example, extraction
// semantics (every batch→sampled edge kept), and bulk invariance.
#include <gtest/gtest.h>

#include <set>

#include "core/ladies.hpp"
#include "core/plan_sampler.hpp"
#include "graph/generators.hpp"
#include "plan/builders.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

Graph paper_graph() { return Graph(testutil::paper_example_adjacency()); }

TEST(LadiesProbability, MatchesPaperSection22) {
  // §2.2.2: for batch {1,5} on the Figure 1 graph the probability array is
  // [1/7, 0, 1/7, 1/7, 4/7, 0].
  const Graph g = paper_graph();
  const auto p = ladies_probability_vector(g, {1, 5});
  ASSERT_EQ(p.size(), 6u);
  EXPECT_DOUBLE_EQ(p[0], 1.0 / 7.0);
  EXPECT_DOUBLE_EQ(p[1], 0.0);
  EXPECT_DOUBLE_EQ(p[2], 1.0 / 7.0);
  EXPECT_DOUBLE_EQ(p[3], 1.0 / 7.0);
  EXPECT_DOUBLE_EQ(p[4], 4.0 / 7.0);
  EXPECT_DOUBLE_EQ(p[5], 0.0);
}

TEST(LadiesProbability, SquaredCountsNormalization) {
  // p_v = e_v² / Σ e_u² — verify on a different batch ({1} alone: all of
  // N(1) has e=1 → uniform 1/3).
  const Graph g = paper_graph();
  const auto p = ladies_probability_vector(g, {1});
  EXPECT_DOUBLE_EQ(p[0], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(p[2], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(p[4], 1.0 / 3.0);
}

TEST(LadiesSampler, SamplesSVerticesPerBatch) {
  const Graph g = paper_graph();
  PlanSampler sampler(g, build_ladies_plan(), {{2}, 1});
  const MinibatchSample ms = sampler.sample_one({1, 5}, 0, 7);
  ASSERT_EQ(ms.layers.size(), 1u);
  // Frontier = batch (2) + sampled (2, unless a sampled vertex is a batch
  // vertex — impossible here since neither 1 nor 5 has positive probability).
  EXPECT_EQ(ms.layers[0].col_vertices.size(), 4u);
}

TEST(LadiesSampler, KeepsEveryEdgeBetweenBatchAndSample) {
  // §4.2: "the sample for LADIES includes every edge between {batch} and
  // {sampled}" — unlike GraphSAGE which keeps s per vertex.
  const Graph g = Graph(generate_erdos_renyi(80, 10.0, 11).adjacency());
  PlanSampler sampler(g, build_ladies_plan(), {{12}, 1});
  std::vector<index_t> batch = {3, 9, 27, 45, 61};
  const MinibatchSample ms = sampler.sample_one(batch, 0, 13);
  const LayerSample& layer = ms.layers[0];
  // Identify the sampled set = frontier minus leading batch vertices.
  std::set<index_t> sampled(layer.col_vertices.begin() + static_cast<std::ptrdiff_t>(batch.size()),
                            layer.col_vertices.end());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (const index_t v : g.adjacency().row_cols(batch[i])) {
      if (sampled.count(v) > 0) {
        // Edge batch[i]→v must be present in the sampled adjacency.
        bool found = false;
        for (const index_t c : layer.adj.row_cols(static_cast<index_t>(i))) {
          if (layer.col_vertices[static_cast<std::size_t>(c)] == v) found = true;
        }
        EXPECT_TRUE(found) << "missing edge " << batch[i] << "->" << v;
      }
    }
  }
}

TEST(LadiesSampler, SampledAdjacencyEdgesExistInGraph) {
  const Graph g = Graph(generate_erdos_renyi(60, 8.0, 12).adjacency());
  PlanSampler sampler(g, build_ladies_plan(), {{8}, 1});
  const MinibatchSample ms = sampler.sample_one({1, 2, 3, 4}, 0, 5);
  const LayerSample& layer = ms.layers[0];
  for (index_t r = 0; r < layer.adj.rows(); ++r) {
    const index_t u = layer.row_vertices[static_cast<std::size_t>(r)];
    for (const index_t c : layer.adj.row_cols(r)) {
      EXPECT_DOUBLE_EQ(
          g.adjacency().at(u, layer.col_vertices[static_cast<std::size_t>(c)]), 1.0);
    }
  }
}

TEST(LadiesSampler, BulkStackingIsInvariantToK) {
  const Graph g = Graph(generate_erdos_renyi(100, 10.0, 13).adjacency());
  PlanSampler sampler(g, build_ladies_plan(), {{6}, 1});
  std::vector<std::vector<index_t>> batches = {{0, 1, 2}, {10, 20, 30}, {50, 51}};
  std::vector<index_t> ids = {0, 1, 2};
  const auto bulk = sampler.sample_bulk(batches, ids, 99);
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const auto single = sampler.sample_one(batches[i], ids[i], 99);
    EXPECT_TRUE(single.layers[0].adj == bulk[i].layers[0].adj);
    EXPECT_EQ(single.layers[0].col_vertices, bulk[i].layers[0].col_vertices);
  }
}

TEST(LadiesSampler, MultiLayerChainsFrontiers) {
  const Graph g = Graph(generate_erdos_renyi(100, 12.0, 14).adjacency());
  PlanSampler sampler(g, build_ladies_plan(), {{8, 8}, 1});
  const MinibatchSample ms = sampler.sample_one({2, 4, 6}, 0, 21);
  ASSERT_EQ(ms.layers.size(), 2u);
  EXPECT_EQ(ms.layers[1].row_vertices, ms.layers[0].col_vertices);
}

TEST(LadiesSampler, SameSeedReproduces) {
  const Graph g = Graph(generate_erdos_renyi(100, 10.0, 15).adjacency());
  PlanSampler sampler(g, build_ladies_plan(), {{5}, 1});
  const auto a = sampler.sample_one({7, 8, 9}, 2, 5);
  const auto b = sampler.sample_one({7, 8, 9}, 2, 5);
  EXPECT_TRUE(a.layers[0].adj == b.layers[0].adj);
  const auto c = sampler.sample_one({7, 8, 9}, 2, 6);
  EXPECT_FALSE(a.layers[0].col_vertices == c.layers[0].col_vertices);
}

TEST(LadiesSampler, SampledVerticesComeFromAggregatedNeighborhood) {
  // LADIES only samples vertices with a neighbor in the batch (§2.2.2) —
  // the fix over FastGCN.
  const Graph g = Graph(generate_erdos_renyi(120, 6.0, 16).adjacency());
  PlanSampler sampler(g, build_ladies_plan(), {{10}, 1});
  std::vector<index_t> batch = {0, 5, 10};
  std::set<index_t> neighborhood;
  for (const index_t u : batch) {
    for (const index_t v : g.adjacency().row_cols(u)) neighborhood.insert(v);
  }
  const MinibatchSample ms = sampler.sample_one(batch, 0, 31);
  const auto& f = ms.layers[0].col_vertices;
  for (std::size_t i = batch.size(); i < f.size(); ++i) {
    EXPECT_TRUE(neighborhood.count(f[i]) > 0)
        << "vertex " << f[i] << " sampled outside the aggregated neighborhood";
  }
}

class LadiesSweep : public ::testing::TestWithParam<index_t> {};

TEST_P(LadiesSweep, SampleSizeNeverExceedsS) {
  const index_t s = GetParam();
  const Graph g = Graph(generate_erdos_renyi(150, 8.0, 17).adjacency());
  PlanSampler sampler(g, build_ladies_plan(), {{s}, 1});
  const MinibatchSample ms = sampler.sample_one({1, 2, 3, 4, 5}, 0, 1);
  EXPECT_LE(static_cast<index_t>(ms.layers[0].col_vertices.size()), 5 + s);
}

INSTANTIATE_TEST_SUITE_P(SampleSizes, LadiesSweep, ::testing::Values(1, 2, 4, 16, 64, 256));

}  // namespace
}  // namespace dms
