// Baselines: classic loop-based GraphSAGE, Quiver-sim, and the reference
// CPU LADIES implementation.
#include <gtest/gtest.h>

#include <set>

#include "baselines/classic_sage.hpp"
#include "baselines/ladies_cpu.hpp"
#include "baselines/quiver_sim.hpp"
#include "core/ladies.hpp"
#include "core/minibatch.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

TEST(ClassicSage, RespectsFanoutAndEdges) {
  const Graph g = generate_erdos_renyi(100, 10.0, 61);
  const auto ms = classic_sage_sample(g, {1, 2, 3}, {4, 3}, 0, 7);
  ASSERT_EQ(ms.layers.size(), 2u);
  for (std::size_t l = 0; l < 2; ++l) {
    const auto& layer = ms.layers[l];
    const index_t s = l == 0 ? 4 : 3;
    for (index_t r = 0; r < layer.adj.rows(); ++r) {
      const index_t v = layer.row_vertices[static_cast<std::size_t>(r)];
      EXPECT_EQ(layer.adj.row_nnz(r), std::min<nnz_t>(s, g.out_degree(v)));
      for (const index_t c : layer.adj.row_cols(r)) {
        EXPECT_DOUBLE_EQ(
            g.adjacency().at(v, layer.col_vertices[static_cast<std::size_t>(c)]), 1.0);
      }
    }
  }
}

TEST(ClassicSage, SampledNeighborsAreDistinct) {
  const Graph g = generate_erdos_renyi(60, 20.0, 62);
  const auto ms = classic_sage_sample(g, {5}, {8}, 0, 3);
  const auto cols = ms.layers[0].adj.row_cols(0);
  std::set<index_t> uniq(cols.begin(), cols.end());
  EXPECT_EQ(uniq.size(), cols.size());
}

TEST(ClassicSage, UniformMarginals) {
  // Each neighbor of a degree-d vertex should be picked with prob s/d.
  CooMatrix coo(6, 6);
  for (index_t j = 1; j < 6; ++j) coo.push(0, j, 1.0);
  const Graph g{CsrMatrix::from_coo(coo)};
  std::vector<int> count(6, 0);
  const int trials = 10000;
  for (int t = 0; t < trials; ++t) {
    const auto ms = classic_sage_sample(g, {0}, {2}, 0, static_cast<std::uint64_t>(t));
    for (const index_t c : ms.layers[0].adj.row_cols(0)) {
      ++count[static_cast<std::size_t>(
          ms.layers[0].col_vertices[static_cast<std::size_t>(c)])];
    }
  }
  for (index_t j = 1; j < 6; ++j) {
    EXPECT_NEAR(count[static_cast<std::size_t>(j)] / static_cast<double>(trials),
                0.4, 0.03);
  }
}

TEST(QuiverSim, EpochRunsAndReportsPhases) {
  const Dataset ds = make_planted_dataset(256, 4, 8, 8.0, 0.8, 9);
  Cluster cluster(ProcessGrid(4, 1), CostModel(LinkParams{}));
  QuiverConfig cfg;
  cfg.batch_size = 32;
  cfg.fanouts = {4, 4};
  cfg.hidden = 16;
  QuiverSim quiver(cluster, ds, cfg);
  const auto stats = quiver.run_epoch(0);
  EXPECT_GT(stats.sampling, 0.0);
  EXPECT_GT(stats.fetch, 0.0);
  EXPECT_GT(stats.propagation, 0.0);
  EXPECT_GT(stats.loss, 0.0);
  EXPECT_NEAR(stats.total, stats.sampling + stats.fetch + stats.propagation, 1e-9);
}

TEST(QuiverSim, UvaModeIsSlowerPerEpoch) {
  // Figure 5: GPU sampling beats UVA sampling.
  const Dataset ds = make_planted_dataset(512, 4, 16, 12.0, 0.8, 10);
  QuiverConfig cfg;
  cfg.batch_size = 32;
  cfg.fanouts = {6, 4};
  cfg.hidden = 16;

  // Neutralize measured host-compute noise so the comparison isolates the
  // modeled transfer costs (PCIe vs NVLink), which is what Figure 5 shows.
  // QuiverSim bills sampling as irregular compute, so both scales are set.
  LinkParams link;
  link.compute_scale = 1e9;
  link.irregular_compute_scale = 1e9;

  Cluster c_gpu(ProcessGrid(4, 1), CostModel(link));
  QuiverSim gpu(c_gpu, ds, cfg);
  const double t_gpu = gpu.run_epoch(0).total;

  cfg.uva = true;
  Cluster c_uva(ProcessGrid(4, 1), CostModel(link));
  QuiverSim uva(c_uva, ds, cfg);
  const double t_uva = uva.run_epoch(0).total;
  EXPECT_GT(t_uva, t_gpu);
}

TEST(QuiverSim, ReplicatesTopologyPerRank) {
  const Dataset ds = make_planted_dataset(256, 4, 8, 8.0, 0.8, 11);
  Cluster cluster(ProcessGrid(4, 1), CostModel(LinkParams{}));
  QuiverConfig cfg;
  QuiverSim quiver(cluster, ds, cfg);
  EXPECT_GT(quiver.per_rank_bytes(0), ds.graph.adjacency().bytes());
}

TEST(LadiesCpu, SamplesMatchLadiesSemantics) {
  const Graph g = generate_erdos_renyi(120, 10.0, 63);
  std::vector<index_t> train;
  for (index_t v = 0; v < 64; ++v) train.push_back(v);
  const auto batches = make_epoch_batches(train, 16, 3);
  const auto result = ladies_cpu_reference(g, batches, 12, 5);
  ASSERT_EQ(result.samples.size(), batches.size());
  EXPECT_GT(result.seconds, 0.0);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const auto& layer = result.samples[b].layers[0];
    // Every kept edge exists and points into the sampled frontier.
    for (index_t r = 0; r < layer.adj.rows(); ++r) {
      const index_t u = layer.row_vertices[static_cast<std::size_t>(r)];
      for (const index_t c : layer.adj.row_cols(r)) {
        EXPECT_DOUBLE_EQ(
            g.adjacency().at(u, layer.col_vertices[static_cast<std::size_t>(c)]), 1.0);
      }
    }
    // At most s new vertices beyond the batch.
    EXPECT_LE(layer.col_vertices.size(), batches[b].size() + 12);
  }
}

TEST(LadiesCpu, SampledSetsComeFromNeighborhood) {
  const Graph g = generate_erdos_renyi(100, 8.0, 64);
  const std::vector<std::vector<index_t>> batches = {{0, 1, 2, 3}};
  const auto result = ladies_cpu_reference(g, batches, 8, 6);
  std::set<index_t> neighborhood;
  for (const index_t u : batches[0]) {
    for (const index_t v : g.adjacency().row_cols(u)) neighborhood.insert(v);
  }
  const auto& f = result.samples[0].layers[0].col_vertices;
  for (std::size_t i = batches[0].size(); i < f.size(); ++i) {
    EXPECT_TRUE(neighborhood.count(f[i]) > 0);
  }
}

}  // namespace
}  // namespace dms
