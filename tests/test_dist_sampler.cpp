// Graph Partitioned samplers: bit-identical results to the single-node
// samplers across grid shapes (the determinism contract that makes the
// distributed algorithms testable), plus phase accounting.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/minibatch.hpp"
#include "dist/dist_sampler.hpp"
#include "graph/generators.hpp"
#include "plan/builders.hpp"
#include "sparse/coo.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

Cluster make_cluster(int p, int c) {
  return Cluster(ProcessGrid(p, c), CostModel(LinkParams{}));
}

std::vector<std::vector<index_t>> make_batches(index_t n, index_t k, index_t b) {
  std::vector<index_t> train;
  for (index_t v = 0; v < k * b; ++v) train.push_back(v % n);
  auto batches = make_epoch_batches(train, b, 42);
  batches.resize(static_cast<std::size_t>(k));
  return batches;
}

struct GridParam {
  int p, c;
};

class PartitionedSageSweep : public ::testing::TestWithParam<GridParam> {};

TEST_P(PartitionedSageSweep, MatchesSingleNodeSampler) {
  const auto [p, c] = GetParam();
  Cluster cluster = make_cluster(p, c);
  const Graph g = generate_erdos_renyi(256, 10.0, 31);
  const SamplerConfig cfg{{3, 2}, 1};
  const auto batches = make_batches(256, 8, 4);
  std::vector<index_t> ids = {0, 1, 2, 3, 4, 5, 6, 7};

  PartitionedSamplerBase dist(g, cluster.grid(), build_sage_plan(), cfg);
  const auto per_row = dist.sample_bulk(cluster, batches, ids, 2024);

  PlanSampler local(g, build_sage_plan(), cfg);
  const auto ref = local.sample_bulk(batches, ids, 2024);

  std::size_t seen = 0;
  for (const auto& row : per_row) {
    for (const auto& ms : row) {
      const auto& expect = ref[seen++];
      ASSERT_EQ(ms.layers.size(), expect.layers.size());
      EXPECT_EQ(ms.batch_vertices, expect.batch_vertices);
      for (std::size_t l = 0; l < ms.layers.size(); ++l) {
        EXPECT_TRUE(ms.layers[l].adj == expect.layers[l].adj);
        EXPECT_EQ(ms.layers[l].col_vertices, expect.layers[l].col_vertices);
      }
    }
  }
  EXPECT_EQ(seen, ref.size());
}

INSTANTIATE_TEST_SUITE_P(Grids, PartitionedSageSweep,
                         ::testing::Values(GridParam{1, 1}, GridParam{2, 1},
                                           GridParam{4, 2}, GridParam{8, 2},
                                           GridParam{16, 4}));

class PartitionedLadiesSweep : public ::testing::TestWithParam<GridParam> {};

TEST_P(PartitionedLadiesSweep, MatchesSingleNodeSampler) {
  // Both sparsity modes, one layer and three: past the first layer the
  // frontier is rows ∪ sampled in row-leading order — unsorted, spanning
  // owner blocks — so the extraction interleaves every owner's piece.
  const auto [p, c] = GetParam();
  const Graph g = generate_erdos_renyi(200, 12.0, 32);
  const auto batches = make_batches(200, 8, 8);
  std::vector<index_t> ids = {0, 1, 2, 3, 4, 5, 6, 7};
  for (const std::vector<index_t>& fanouts :
       {std::vector<index_t>{16}, std::vector<index_t>{16, 12, 8}}) {
    const SamplerConfig cfg{fanouts, 1};
    PlanSampler local(g, build_ladies_plan(), cfg);
    const auto ref = local.sample_bulk(batches, ids, 77);
    for (const bool aware : {true, false}) {
      Cluster cluster = make_cluster(p, c);
      PartitionedSamplerOptions opts;
      opts.sparsity_aware = aware;
      PartitionedSamplerBase dist(g, cluster.grid(), build_ladies_plan(), cfg, opts);
      const auto per_row = dist.sample_bulk(cluster, batches, ids, 77);

      std::size_t seen = 0;
      bool unsorted_rows = false;
      for (const auto& row : per_row) {
        for (const auto& ms : row) {
          const auto& expect = ref[seen++];
          ASSERT_EQ(ms.layers.size(), expect.layers.size());
          for (std::size_t l = 0; l < ms.layers.size(); ++l) {
            EXPECT_TRUE(ms.layers[l].adj == expect.layers[l].adj)
                << fanouts.size() << " layers, " << (aware ? "aware" : "oblivious");
            EXPECT_EQ(ms.layers[l].col_vertices, expect.layers[l].col_vertices);
            const auto& rv = ms.layers[l].row_vertices;
            unsorted_rows = unsorted_rows || !std::is_sorted(rv.begin(), rv.end());
          }
        }
      }
      EXPECT_EQ(seen, ref.size());
      EXPECT_TRUE(unsorted_rows);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, PartitionedLadiesSweep,
                         ::testing::Values(GridParam{1, 1}, GridParam{2, 1},
                                           GridParam{4, 2}, GridParam{8, 2},
                                           GridParam{16, 4}));

TEST(PartitionedSage, RecordsAllThreePhases) {
  Cluster cluster = make_cluster(4, 2);
  const Graph g = generate_erdos_renyi(128, 8.0, 34);
  PartitionedSamplerBase dist(g, cluster.grid(), build_sage_plan(), {{3}, 1});
  const auto batches = make_batches(128, 4, 4);
  dist.sample_bulk(cluster, batches, {0, 1, 2, 3}, 9);
  EXPECT_GT(cluster.phase_time(kPhaseProbability), 0.0);
  EXPECT_GT(cluster.phase_time(kPhaseSampling), 0.0);
  EXPECT_GT(cluster.phase_time(kPhaseExtraction), 0.0);
}

TEST(PartitionedSage, SparsityObliviousSameSamples) {
  Cluster c1 = make_cluster(8, 2);
  Cluster c2 = make_cluster(8, 2);
  const Graph g = generate_erdos_renyi(128, 8.0, 35);
  PartitionedSamplerOptions aware;
  aware.sparsity_aware = true;
  PartitionedSamplerOptions oblivious;
  oblivious.sparsity_aware = false;
  PartitionedSamplerBase s1(g, c1.grid(), build_sage_plan(), {{4, 2}, 1}, aware);
  PartitionedSamplerBase s2(g, c2.grid(), build_sage_plan(), {{4, 2}, 1}, oblivious);
  const auto batches = make_batches(128, 8, 4);
  std::vector<index_t> ids = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto r1 = s1.sample_bulk(c1, batches, ids, 3);
  const auto r2 = s2.sample_bulk(c2, batches, ids, 3);
  for (std::size_t i = 0; i < r1.size(); ++i) {
    for (std::size_t b = 0; b < r1[i].size(); ++b) {
      for (std::size_t l = 0; l < r1[i][b].layers.size(); ++l) {
        EXPECT_TRUE(r1[i][b].layers[l].adj == r2[i][b].layers[l].adj);
      }
    }
  }
  // Oblivious ships more bytes.
  EXPECT_LT(c1.comm_stats().at(kPhaseProbability).bytes,
            c2.comm_stats().at(kPhaseProbability).bytes);
}

TEST(PartitionedSage, SamplesOnTheGlobalRanksOfALargerCluster) {
  // A sampler over a (2, 1) grid runs on global ranks 0-1 of a 4-rank
  // cluster: it records there, and its process rows live while ranks 0 and
  // 1 do, whatever happens to ranks 2-3. Edges join vertices at most two
  // ids apart, so batches drawn from [0, 40) never read block row 1
  // ([64, 128)) and survive its loss.
  CooMatrix coo(128, 128);
  for (index_t v = 0; v < 128; ++v) {
    for (const index_t d : {1, 2}) {
      if (v + d >= 128) continue;
      coo.push(v, v + d, 1.0);
      coo.push(v + d, v, 1.0);
    }
  }
  coo.sort_and_combine();
  const Graph g(CsrMatrix::from_coo(coo));
  const SamplerConfig cfg{{3, 2}, 1};
  const auto batches = make_batches(40, 6, 4);
  const std::vector<index_t> ids = {0, 1, 2, 3, 4, 5};
  const auto ref = PlanSampler(g, build_sage_plan(), cfg).sample_bulk(batches, ids, 5);
  PartitionedSamplerBase dist(g, ProcessGrid(2, 1), build_sage_plan(), cfg);

  struct Case {
    std::vector<CrashEvent> crashes;
    std::vector<std::size_t> per_row;  // batches each process row samples
  };
  for (const Case& c : {Case{{{2, 0}, {3, 0}}, {3, 3}}, Case{{{1, 0}, {2, 0}}, {6, 0}}}) {
    FaultPlanConfig fc;
    fc.crashes = c.crashes;
    const FaultPlan plan(fc);
    Cluster cluster = make_cluster(4, 2);
    cluster.install_faults(&plan);
    cluster.begin_superstep();
    const auto out = dist.sample_bulk(cluster, batches, ids, 5);
    ASSERT_EQ(out.size(), 2u);
    std::size_t seen = 0;
    for (std::size_t row = 0; row < out.size(); ++row) {
      EXPECT_EQ(out[row].size(), c.per_row[row]) << "row " << row;
      for (const MinibatchSample& ms : out[row]) {
        const MinibatchSample& expect = ref[seen++];
        ASSERT_EQ(ms.layers.size(), expect.layers.size());
        for (std::size_t l = 0; l < ms.layers.size(); ++l) {
          EXPECT_TRUE(ms.layers[l].adj == expect.layers[l].adj);
          EXPECT_EQ(ms.layers[l].col_vertices, expect.layers[l].col_vertices);
        }
      }
    }
    EXPECT_EQ(seen, ref.size());
    EXPECT_GT(cluster.phase_time(kPhaseProbability), 0.0);
    EXPECT_GT(cluster.phase_time(kPhaseSampling), 0.0);
  }
  // Row 1 makes requests while it is alive, and they land on the cluster.
  Cluster healthy = make_cluster(4, 2);
  dist.sample_bulk(healthy, batches, ids, 5);
  EXPECT_GT(healthy.comm_stats().at(kPhaseProbability).messages, 0u);

  // A grid with more ranks than the cluster is rejected.
  PartitionedSamplerBase wide(g, ProcessGrid(8, 2), build_sage_plan(), cfg);
  Cluster small = make_cluster(4, 2);
  EXPECT_THROW(wide.sample_bulk(small, batches, ids, 5), DmsError);
}

TEST(PartitionedSage, UnevenCrashSamplesEveryBatchOnItsTrainersRow) {
  // ProcessGrid(4, 2) with rank 2 = (0, 1) dead: row 0 keeps one replica,
  // row 1 two. A colocated round over two steps collects, per row and step
  // in column order, the batches its keepers train — two on row 0, four on
  // row 1, placed by the keeper rule. Given those counts, sample_bulk
  // samples every batch on its trainer's row, and the keeper its row's
  // collectives send the batch's results to is its trainer. The even split
  // of the alive rows (no counts) samples one of row 1's batches on row 0.
  const Graph g(testutil::random_csr(96, 96, 0.06, 31));
  const SamplerConfig cfg{{3, 2}, 1};
  const auto batches = make_batches(96, 6, 4);
  const std::vector<index_t> ids = {0, 1, 2, 3, 4, 5};
  const ProcessGrid grid(4, 2);
  PartitionedSamplerBase dist(g, grid, build_sage_plan(), cfg);
  const auto ref = PlanSampler(g, build_sage_plan(), cfg).sample_bulk(batches, ids, 5);

  FaultPlanConfig fc;
  fc.crashes = {{grid.rank_of(0, 1), 0}};
  const FaultPlan plan(fc);
  Cluster cluster = make_cluster(4, 2);
  cluster.install_faults(&plan);
  cluster.begin_superstep();

  std::vector<index_t> counts;
  std::vector<int> trainer;  // of each batch, in collection order
  for (int i = 0; i < grid.rows(); ++i) {
    const std::vector<int> keepers = row_keepers(cluster, grid, i);
    for (int step = 0; step < 2; ++step) {
      for (const int r : keepers) trainer.push_back(r);
    }
    counts.push_back(static_cast<index_t>(2 * keepers.size()));
  }
  ASSERT_EQ(counts, (std::vector<index_t>{2, 4}));

  const auto out = dist.sample_bulk(cluster, batches, ids, 5, counts);
  ASSERT_EQ(out.size(), 2u);
  std::size_t seen = 0;
  for (int i = 0; i < grid.rows(); ++i) {
    const std::vector<int> keepers = row_keepers(cluster, grid, i);
    const auto& row = out[static_cast<std::size_t>(i)];
    ASSERT_EQ(static_cast<index_t>(row.size()), counts[static_cast<std::size_t>(i)]);
    for (std::size_t q = 0; q < row.size(); ++q, ++seen) {
      EXPECT_EQ(grid.row_of(trainer[seen]), i) << "batch " << seen;
      EXPECT_EQ(batch_keeper(keepers, q), trainer[seen]) << "batch " << seen;
      EXPECT_EQ(row[q].layers.back().col_vertices, ref[seen].layers.back().col_vertices);
    }
  }
  EXPECT_EQ(seen, ids.size());
  EXPECT_EQ(dist.sample_bulk(cluster, batches, ids, 5).front().size(), 3u);

  // Counts that do not cover the round, or give a dead row work, throw.
  EXPECT_THROW(dist.sample_bulk(cluster, batches, ids, 5, std::vector<index_t>{2, 3}),
               DmsError);
  EXPECT_THROW(dist.sample_bulk(cluster, batches, ids, 5, std::vector<index_t>{6}),
               DmsError);
  FaultPlanConfig row0;
  row0.crashes = {{grid.rank_of(0, 0), 0}, {grid.rank_of(0, 1), 0}};
  const FaultPlan row0_plan(row0);
  Cluster row0_dead = make_cluster(4, 2);
  row0_dead.install_faults(&row0_plan);
  row0_dead.begin_superstep();
  EXPECT_THROW(dist.sample_bulk(row0_dead, batches, ids, 5, std::vector<index_t>{1, 5}),
               DmsError);
}

}  // namespace
}  // namespace dms
