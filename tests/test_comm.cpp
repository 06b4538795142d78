// Communication substrate: cost model formulas, process grid, cluster
// clock accounting and sub-grid views.
#include <gtest/gtest.h>

#include "comm/cluster.hpp"
#include "comm/costmodel.hpp"
#include "comm/grid.hpp"

namespace dms {
namespace {

LinkParams test_link() {
  LinkParams l;
  l.alpha = 1e-6;
  l.beta_intra = 1e-11;
  l.beta_inter = 4e-11;
  l.ranks_per_node = 4;
  return l;
}

TEST(CostModel, NodeMembership) {
  CostModel m(test_link());
  EXPECT_TRUE(m.same_node(0, 3));
  EXPECT_FALSE(m.same_node(3, 4));
  EXPECT_EQ(m.node_of(7), 1);
}

TEST(CostModel, P2pUsesCorrectBeta) {
  CostModel m(test_link());
  EXPECT_DOUBLE_EQ(m.p2p(0, 1, 1000), 1e-6 + 1000 * 1e-11);
  EXPECT_DOUBLE_EQ(m.p2p(0, 4, 1000), 1e-6 + 1000 * 4e-11);
}

TEST(CostModel, GroupBetaIsWorstLink) {
  CostModel m(test_link());
  EXPECT_DOUBLE_EQ(m.group_beta({0, 1, 2}), 1e-11);
  EXPECT_DOUBLE_EQ(m.group_beta({0, 1, 5}), 4e-11);
}

TEST(CostModel, BroadcastScalesLogarithmically) {
  CostModel m(test_link());
  const double t2 = m.broadcast({0, 1}, 1 << 20);
  const double t4 = m.broadcast({0, 1, 2, 3}, 1 << 20);
  EXPECT_NEAR(t4 / t2, 2.0, 1e-9);  // log2(4)/log2(2)
  EXPECT_DOUBLE_EQ(m.broadcast({0}, 1 << 20), 0.0);
}

TEST(CostModel, AllreduceApproachesTwiceBandwidth) {
  CostModel m(test_link());
  // Ring all-reduce moves ~2·bytes·(n-1)/n: grows with n but bounded by 2×.
  const std::size_t bytes = 100 << 20;
  const double t2 = m.allreduce({0, 1}, bytes);
  const double t4 = m.allreduce({0, 1, 2, 3}, bytes);
  EXPECT_GT(t4, t2);
  EXPECT_LT(t4, 2.0 * static_cast<double>(bytes) * 1e-11 + 1e-3);
}

TEST(CostModel, AlltoallvIsMaxOverRanks) {
  CostModel m(test_link());
  std::vector<std::vector<std::size_t>> bytes = {
      {0, 100, 100},
      {0, 0, 0},
      {1000000, 0, 0},
  };
  const double t = m.alltoallv({0, 1, 2}, bytes);
  // Rank 2 sends 1 MB intra-node: dominates.
  EXPECT_NEAR(t, 1e-6 + 1e6 * 1e-11, 1e-12);
}

TEST(ProcessGrid, RowColumnDecomposition) {
  // Column-major: a process column's p/c ranks are contiguous.
  ProcessGrid g(8, 2);
  EXPECT_EQ(g.rows(), 4);
  EXPECT_EQ(g.rank_of(2, 1), 6);
  EXPECT_EQ(g.row_of(6), 2);
  EXPECT_EQ(g.col_of(6), 1);
  EXPECT_EQ(g.row_ranks(1), (std::vector<int>{1, 5}));
  EXPECT_EQ(g.col_ranks(0), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(g.col_ranks(1), (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(g.all_ranks().size(), 8u);
}

TEST(ProcessGrid, RejectsNonDividingC) {
  EXPECT_THROW(ProcessGrid(6, 4), DmsError);
  EXPECT_THROW(ProcessGrid(0, 1), DmsError);
}

TEST(Cluster, ComputeScaleDividesMeasuredTime) {
  LinkParams l = test_link();
  l.compute_scale = 10.0;
  Cluster fast(ProcessGrid(1, 1), CostModel(l));
  Cluster slow(ProcessGrid(1, 1), CostModel(test_link()));
  fast.add_compute("x", 1.0);
  slow.add_compute("x", 1.0);
  EXPECT_NEAR(fast.compute_time().at("x") * 10.0, slow.compute_time().at("x"), 1e-12);
}

TEST(Cluster, CommAndOverheadAccounting) {
  Cluster cluster(ProcessGrid(2, 1), CostModel(test_link()));
  cluster.record_comm("fetch", 0.5, 1024, 3);
  cluster.record_comm("fetch", 0.25, 1024, 1);
  cluster.add_overhead("sampling", 0.1);
  EXPECT_DOUBLE_EQ(cluster.comm_stats().at("fetch").seconds, 0.75);
  EXPECT_EQ(cluster.comm_stats().at("fetch").bytes, 2048u);
  EXPECT_EQ(cluster.comm_stats().at("fetch").messages, 4u);
  EXPECT_DOUBLE_EQ(cluster.total_comm(), 0.75);
  EXPECT_DOUBLE_EQ(cluster.total_compute(), 0.1);
  EXPECT_DOUBLE_EQ(cluster.total_time(), 0.85);
  EXPECT_DOUBLE_EQ(cluster.phase_time("fetch"), 0.75);
  cluster.reset_clock();
  EXPECT_DOUBLE_EQ(cluster.total_time(), 0.0);
}

}  // namespace
}  // namespace dms
