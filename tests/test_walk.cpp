// Fused walk engine (DESIGN.md §11): the optimized plan's kWalk op must be
// bit-identical to the op-by-op matrix path — the same plan run with
// PlanExecOptions{.optimize = false} — for every graph shape (unit and
// varied edge weights, sinks) and walk sampler, and steady-state walk
// epochs must not grow the workspace arena.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/plan_sampler.hpp"
#include "dist/dist_sampler.hpp"
#include "graph/generators.hpp"
#include "plan/builders.hpp"
#include "plan/optimize.hpp"
#include "test_util.hpp"
#include "walk/walk_engine.hpp"

namespace dms {
namespace {

Graph er_graph() { return generate_erdos_renyi(300, 6.0, 7); }

Graph rmat_graph() {
  RmatParams params;
  params.scale = 10;
  params.edge_factor = 8.0;
  params.seed = 3;
  return generate_rmat(params);
}

/// Directed graph with sinks (3 and 9 have no out-edges), a 2-cycle (6/7),
/// and a chain feeding a sink — walks die at different rounds per walker.
Graph sink_graph() {
  return Graph(CsrMatrix::from_triplets(
      10, 10, {0, 0, 1, 2, 4, 5, 6, 7, 8}, {1, 4, 2, 3, 5, 3, 7, 6, 3},
      std::vector<value_t>(9, 1.0)));
}

/// Varied positive edge weights (every generator clamps values to 1.0, so
/// this is the graph that reaches the weighted pick paths), a sink (9), a
/// weighted degree-1 row (2), and triangles for the second-order bias.
Graph weighted_graph() {
  return Graph(CsrMatrix::from_triplets(
      12, 12,
      {0, 0, 0, 1, 1, 2, 3, 3, 3, 3, 4, 4, 4, 5, 5, 6, 6, 7, 7, 7, 8, 8, 10,
       10, 11, 11},
      {1, 2, 5, 0, 3, 4, 0, 1, 6, 9, 2, 5, 9, 0, 7, 3, 8, 5, 6, 10, 4, 11, 7,
       11, 8, 10},
      {0.5, 2.0, 1.25, 3.0, 0.75, 1.5, 0.2, 0.9, 2.6, 1.1, 0.6, 4.0, 0.35,
       1.75, 0.125, 2.25, 0.8, 3.5, 0.45, 1.0, 0.3, 5.0, 0.9, 2.2, 1.6, 0.7}));
}

/// {.optimize = false} gives the unfused matrix path.
PlanSampler saint_sampler(const Graph& g, index_t walk_length,
                          index_t model_layers, std::uint64_t seed,
                          PlanExecOptions opts = {}) {
  return PlanSampler(g, build_saint_plan(walk_length, model_layers),
                     walk_adapter_config(model_layers, seed), opts);
}

PlanSampler node2vec_sampler(const Graph& g, index_t walk_length,
                             index_t model_layers, value_t p, value_t q,
                             std::uint64_t seed, PlanExecOptions opts = {}) {
  return PlanSampler(g, build_node2vec_plan(walk_length, model_layers, p, q),
                     walk_adapter_config(model_layers, seed), opts);
}

bool runs_fused_walk(const PlanSampler& s) {
  return s.plan().body.size() == 1 && s.plan().body[0].kind == PlanOpKind::kWalk;
}

const std::vector<std::vector<index_t>> kBatches = {{0, 1, 2}, {3, 4}, {5, 6, 7}};
const std::vector<index_t> kIds = {0, 1, 2};

bool samples_equal(const std::vector<MinibatchSample>& a,
                   const std::vector<MinibatchSample>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].batch_vertices != b[i].batch_vertices) return false;
    if (a[i].layers.size() != b[i].layers.size()) return false;
    for (std::size_t l = 0; l < a[i].layers.size(); ++l) {
      if (!(a[i].layers[l].adj == b[i].layers[l].adj)) return false;
      if (a[i].layers[l].row_vertices != b[i].layers[l].row_vertices) return false;
      if (a[i].layers[l].col_vertices != b[i].layers[l].col_vertices) return false;
    }
  }
  return true;
}

// --- fused == matrix bit-identity ------------------------------------------

TEST(WalkEngine, FusedMatchesMatrixAcrossGraphs) {
  for (const Graph& g :
       {er_graph(), rmat_graph(), sink_graph(), weighted_graph()}) {
    PlanSampler fused = saint_sampler(g, /*walk_length=*/4, /*model_layers=*/2, 9);
    PlanSampler matrix = saint_sampler(g, /*walk_length=*/4, /*model_layers=*/2, 9,
                                       {.optimize = false});
    ASSERT_TRUE(runs_fused_walk(fused));
    ASSERT_FALSE(runs_fused_walk(matrix));
    for (std::uint64_t epoch : {0ull, 17ull}) {
      const auto rf = fused.sample_bulk(kBatches, kIds, epoch);
      const auto rm = matrix.sample_bulk(kBatches, kIds, epoch);
      EXPECT_TRUE(samples_equal(rf, rm))
          << g.num_vertices() << " vertices, epoch " << epoch;
    }
    // Both paths count the same surviving-walker steps (the edges/s
    // numerator of bench/micro_walk).
    EXPECT_GT(fused.walk_steps(), 0u);
    EXPECT_EQ(fused.walk_steps(), matrix.walk_steps());
  }
}

TEST(WalkEngine, SinkWalkersTerminate) {
  // All-sink graph: every walk dies in round one, so the induced subgraph
  // is exactly the roots with an empty adjacency — on both paths.
  const Graph g(CsrMatrix(4, 4));
  PlanSampler fused = saint_sampler(g, 3, 1, 2);
  PlanSampler matrix = saint_sampler(g, 3, 1, 2, {.optimize = false});
  const std::vector<std::vector<index_t>> batches = {{0, 1}, {2}};
  const auto rf = fused.sample_bulk(batches, {0, 1}, 1);
  const auto rm = matrix.sample_bulk(batches, {0, 1}, 1);
  EXPECT_TRUE(samples_equal(rf, rm));
  ASSERT_EQ(rf.size(), 2u);
  EXPECT_EQ(rf[0].batch_vertices, (std::vector<index_t>{0, 1}));
  EXPECT_EQ(rf[1].batch_vertices, (std::vector<index_t>{2}));
  ASSERT_EQ(rf[0].layers.size(), 1u);
  EXPECT_EQ(rf[0].layers[0].adj.nnz(), 0);
  EXPECT_EQ(fused.walk_steps(), 0u);
}

// --- node2vec ---------------------------------------------------------------

TEST(Node2Vec, UnityParametersReproduceSaint) {
  // p = q = 1 makes every bias factor exactly 1.0, so the builder emits the
  // saint_rw body under the node2vec name: no kWalkBias, no prev slot. A
  // hand-set unity kWalkBias still runs the second-order path, and its
  // walks are GraphSAINT's bit for bit (it shares saint_rw's layer salt) —
  // which is what lets the builder drop it.
  const Graph g = er_graph();
  const SamplePlan unity = build_node2vec_plan(3, 2, /*p=*/1.0, /*q=*/1.0);
  SamplePlan saint_body = build_saint_plan(3, 2);
  saint_body.name = "node2vec";
  EXPECT_EQ(plan_signature(unity), plan_signature(saint_body));
  EXPECT_EQ(unity.prev_slot, kNoSlot);
  SamplePlan unity_bias = build_node2vec_plan(3, 2, /*p=*/0.5, /*q=*/2.0);
  for (PlanOp& op : unity_bias.body) {
    if (op.kind != PlanOpKind::kWalkBias) continue;
    op.bias_p = 1.0;
    op.bias_q = 1.0;
  }
  PlanSampler saint = saint_sampler(g, 3, 2, 5);
  const auto expected = saint.sample_bulk(kBatches, kIds, 11);
  for (const bool fuse : {true, false}) {
    PlanSampler n2v = node2vec_sampler(g, 3, 2, /*p=*/1.0, /*q=*/1.0, 5,
                                       {.optimize = fuse});
    PlanSampler second_order(g, unity_bias, walk_adapter_config(2, 5),
                             {.optimize = fuse});
    EXPECT_TRUE(samples_equal(expected, n2v.sample_bulk(kBatches, kIds, 11)))
        << "fused=" << fuse;
    EXPECT_TRUE(
        samples_equal(expected, second_order.sample_bulk(kBatches, kIds, 11)))
        << "fused=" << fuse;
  }
}

TEST(Node2Vec, BiasedFusedMatchesMatrix) {
  for (const Graph& g : {er_graph(), rmat_graph(), weighted_graph()}) {
    PlanSampler fused = node2vec_sampler(g, 4, 1, /*p=*/0.25, /*q=*/4.0, 13);
    PlanSampler matrix = node2vec_sampler(g, 4, 1, /*p=*/0.25, /*q=*/4.0, 13,
                                          {.optimize = false});
    ASSERT_TRUE(runs_fused_walk(fused));
    EXPECT_TRUE(samples_equal(fused.sample_bulk(kBatches, kIds, 3),
                              matrix.sample_bulk(kBatches, kIds, 3)));
  }
}

TEST(Node2Vec, BiasFactor) {
  const std::vector<index_t> prev_row = {2, 5, 9};
  const std::span<const index_t> row(prev_row);
  // Returning to the previous vertex → 1/p.
  EXPECT_DOUBLE_EQ(node2vec_bias_factor(7, 7, row, 0.5, 4.0), 2.0);
  // A neighbor of the previous vertex → 1 (even if it is also in prev_row).
  EXPECT_DOUBLE_EQ(node2vec_bias_factor(5, 7, row, 0.5, 4.0), 1.0);
  // Anything else → 1/q.
  EXPECT_DOUBLE_EQ(node2vec_bias_factor(3, 7, row, 0.5, 4.0), 0.25);
  // p = q = 1 is exactly unbiased.
  EXPECT_DOUBLE_EQ(node2vec_bias_factor(3, 7, row, 1.0, 1.0), 1.0);
}

TEST(Node2Vec, PartitionedMatchesReplicatedBiased) {
  const Graph g = er_graph();
  const SamplePlan plan = build_node2vec_plan(3, 2, /*p=*/0.5, /*q=*/2.0);
  PlanSampler rep(g, plan, walk_adapter_config(2, 19));  // fused by default
  const ProcessGrid grid(4, 2);
  PartitionedSamplerBase part(g, grid, plan, walk_adapter_config(2, 19));
  EXPECT_TRUE(samples_equal(rep.sample_bulk(kBatches, kIds, 23),
                            part.sample_bulk(kBatches, kIds, 23)));
}

// --- steady-state workspace -------------------------------------------------

TEST(WalkWorkspace, SteadyStateEpochsDoNotGrowArena) {
  const Graph g = er_graph();
  for (const bool fuse : {true, false}) {
    PlanSampler saint = saint_sampler(g, 4, 2, 31, {.optimize = fuse});
    Workspace* ws = saint.scratch_workspace();
    // Two warm runs reach the arena's high-water mark for this epoch (the
    // list pool is LIFO, so one run can leave buffers in role-mismatched
    // slots); the frozen rerun of the same epoch must then allocate only
    // results. (Different epochs walk different frontiers, so their scratch
    // high-water marks legitimately differ.)
    (void)saint.sample_bulk(kBatches, kIds, 3);
    (void)saint.sample_bulk(kBatches, kIds, 3);
    ws->freeze();
    (void)saint.sample_bulk(kBatches, kIds, 3);
    ws->check_steady("test_walk saint epoch");
    EXPECT_EQ(ws->bytes_held(), ws->frozen_bytes()) << "fused=" << fuse;
    ws->thaw();
  }
  // The biased plan adds the prev slot and raw value scratch; same contract.
  PlanSampler n2v = node2vec_sampler(g, 4, 1, 0.5, 2.0, 31);
  Workspace* ws = n2v.scratch_workspace();
  (void)n2v.sample_bulk(kBatches, kIds, 3);
  (void)n2v.sample_bulk(kBatches, kIds, 3);
  ws->freeze();
  (void)n2v.sample_bulk(kBatches, kIds, 3);
  ws->check_steady("test_walk node2vec epoch");
  EXPECT_EQ(ws->bytes_held(), ws->frozen_bytes());
  ws->thaw();
}

}  // namespace
}  // namespace dms
