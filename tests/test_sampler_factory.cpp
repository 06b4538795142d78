// Unified sampler factory: every (SamplerKind, DistMode) combination
// constructs and samples through the common MatrixSampler interface,
// seeding is deterministic, and every mode applies one fanout rule.
#include <gtest/gtest.h>

#include <algorithm>

#include "dist/sampler_factory.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

Graph test_graph() { return generate_erdos_renyi(120, 8.0, 41); }

// GraphSAINT and node2vec sample the induced vertex set of random walks
// instead of fixed-fanout neighbor layers, so the layer-wise invariants
// below don't apply to them (see DESIGN.md §11). PinSAGE is layer-wise —
// its walks only precompute the importance graph it samples from.
bool is_walk_kind(SamplerKind kind) {
  return kind == SamplerKind::kGraphSaint || kind == SamplerKind::kNode2Vec;
}

SamplerContext make_context(const ProcessGrid* grid = nullptr) {
  SamplerContext ctx;
  ctx.config = SamplerConfig{{4, 3}, /*seed=*/1};
  ctx.grid = grid;
  return ctx;
}

bool samples_equal(const MinibatchSample& a, const MinibatchSample& b) {
  if (a.batch_vertices != b.batch_vertices) return false;
  if (a.layers.size() != b.layers.size()) return false;
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    if (!(a.layers[l].adj == b.layers[l].adj)) return false;
    if (a.layers[l].col_vertices != b.layers[l].col_vertices) return false;
  }
  return true;
}

TEST(SamplerFactory, EveryRegisteredCombinationConstructsAndSamples) {
  const Graph g = test_graph();
  const ProcessGrid grid(4, 2);
  const std::vector<index_t> batch = {0, 1, 2, 3};
  for (const auto& [kind, mode] : testutil::every_kind_and_mode()) {
    SamplerContext ctx = make_context(&grid);
    const auto sampler = make_sampler(kind, mode, g, ctx);
    ASSERT_NE(sampler, nullptr) << to_string(kind) << "/" << to_string(mode);
    const MinibatchSample ms = sampler->sample_one(batch, 0, /*epoch_seed=*/11);
    if (is_walk_kind(kind)) {
      // Walk samplers run unit-fanout model layers over the walk-induced
      // vertex set; the batch roots are always part of that set.
      EXPECT_EQ(sampler->config().fanouts,
                std::vector<index_t>(ctx.config.fanouts.size(), 1));
      for (const index_t root : batch) {
        EXPECT_TRUE(std::binary_search(ms.batch_vertices.begin(),
                                       ms.batch_vertices.end(), root))
            << to_string(kind) << "/" << to_string(mode) << " root " << root;
      }
    } else {
      EXPECT_EQ(sampler->config().fanouts, ctx.config.fanouts);
      EXPECT_EQ(ms.batch_vertices, batch);
    }
    EXPECT_EQ(ms.layers.size(), ctx.config.fanouts.size())
        << to_string(kind) << "/" << to_string(mode);
    EXPECT_FALSE(ms.input_vertices().empty());
  }
}

TEST(SamplerFactory, SeedDeterminismPerCombination) {
  const Graph g = test_graph();
  const ProcessGrid grid(4, 2);
  const std::vector<std::vector<index_t>> batches = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  const std::vector<index_t> ids = {0, 1};
  for (const auto& [kind, mode] : testutil::every_kind_and_mode()) {
    const SamplerContext ctx = make_context(&grid);
    // Two samplers with identical SamplerConfig (incl. seed) sample
    // bit-identically; a different epoch seed changes the samples.
    const auto s1 = make_sampler(kind, mode, g, ctx);
    const auto s2 = make_sampler(kind, mode, g, ctx);
    const auto r1 = s1->sample_bulk(batches, ids, /*epoch_seed=*/21);
    const auto r2 = s2->sample_bulk(batches, ids, /*epoch_seed=*/21);
    ASSERT_EQ(r1.size(), r2.size());
    for (std::size_t i = 0; i < r1.size(); ++i) {
      EXPECT_TRUE(samples_equal(r1[i], r2[i]))
          << to_string(kind) << "/" << to_string(mode) << " batch " << i;
    }
    const auto r3 = s1->sample_bulk(batches, ids, /*epoch_seed=*/22);
    bool any_differs = false;
    for (std::size_t i = 0; i < r1.size(); ++i) {
      if (!samples_equal(r1[i], r3[i])) any_differs = true;
    }
    EXPECT_TRUE(any_differs) << to_string(kind) << "/" << to_string(mode);
  }
}

TEST(SamplerFactory, PartitionedMatchesReplicatedThroughCommonInterface) {
  // The determinism contract, observed through the factory surface alone.
  const Graph g = test_graph();
  const ProcessGrid grid(8, 2);
  const std::vector<std::vector<index_t>> batches = {{0, 1, 2}, {3, 4, 5}, {6, 7, 8}};
  const std::vector<index_t> ids = {0, 1, 2};
  for (const SamplerKind kind : kSamplerKinds) {
    SamplerContext ctx = make_context(&grid);
    const auto rep = make_sampler(kind, DistMode::kReplicated, g, ctx);
    const auto part = make_sampler(kind, DistMode::kPartitioned, g, ctx);
    const auto rr = rep->sample_bulk(batches, ids, 33);
    const auto rp = part->sample_bulk(batches, ids, 33);
    ASSERT_EQ(rr.size(), rp.size());
    for (std::size_t i = 0; i < rr.size(); ++i) {
      EXPECT_TRUE(samples_equal(rr[i], rp[i])) << to_string(kind) << " batch " << i;
    }
  }
}

TEST(SamplerFactory, EveryKindRegisteredInBothModes) {
  // The plan IR closed the historical gaps (partitioned FastGCN, LABOR):
  // every algorithm × execution mode is constructible, including the walk
  // kinds added with the walk engine — a PlanSampler replicated, its
  // partitioned form otherwise.
  const Graph g = test_graph();
  const ProcessGrid grid(4, 2);
  for (const auto& [kind, mode] : testutil::every_kind_and_mode()) {
    const auto sampler = make_sampler(kind, mode, g, make_context(&grid));
    EXPECT_NE(dynamic_cast<PlanSampler*>(sampler.get()), nullptr)
        << to_string(kind) << "/" << to_string(mode);
    EXPECT_EQ(dynamic_cast<PartitionedSamplerBase*>(sampler.get()) != nullptr,
              mode != DistMode::kReplicated)
        << to_string(kind) << "/" << to_string(mode);
  }
}

const PlanOp* find_op(const SamplePlan& plan, PlanOpKind kind) {
  const auto it = std::find_if(plan.body.begin(), plan.body.end(),
                               [kind](const PlanOp& op) { return op.kind == kind; });
  return it == plan.body.end() ? nullptr : &*it;
}

TEST(SamplerFactory, Node2VecIsSecondOrderOnlyWhenBiased) {
  // At the default p = q = 1 every bias factor is exactly 1.0, so node2vec
  // runs the first-order walk: no kWalkBias op, no prev slot, and
  // GraphSAINT's samples in every mode. A biased context keeps the op (run
  // fused as a kWalk holding p and q on the replicated path) and the slot.
  const Graph g = test_graph();
  const ProcessGrid grid(4, 2);
  const std::vector<std::vector<index_t>> batches = {{0, 1, 2}, {3, 4, 5}, {6, 7}};
  const std::vector<index_t> ids = {0, 1, 2};
  for (const DistMode mode : kDistModes) {
    SamplerContext ctx = make_context(&grid);
    const auto saint = make_sampler(SamplerKind::kGraphSaint, mode, g, ctx);
    const auto n2v = make_sampler(SamplerKind::kNode2Vec, mode, g, ctx);
    const SamplePlan& plan = dynamic_cast<PlanSampler&>(*n2v).plan();
    EXPECT_EQ(plan.name, "node2vec");
    EXPECT_EQ(plan.prev_slot, kNoSlot) << to_string(mode);
    EXPECT_EQ(find_op(plan, PlanOpKind::kWalkBias), nullptr) << to_string(mode);
    const auto rs = saint->sample_bulk(batches, ids, /*epoch_seed=*/5);
    const auto rn = n2v->sample_bulk(batches, ids, /*epoch_seed=*/5);
    ASSERT_EQ(rs.size(), rn.size());
    for (std::size_t i = 0; i < rs.size(); ++i) {
      EXPECT_TRUE(samples_equal(rs[i], rn[i])) << to_string(mode) << " batch " << i;
    }

    ctx.walk.p = 0.5;
    ctx.walk.q = 2.0;
    const auto biased = make_sampler(SamplerKind::kNode2Vec, mode, g, ctx);
    const SamplePlan& bplan = dynamic_cast<PlanSampler&>(*biased).plan();
    EXPECT_NE(bplan.prev_slot, kNoSlot) << to_string(mode);
    const PlanOp* bias = find_op(bplan, mode == DistMode::kReplicated
                                            ? PlanOpKind::kWalk
                                            : PlanOpKind::kWalkBias);
    ASSERT_NE(bias, nullptr) << to_string(mode);
    EXPECT_EQ(bias->bias_p, 0.5);
    EXPECT_EQ(bias->bias_q, 2.0);
  }
}

TEST(SamplerFactory, InvalidFanoutsRejectedInEveryMode) {
  // One fanout rule in every mode: non-empty, every entry > 0. Walk kinds
  // read only the layer count (DESIGN.md §11), so they are not listed.
  const Graph g = test_graph();
  const ProcessGrid grid(4, 2);
  const std::vector<std::vector<index_t>> bad_fanouts = {{}, {0}, {-1}, {4, -2}};
  for (const SamplerKind kind :
       {SamplerKind::kGraphSage, SamplerKind::kLadies, SamplerKind::kFastGcn,
        SamplerKind::kLabor, SamplerKind::kPinSage}) {
    for (const DistMode mode : kDistModes) {
      for (const auto& fanouts : bad_fanouts) {
        SamplerContext ctx = make_context(&grid);
        ctx.config.fanouts = fanouts;
        EXPECT_THROW(make_sampler(kind, mode, g, ctx), DmsError)
            << to_string(kind) << "/" << to_string(mode) << " with "
            << fanouts.size() << " fanouts";
      }
    }
  }
}

TEST(SamplerFactory, PartitionedModeRequiresGrid) {
  const Graph g = test_graph();
  SamplerContext ctx = make_context(/*grid=*/nullptr);
  EXPECT_THROW(
      make_sampler(SamplerKind::kGraphSage, DistMode::kPartitioned, g, ctx), DmsError);
}

TEST(SamplerFactory, AsPartitionedRejectsReplicatedSamplers) {
  const Graph g = test_graph();
  const auto rep = make_sampler(SamplerKind::kGraphSage, g, {{4}, 1});
  EXPECT_THROW(as_partitioned(*rep), DmsError);
  const ProcessGrid grid(4, 2);
  SamplerContext ctx = make_context(&grid);
  auto part = make_sampler(SamplerKind::kGraphSage, DistMode::kPartitioned, g, ctx);
  const PartitionedSamplerBase& pb = as_partitioned(*part);
  EXPECT_EQ(pb.grid().rows(), 2);
  EXPECT_EQ(pb.grid().replication(), 2);
  EXPECT_EQ(pb.dist_adjacency().rows(), g.num_vertices());
}

TEST(SamplerFactory, BoundClusterReceivesPhaseAccounting) {
  const Graph g = test_graph();
  Cluster cluster(ProcessGrid(4, 2), CostModel(LinkParams{}));
  SamplerContext ctx = make_context(&cluster.grid());
  ctx.cluster = &cluster;
  const auto part =
      make_sampler(SamplerKind::kGraphSage, DistMode::kPartitioned, g, ctx);
  part->sample_bulk({{0, 1, 2, 3}}, {0}, 7);
  EXPECT_GT(cluster.phase_time(kPhaseProbability), 0.0);
  EXPECT_GT(cluster.phase_time(kPhaseSampling), 0.0);
  EXPECT_GT(cluster.phase_time(kPhaseExtraction), 0.0);
}

}  // namespace
}  // namespace dms
