// The plan optimizer pass pipeline (DESIGN.md §12): fusion shapes per
// builtin plan, walk-plan shape preservation, dead-slot elimination,
// cost-model dispatch equivalence, optimized-vs-unoptimized bit identity in
// both execution modes, PlanCache sharing, and the --dump-plan diff surface.
#include <gtest/gtest.h>

#include "core/fastgcn.hpp"
#include "core/plan_sampler.hpp"
#include "graph/generators.hpp"
#include "plan/builders.hpp"
#include "plan/executor.hpp"
#include "plan/optimize.hpp"
#include "test_util.hpp"
#include "walk/walk_engine.hpp"

namespace dms {
namespace {

const SamplerConfig kConfig{{4, 3}, /*seed=*/9};
const std::vector<index_t> kIds = {0, 1, 2, 3, 4};

std::vector<std::vector<index_t>> small_batches(index_t n) {
  std::vector<std::vector<index_t>> batches(5);
  for (index_t i = 0; i < 5; ++i) {
    for (index_t j = 0; j < 8; ++j) {
      batches[static_cast<std::size_t>(i)].push_back((i * 37 + j * 11) % n);
    }
  }
  return batches;
}

bool samples_equal(const MinibatchSample& a, const MinibatchSample& b) {
  if (a.batch_vertices != b.batch_vertices) return false;
  if (a.layers.size() != b.layers.size()) return false;
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    if (!(a.layers[l].adj == b.layers[l].adj)) return false;
    if (a.layers[l].row_vertices != b.layers[l].row_vertices) return false;
    if (a.layers[l].col_vertices != b.layers[l].col_vertices) return false;
  }
  return true;
}

int count_kind(const SamplePlan& p, PlanOpKind kind) {
  int n = 0;
  for (const auto* ops : {&p.body, &p.epilogue}) {
    for (const PlanOp& op : *ops) n += op.kind == kind ? 1 : 0;
  }
  return n;
}

// --- fusion shapes ----------------------------------------------------------

TEST(PlanOptimize, SageFusesNormalizeIntoSpgemm) {
  const SamplePlan before = build_sage_plan();
  const SamplePlan after = optimize(before);
  EXPECT_EQ(count_kind(before, PlanOpKind::kNormalize), 1);
  EXPECT_EQ(count_kind(after, PlanOpKind::kNormalize), 0);
  ASSERT_EQ(after.body.size(), before.body.size() - 1);
  bool fused = false;
  for (const PlanOp& op : after.body) {
    if (op.kind == PlanOpKind::kSpgemm) {
      EXPECT_TRUE(op.fused_norm);
      EXPECT_EQ(op.norm, NormMode::kRow);
      fused = true;
    }
  }
  EXPECT_TRUE(fused);
}

TEST(PlanOptimize, LadiesFusesNormalizeAndSlice) {
  const SamplePlan before = build_ladies_plan();
  const SamplePlan after = optimize(before);
  // 7-op body drops to 5: normalize into the spgemm, slice into the
  // masked extraction.
  EXPECT_EQ(after.body.size(), before.body.size() - 2);
  EXPECT_EQ(count_kind(after, PlanOpKind::kNormalize), 0);
  EXPECT_EQ(count_kind(after, PlanOpKind::kSlice), 0);
  for (const PlanOp& op : after.body) {
    if (op.kind == PlanOpKind::kSpgemm) {
      EXPECT_TRUE(op.fused_norm);
      EXPECT_EQ(op.norm, NormMode::kLadies);
    }
    if (op.kind == PlanOpKind::kMaskedExtract) {
      EXPECT_TRUE(op.slice_fused);
      EXPECT_NE(op.out2, kNoSlot);
    }
  }
}

TEST(PlanOptimize, FastGcnHasNothingToFuse) {
  // FastGCN samples from global weights: no probability spgemm, no
  // normalize, no slice — the optimizer must leave the op sequence alone.
  const SamplePlan before = build_fastgcn_plan();
  const SamplePlan after = optimize(before);
  ASSERT_EQ(after.body.size(), before.body.size());
  for (std::size_t i = 0; i < before.body.size(); ++i) {
    EXPECT_EQ(after.body[i].kind, before.body[i].kind);
  }
}

TEST(PlanOptimize, LoweredPlansFuseToo) {
  const SamplePlan after = optimize(lower_to_dist(build_ladies_plan()));
  EXPECT_EQ(count_kind(after, PlanOpKind::kNormalize), 0);
  EXPECT_EQ(count_kind(after, PlanOpKind::kSlice), 0);
  for (const PlanOp& op : after.body) {
    if (op.kind == PlanOpKind::kSpgemm15d) {
      EXPECT_TRUE(op.fused_norm);
    }
    if (op.kind == PlanOpKind::kMaskedExtract15d) {
      EXPECT_TRUE(op.slice_fused);
    }
  }
}

TEST(PlanOptimize, WalkPlanShapePreserved) {
  // The fused walk engine matches the exact unfused op sequence; fusing
  // normalize into an unlowered walk plan would silently drop execution off
  // the ~100x path. The optimizer must keep the shape matchable.
  for (const SamplePlan& before :
       {build_saint_plan(3, 2), build_node2vec_plan(3, 2, 0.5, 2.0)}) {
    ASSERT_TRUE(match_walk_plan(before).matched) << before.name;
    const SamplePlan after = optimize(before);
    EXPECT_TRUE(match_walk_plan(after).matched) << before.name;
    EXPECT_EQ(count_kind(after, PlanOpKind::kNormalize), 1) << before.name;
  }
}

TEST(PlanOptimize, DeadSlotsEliminatedAndRenumbered) {
  SamplePlan p = build_sage_plan();
  p.add_slot();  // never referenced
  p.add_slot();
  const index_t padded = p.num_slots;
  const SamplePlan after = optimize(p);
  EXPECT_LT(after.num_slots, padded);
  // Renumbering stays dense: every op slot is within the new bound.
  for (const auto* ops : {&after.body, &after.epilogue}) {
    for (const PlanOp& op : *ops) {
      for (const SlotId s : {op.in, op.in2, op.out, op.out2}) {
        EXPECT_TRUE(s == kNoSlot || (s >= 0 && s < after.num_slots));
      }
    }
  }
  EXPECT_NO_THROW(validate_plan(after));
}

TEST(PlanOptimize, CostModelDefaultsMatchHistoricalThreshold) {
  // The historical dispatch was `4·flops >= out_cols ? dense : hash`
  // (ties dense). The default cost model must reproduce it exactly.
  const SpgemmCostModel cm{};
  const struct {
    nnz_t flops;
    index_t cols;
  } cases[] = {{25, 100}, {24, 100}, {26, 100}, {0, 1}, {1, 4}, {1, 5}};
  for (const auto& c : cases) {
    const SpgemmKernel expect = c.flops * 4 >= c.cols ? SpgemmKernel::kDense
                                                      : SpgemmKernel::kHash;
    EXPECT_EQ(cm.pick(c.flops, c.cols), expect)
        << c.flops << " flops, " << c.cols << " cols";
  }
  // A model that prices hash lower flips the decision.
  const SpgemmCostModel cheap_hash{1.0, 1.0, 0.5};
  EXPECT_EQ(cheap_hash.pick(25, 100), SpgemmKernel::kHash);
}

// --- bit identity -----------------------------------------------------------

TEST(PlanOptimize, OptimizedPlansBitIdenticalReplicated) {
  const Graph g = generate_erdos_renyi(220, 9.0, 42);
  const auto batches = small_batches(g.num_vertices());
  const std::vector<value_t> prefix = fastgcn_importance_prefix(g);
  for (const SamplePlan& plan :
       {build_sage_plan(), build_ladies_plan(), build_fastgcn_plan(),
        build_labor_plan()}) {
    const auto* weights = plan.needs_global_weights ? &prefix : nullptr;
    PlanExecutor plain(plan, kConfig, {.optimize = false});
    PlanExecutor opt(plan, kConfig);
    PlanRunState state_a, state_b;
    const auto ref = plain.run(g, batches, kIds, 0xfeed, state_a, weights);
    const auto got = opt.run(g, batches, kIds, 0xfeed, state_b, weights);
    ASSERT_EQ(got.size(), ref.size()) << plan.name;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_TRUE(samples_equal(got[i], ref[i]))
          << plan.name << " batch " << i;
    }
  }
}

TEST(PlanOptimize, OptimizedPlansBitIdenticalPartitioned) {
  const Graph g = generate_erdos_renyi(180, 10.0, 51);
  const auto batches = small_batches(g.num_vertices());
  const std::vector<value_t> prefix = fastgcn_importance_prefix(g);
  for (const SamplePlan& plan :
       {build_sage_plan(), build_ladies_plan(), build_fastgcn_plan(),
        build_labor_plan()}) {
    const auto* weights = plan.needs_global_weights ? &prefix : nullptr;
    const SamplePlan lowered = lower_to_dist(plan);
    PlanExecutor plain(lowered, kConfig, {.optimize = false});
    PlanExecutor opt(lowered, kConfig);
    Cluster ca(ProcessGrid(4, 2), CostModel(LinkParams{}));
    Cluster cb(ProcessGrid(4, 2), CostModel(LinkParams{}));
    const DistBlockRowMatrix da(ca.grid(), g.adjacency());
    const DistBlockRowMatrix db(cb.grid(), g.adjacency());
    const BlockPartition assign(static_cast<index_t>(batches.size()),
                                ca.grid().rows());
    PlanRunState state_a, state_b;
    const auto ref = plain.run_partitioned(ca, da, assign, batches, kIds,
                                           0xfeed, state_a, SpgemmOptions{},
                                           true, weights);
    const auto got = opt.run_partitioned(cb, db, assign, batches, kIds,
                                         0xfeed, state_b, SpgemmOptions{}, true,
                                         weights);
    ASSERT_EQ(got.size(), ref.size()) << plan.name;
    for (std::size_t r = 0; r < ref.size(); ++r) {
      ASSERT_EQ(got[r].size(), ref[r].size()) << plan.name;
      for (std::size_t i = 0; i < ref[r].size(); ++i) {
        EXPECT_TRUE(samples_equal(got[r][i], ref[r][i]))
            << plan.name << " row " << r << " batch " << i;
      }
    }
  }
}

// --- the plan cache ---------------------------------------------------------

TEST(PlanOptimize, PlanCacheSharesOneOptimizedPlan) {
  PlanCache::global().clear();
  const Graph g = generate_erdos_renyi(120, 6.0, 7);
  PlanSampler s1(g, build_sage_plan(), kConfig);
  const auto after_first = PlanCache::global().stats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_EQ(after_first.entries, 1u);
  PlanSampler s2(g, build_sage_plan(), kConfig);
  const auto after_second = PlanCache::global().stats();
  EXPECT_EQ(after_second.hits, 1u);
  EXPECT_EQ(after_second.entries, 1u);
  // Not just an equal plan — the same object.
  EXPECT_EQ(&s1.plan(), &s2.plan());
  // Different fanouts are a different key (round counts change sampling).
  PlanSampler s3(g, build_sage_plan(), SamplerConfig{{2, 2}, 9});
  EXPECT_EQ(PlanCache::global().stats().entries, 2u);
  EXPECT_NE(&s1.plan(), &s3.plan());
}

// --- describe_diff / --dump-plan surface ------------------------------------

TEST(PlanOptimize, DescribeDiffShowsFusions) {
  const SamplePlan before = build_ladies_plan();
  const std::string diff = describe_diff(before, optimize(before));
  EXPECT_NE(diff.find("- "), std::string::npos);
  EXPECT_NE(diff.find("+ "), std::string::npos);
  EXPECT_NE(diff.find("+norm(ladies)"), std::string::npos);
  EXPECT_NE(diff.find("+slice"), std::string::npos);
  // Identical plans diff to all-unchanged lines.
  const std::string same = describe_diff(before, before);
  EXPECT_EQ(same.find("- "), std::string::npos);
  EXPECT_EQ(same.find("+ "), std::string::npos);
}

TEST(PlanOptimize, SignatureDistinguishesStampedPlans) {
  const SamplePlan before = build_ladies_plan();
  const SamplePlan after = optimize(before);
  EXPECT_EQ(plan_signature(before), plan_signature(build_ladies_plan()));
  EXPECT_NE(plan_signature(before), plan_signature(after));
}

}  // namespace
}  // namespace dms
