// The plan optimizer (DESIGN.md §12): the two rewrites per builtin plan
// (walk fusion to one kWalk op, the in-place adjacency draw) and the plans
// it leaves alone, optimized-vs-unoptimized bit identity, the partitioned
// runs that reject the replicated-only ops it emits, PlanCache sharing and
// keying, a cached plan run from concurrent samplers, and the --dump-plan
// diff surface.
#include <gtest/gtest.h>

#include <thread>

#include "core/fastgcn.hpp"
#include "core/plan_sampler.hpp"
#include "graph/generators.hpp"
#include "plan/builders.hpp"
#include "plan/executor.hpp"
#include "plan/optimize.hpp"
#include "test_util.hpp"

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

int count_adjacency_draws(const SamplePlan& p) {
  int n = 0;
  for (const PlanOp& op : p.body) {
    n += op.kind == PlanOpKind::kItsSample &&
         op.source == SampleSource::kAdjacencyRows;
  }
  return n;
}

/// Every builtin plan shape with the config it runs under: the layer-wise
/// plans read `layered`'s fanouts, the walk plans their unit-fanout adapter.
std::vector<std::pair<SamplePlan, SamplerConfig>> builtin_plans(
    const SamplerConfig& layered = kConfig) {
  const SamplerConfig walk_cfg = walk_adapter_config(2, layered.seed);
  return {{build_sage_plan(), layered},
          {build_ladies_plan(), layered},
          {build_fastgcn_plan(), layered},
          {build_labor_plan(), layered},
          {build_pinsage_plan(), layered},
          {build_saint_plan(3, 2), walk_cfg},
          {build_node2vec_plan(3, 2, 0.5, 2.0), walk_cfg}};
}

/// A weighted graph covering every branch of the in-place adjacency draw:
/// a hub (0, degree 40 ≫ s, a few zero weights), a row whose one 1e12
/// weight keeps every redraw on itself so the sweep completes the sample
/// (1, degree 6, drawn at s = 5), degree-1 rows (2 and the ring's odd
/// vertices), an all-zero-weight row (3), zero weights among positive ones
/// (4), a sink (5) and a row with degree <= s (6).
Graph weighted_draw_graph() {
  constexpr index_t n = 48;
  std::vector<index_t> rows, cols;
  std::vector<value_t> vals;
  const auto edge = [&](index_t r, index_t c, value_t w) {
    rows.push_back(r);
    cols.push_back(c);
    vals.push_back(w);
  };
  for (index_t c = 1; c <= 40; ++c) {
    edge(0, c, c % 9 == 0 ? 0.0 : 0.5 + 0.25 * static_cast<value_t>(c % 7));
  }
  for (index_t c = 2; c <= 7; ++c) edge(1, c, c == 4 ? 1e12 : 1.0);
  edge(2, 0, 2.5);
  for (const index_t c : {1, 4, 8}) edge(3, c, 0.0);
  edge(4, 0, 0.0);
  edge(4, 5, 1.5);
  edge(4, 9, 0.0);
  edge(4, 12, 3.0);
  edge(6, 0, 0.3);
  edge(6, 1, 0.2);
  edge(6, 2, 0.5);
  for (index_t v = 7; v < n; ++v) {
    edge(v, (v + 1) % n, 1.0 + static_cast<value_t>(v % 3));
    if (v % 2 == 0) edge(v, (v * 7 + 3) % n, 0.75);
  }
  return Graph(CsrMatrix::from_triplets(n, n, rows, cols, vals));
}

/// The rewrites emit ops that draw from a replicated adjacency: a
/// partitioned run of the optimized plan throws DmsError (partitioned
/// samplers run their plans as built).
void expect_partitioned_run_rejected(const SamplePlan& plan,
                                     const SamplerConfig& cfg) {
  const Graph g = generate_erdos_renyi(60, 5.0, 3);
  Cluster cluster(ProcessGrid(4, 2), CostModel(LinkParams{}));
  const DistBlockRowMatrix dadj(cluster.grid(), g.adjacency());
  const BlockPartition assign(2, cluster.grid().rows());
  const PlanExecutor optimized(plan, cfg);
  PlanRunState state;
  EXPECT_THROW(optimized.run_partitioned(cluster, dadj, assign, {{0, 1}, {2}},
                                         {0, 1}, 5, state, true),
               DmsError)
      << plan.name;
}

// --- fusion shapes ----------------------------------------------------------

TEST(PlanOptimize, SageDrawsFanoutFromAdjacencyInPlace) {
  // kBuildQ → kSpgemm → kNormalize → kItsSample becomes kBuildQ →
  // kItsSample over the adjacency rows: no product, no Q, and the sampling
  // op keeps its label.
  for (const SamplePlan& before : {build_sage_plan(), build_pinsage_plan()}) {
    const SamplePlan after = optimize(before);
    EXPECT_EQ(count_kind(after, PlanOpKind::kSpgemm), 0) << before.name;
    EXPECT_EQ(count_kind(after, PlanOpKind::kNormalize), 0) << before.name;
    ASSERT_EQ(before.body.size(), 5u) << before.name;
    ASSERT_EQ(after.body.size(), 3u) << before.name;
    const PlanOp& build = after.body[0];
    const PlanOp& its = after.body[1];
    EXPECT_EQ(build.kind, PlanOpKind::kBuildQ);
    EXPECT_EQ(build.out, kNoSlot) << before.name;  // the stack only
    EXPECT_EQ(build.out2, before.body[0].out2) << before.name;
    EXPECT_EQ(its.kind, PlanOpKind::kItsSample);
    EXPECT_EQ(its.label, "its_sample");
    EXPECT_EQ(its.source, SampleSource::kAdjacencyRows);
    EXPECT_EQ(its.in, kNoSlot);
    EXPECT_EQ(its.in2, build.out2);
    EXPECT_EQ(after.body[2].kind, PlanOpKind::kFrontierUnion);
  }
  // LABOR thins the product itself, LADIES builds indicator rows and
  // FastGCN samples global weights.
  for (const SamplePlan& p :
       {build_labor_plan(), build_ladies_plan(), build_fastgcn_plan()}) {
    EXPECT_EQ(count_adjacency_draws(optimize(p)), 0) << p.name;
  }
  EXPECT_EQ(count_kind(optimize(build_labor_plan()), PlanOpKind::kSpgemm), 1);
  // A third reader of the product slot observes P: no rewrite.
  SamplePlan shared = build_sage_plan();
  PlanOp again = shared.body[3];  // kItsSample over the product
  again.label = "its_sample_again";
  again.out = shared.add_slot();
  shared.body.insert(shared.body.begin() + 4, again);
  const SamplePlan kept = optimize(shared);
  EXPECT_EQ(count_kind(kept, PlanOpKind::kSpgemm), 1);
  EXPECT_EQ(count_adjacency_draws(kept), 0);
  // The source reads the stack (in2) and nothing else, and has no
  // partitioned form.
  SamplePlan bad = optimize(build_sage_plan());
  bad.body[1].in2 = kNoSlot;
  EXPECT_THROW(validate_plan(bad), DmsError);
  bad = optimize(build_sage_plan());
  bad.body[1].in = bad.body[0].out2;
  EXPECT_THROW(validate_plan(bad), DmsError);
  expect_partitioned_run_rejected(build_sage_plan(), kConfig);
}

TEST(PlanOptimize, OtherPlansOptimizeToThemselves) {
  // Neither rewrite applies to LABOR (it thins the product itself), LADIES
  // or FastGCN: optimize() returns them unchanged.
  for (const SamplePlan& p :
       {build_labor_plan(), build_ladies_plan(), build_fastgcn_plan()}) {
    EXPECT_EQ(plan_signature(optimize(p)), plan_signature(p)) << p.name;
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

TEST(PlanOptimize, WalkBodiesRewriteToOneWalkOp) {
  // A walk-shaped body becomes one kWalk op that runs every round in one
  // call; the plan keeps its slots and epilogue and runs one round.
  for (const SamplePlan& before :
       {build_saint_plan(3, 2), build_node2vec_plan(3, 2, 0.5, 2.0)}) {
    const SamplePlan after = optimize(before);
    ASSERT_EQ(after.body.size(), 1u) << before.name;
    const PlanOp& walk = after.body[0];
    EXPECT_EQ(walk.kind, PlanOpKind::kWalk);
    EXPECT_EQ(walk.label, "fused_walk");
    EXPECT_EQ(walk.walk_length, 3);
    EXPECT_EQ(walk.seed.layer_salt, before.body.end()[-2].seed.layer_salt);
    EXPECT_EQ(after.explicit_rounds, 1);
    EXPECT_EQ(after.prev_slot, before.prev_slot);
    EXPECT_EQ(after.epilogue.size(), before.epilogue.size());
  }
  const SamplePlan n2v = optimize(build_node2vec_plan(3, 2, 0.5, 2.0));
  EXPECT_EQ(n2v.body[0].bias_p, 0.5);
  EXPECT_EQ(n2v.body[0].bias_q, 2.0);
}

TEST(PlanOptimize, OnlyWalkShapedBodiesRewrite) {
  for (const SamplePlan& p :
       {build_sage_plan(), build_ladies_plan(), build_fastgcn_plan(),
        build_labor_plan(), build_pinsage_plan()}) {
    EXPECT_EQ(count_kind(optimize(p), PlanOpKind::kWalk), 0) << p.name;
  }
  // An epilogue op that reads the round number would see a different round
  // in the one-round rewritten plan: no rewrite.
  SamplePlan round_reader = build_saint_plan(3, 2);
  round_reader.epilogue.insert(round_reader.epilogue.begin(),
                               round_reader.body[3]);  // kItsSample
  EXPECT_EQ(count_kind(optimize(round_reader), PlanOpKind::kWalk), 0);
  // A body whose bias op does not match the plan's prev slot: no rewrite.
  SamplePlan unbiased = build_node2vec_plan(3, 2, 0.5, 2.0);
  unbiased.body.erase(unbiased.body.begin() + 2);  // drop kWalkBias
  EXPECT_EQ(count_kind(optimize(unbiased), PlanOpKind::kWalk), 0);
  // A fused walk has no partitioned form.
  expect_partitioned_run_rejected(build_saint_plan(3, 2),
                                  walk_adapter_config(2, kConfig.seed));
}

// --- bit identity -----------------------------------------------------------

TEST(PlanOptimize, OptimizedPlansBitIdenticalReplicated) {
  // A unit-weight graph under kConfig, and the weighted graph under fanouts
  // that draw its skewed row at s = d - 1 and include a fanout of 1.
  struct Input {
    Graph g;
    std::vector<std::vector<index_t>> batches;
    SamplerConfig layered;
  };
  const Graph er = generate_erdos_renyi(220, 9.0, 42);
  const std::vector<Input> inputs = {
      {er, small_batches(er.num_vertices()), kConfig},
      {weighted_draw_graph(),
       {{1, 0, 2}, {3, 4, 5, 6}, {1, 7, 20}, {5}, {30, 40, 1, 6}},
       SamplerConfig{{5, 1, 3}, 9}}};
  for (const Input& in : inputs) {
    const std::vector<value_t> prefix = fastgcn_importance_prefix(in.g);
    for (const auto& [plan, cfg] : builtin_plans(in.layered)) {
      const auto* weights = plan.needs_global_weights ? &prefix : nullptr;
      PlanExecutor plain(plan, cfg, {.optimize = false});
      PlanExecutor opt(plan, cfg);
      PlanRunState state_a, state_b;
      const auto ref = plain.run(in.g, in.batches, kIds, 0xfeed, state_a, weights);
      const auto got = opt.run(in.g, in.batches, kIds, 0xfeed, state_b, weights);
      ASSERT_EQ(got.size(), ref.size()) << plan.name;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_TRUE(samples_equal(got[i], ref[i]))
            << plan.name << " batch " << i << " on " << in.g.num_vertices()
            << " vertices";
      }
      EXPECT_EQ(state_a.walk_steps, state_b.walk_steps) << plan.name;
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
  // optimize() reads no fanout, so different fanouts share the entry too.
  PlanSampler s3(g, build_sage_plan(), SamplerConfig{{2, 2}, 9});
  EXPECT_EQ(PlanCache::global().stats().entries, 1u);
  EXPECT_EQ(&s1.plan(), &s3.plan());
}

TEST(PlanOptimize, PlanCacheKeysFloatFieldsExactly) {
  // q = 2.0 and 2.0000001 agree to six significant digits; the key must
  // still tell them apart, or the second sampler runs the first one's q.
  PlanCache::global().clear();
  const Graph g = generate_erdos_renyi(120, 6.0, 7);
  const SamplePlan a = build_node2vec_plan(4, 1, 0.5, 2.0);
  const SamplePlan b = build_node2vec_plan(4, 1, 0.5, 2.0000001);
  EXPECT_NE(plan_signature(a), plan_signature(b));
  PlanSampler sa(g, a, walk_adapter_config(1, 9));
  PlanSampler sb(g, b, walk_adapter_config(1, 9));
  EXPECT_NE(&sa.plan(), &sb.plan());
  ASSERT_EQ(sb.plan().body.size(), 1u);
  EXPECT_EQ(sb.plan().body[0].bias_q, 2.0000001);
  EXPECT_EQ(sa.plan().body[0].bias_q, 2.0);
}

// --- concurrency ------------------------------------------------------------

TEST(PlanOptimize, SharedPlanRunsConcurrently) {
  // The executor is immutable and every run mutates only its caller's
  // PlanRunState, so two samplers sharing one cached plan may sample at
  // the same time (the TSan CI job runs this suite with DMS_THREADS=4).
  const Graph g = generate_erdos_renyi(300, 8.0, 17);
  const auto batches = small_batches(g.num_vertices());
  constexpr int kEpochs = 4;
  const std::vector<std::pair<SamplePlan, SamplerConfig>> cases = {
      {build_sage_plan(), kConfig},
      {build_ladies_plan(), kConfig},
      {build_saint_plan(3, 2), walk_adapter_config(2, kConfig.seed)}};
  for (const auto& [plan, cfg] : cases) {
    PlanSampler serial(g, plan, cfg);
    std::vector<std::vector<MinibatchSample>> expect;
    for (int e = 0; e < kEpochs; ++e) {
      expect.push_back(
          serial.sample_bulk(batches, kIds, static_cast<std::uint64_t>(e)));
    }
    PlanSampler a(g, plan, cfg);
    PlanSampler b(g, plan, cfg);
    EXPECT_EQ(&a.plan(), &b.plan()) << plan.name;
    std::vector<std::vector<MinibatchSample>> got_a(kEpochs), got_b(kEpochs);
    auto epochs = [&](const PlanSampler& s,
                      std::vector<std::vector<MinibatchSample>>& out) {
      for (int e = 0; e < kEpochs; ++e) {
        out[static_cast<std::size_t>(e)] =
            s.sample_bulk(batches, kIds, static_cast<std::uint64_t>(e));
      }
    };
    std::thread ta([&] { epochs(a, got_a); });
    std::thread tb([&] { epochs(b, got_b); });
    ta.join();
    tb.join();
    for (int e = 0; e < kEpochs; ++e) {
      const auto& want = expect[static_cast<std::size_t>(e)];
      for (const auto* got : {&got_a[static_cast<std::size_t>(e)],
                              &got_b[static_cast<std::size_t>(e)]}) {
        ASSERT_EQ(got->size(), want.size()) << plan.name;
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_TRUE(samples_equal((*got)[i], want[i]))
              << plan.name << " epoch " << e << " batch " << i;
        }
      }
    }
  }
}

// --- describe_diff / --dump-plan surface ------------------------------------

TEST(PlanOptimize, DescribeDiffShowsFusions) {
  const SamplePlan before = build_sage_plan();
  const std::string diff = describe_diff(before, optimize(before));
  EXPECT_NE(diff.find("-   [body] spgemm 'spgemm'"), std::string::npos) << diff;
  EXPECT_NE(diff.find("-   [body] normalize 'normalize'"), std::string::npos) << diff;
  EXPECT_NE(diff.find("source=adjacency"), std::string::npos) << diff;
  const std::string walk =
      describe_diff(build_saint_plan(3, 2), optimize(build_saint_plan(3, 2)));
  EXPECT_NE(walk.find("+   [body] walk 'fused_walk'"), std::string::npos) << walk;
  EXPECT_NE(walk.find("-   [body] walk_advance"), std::string::npos) << walk;
  // Identical plans diff to all-unchanged lines.
  const std::string same = describe_diff(before, before);
  EXPECT_EQ(same.find("- "), std::string::npos);
  EXPECT_EQ(same.find("+ "), std::string::npos);
}

TEST(PlanOptimize, SignatureDistinguishesStampedPlans) {
  const SamplePlan before = build_sage_plan();
  const SamplePlan after = optimize(before);
  EXPECT_EQ(plan_signature(before), plan_signature(build_sage_plan()));
  EXPECT_NE(plan_signature(before), plan_signature(after));
}

}  // namespace
}  // namespace dms
