// The sampling-plan IR and executor (DESIGN.md §9): pre-refactor golden
// bit-identity for every sampler, replicated/partitioned parity for every
// SamplerKind × DistMode (partitioned samplers run the builder plans as
// built), plan validation errors, and the per-op accounting surface.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/plan_sampler.hpp"
#include "dist/sampler_factory.hpp"
#include "graph/generators.hpp"
#include "plan/builders.hpp"
#include "plan/executor.hpp"
#include "plan/optimize.hpp"  // plan_signature
#include "test_util.hpp"

namespace dms {
namespace {

// --- golden fixtures --------------------------------------------------------
// The hashes below were produced by the pre-IR hand-written samplers
// (commit 169feb5) on exactly these inputs; the plan executor must
// reproduce them bit-for-bit at every thread count (CI reruns this suite
// with DMS_THREADS 1 and 4).

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

template <typename T>
std::uint64_t fnv_vec(std::uint64_t h, const std::vector<T>& v) {
  h = fnv1a(h, v.data(), v.size() * sizeof(T));
  return fnv1a(h, "|", 1);
}

std::uint64_t hash_samples(const std::vector<MinibatchSample>& samples) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const auto& ms : samples) {
    h = fnv_vec(h, ms.batch_vertices);
    for (const auto& layer : ms.layers) {
      h = fnv_vec(h, layer.row_vertices);
      h = fnv_vec(h, layer.col_vertices);
      h = fnv_vec(h, layer.adj.rowptr());
      h = fnv_vec(h, layer.adj.colidx());
      h = fnv_vec(h, layer.adj.vals());
    }
  }
  return h;
}

Graph golden_graph() { return generate_erdos_renyi(220, 9.0, 42); }

std::vector<std::vector<index_t>> golden_batches(index_t n) {
  std::vector<std::vector<index_t>> batches(5);
  for (index_t i = 0; i < 5; ++i) {
    for (index_t j = 0; j < 8; ++j) {
      batches[static_cast<std::size_t>(i)].push_back((i * 37 + j * 11) % n);
    }
  }
  return batches;
}

const std::vector<index_t> kGoldenIds = {0, 1, 2, 3, 4};
constexpr std::uint64_t kGoldenEpoch = 0xabcdef12345ULL;
const SamplerConfig kGoldenConfig{{4, 3}, /*seed=*/9};

constexpr std::uint64_t kGoldenSage = 7870691245162309158ULL;
constexpr std::uint64_t kGoldenLadies = 9134896147463349938ULL;
constexpr std::uint64_t kGoldenFastGcn = 11136146592790071496ULL;
constexpr std::uint64_t kGoldenSaint = 11175461533758532319ULL;

TEST(PlanGolden, SageBitIdenticalToPreRefactorSampler) {
  const Graph g = golden_graph();
  PlanSampler s(g, build_sage_plan(), kGoldenConfig);
  EXPECT_EQ(hash_samples(s.sample_bulk(golden_batches(g.num_vertices()),
                                       kGoldenIds, kGoldenEpoch)),
            kGoldenSage);
}

TEST(PlanGolden, LadiesBitIdenticalToPreRefactorSampler) {
  const Graph g = golden_graph();
  PlanSampler s(g, build_ladies_plan(), kGoldenConfig);
  EXPECT_EQ(hash_samples(s.sample_bulk(golden_batches(g.num_vertices()),
                                       kGoldenIds, kGoldenEpoch)),
            kGoldenLadies);
}

TEST(PlanGolden, FastGcnBitIdenticalToPreRefactorSampler) {
  const Graph g = golden_graph();
  PlanSampler s(g, build_fastgcn_plan(), kGoldenConfig);
  EXPECT_EQ(hash_samples(s.sample_bulk(golden_batches(g.num_vertices()),
                                       kGoldenIds, kGoldenEpoch)),
            kGoldenFastGcn);
}

TEST(PlanGolden, SaintBitIdenticalToPreRefactorSampler) {
  const Graph g = golden_graph();
  PlanSampler s(g, build_saint_plan(/*walk_length=*/3, /*model_layers=*/2),
                walk_adapter_config(2, /*seed=*/1));
  EXPECT_EQ(hash_samples(s.sample_bulk(golden_batches(g.num_vertices()),
                                       kGoldenIds, kGoldenEpoch)),
            kGoldenSaint);
}

TEST(PlanGolden, PartitionedRunsReproduceTheSameGoldenHashes) {
  const Graph g = golden_graph();
  const ProcessGrid grid(4, 2);
  const auto batches = golden_batches(g.num_vertices());
  const std::vector<std::pair<SamplerKind, std::uint64_t>> expected = {
      {SamplerKind::kGraphSage, kGoldenSage},
      {SamplerKind::kLadies, kGoldenLadies},
      {SamplerKind::kFastGcn, kGoldenFastGcn},
  };
  for (const auto& [kind, golden] : expected) {
    SamplerContext ctx;
    ctx.config = kGoldenConfig;
    ctx.grid = &grid;
    const auto s = make_sampler(kind, DistMode::kPartitioned, g, ctx);
    EXPECT_EQ(hash_samples(s->sample_bulk(batches, kGoldenIds, kGoldenEpoch)),
              golden)
        << to_string(kind);
  }
}

TEST(PlanGolden, SaintPartitionedMatchesGolden) {
  // Walk plans run partitioned like every other plan: the probability
  // SpGEMM runs as the 1.5D collective, the row-local walk ops (and the
  // induced-subgraph epilogue, which fetches remote rows from their owner
  // blocks) run per process row — and reproduce the replicated golden hash.
  const Graph g = golden_graph();
  for (const auto& [p, c] :
       std::vector<std::pair<int, int>>{{2, 1}, {4, 2}}) {
    const ProcessGrid grid(p, c);
    PartitionedSamplerBase s(g, grid, build_saint_plan(3, 2),
                             walk_adapter_config(2, /*seed=*/1));
    EXPECT_EQ(hash_samples(s.sample_bulk(golden_batches(g.num_vertices()),
                                         kGoldenIds, kGoldenEpoch)),
              kGoldenSaint)
        << p << "/" << c;
  }
}

// --- SamplerKind × DistMode parity ------------------------------------------

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

TEST(PlanParity, EveryKindMatchesAcrossModesAndGrids) {
  const Graph g = generate_erdos_renyi(180, 10.0, 51);
  const auto batches = golden_batches(g.num_vertices());
  for (const SamplerKind kind :
       {SamplerKind::kGraphSage, SamplerKind::kLadies, SamplerKind::kFastGcn,
        SamplerKind::kLabor}) {
    SamplerContext rep_ctx;
    rep_ctx.config = kGoldenConfig;
    const auto rep = make_sampler(kind, DistMode::kReplicated, g, rep_ctx);
    const auto ref = rep->sample_bulk(batches, kGoldenIds, 99);
    for (const auto& [p, c] : std::vector<std::pair<int, int>>{
             {1, 1}, {2, 1}, {4, 2}, {8, 4}}) {
      const ProcessGrid grid(p, c);
      SamplerContext ctx;
      ctx.config = kGoldenConfig;
      ctx.grid = &grid;
      const auto part = make_sampler(kind, DistMode::kPartitioned, g, ctx);
      const auto got = part->sample_bulk(batches, kGoldenIds, 99);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_TRUE(samples_equal(got[i], ref[i]))
            << to_string(kind) << " grid " << p << "/" << c << " batch " << i;
      }
    }
  }
}

TEST(PlanParity, StackedFixedSeedTermMatchesAcrossModes) {
  // A custom plan whose stacked kItsSample seeds every row of a batch alike
  // (SeedRowTerm::kZero): the optimized replicated run (the in-place draw),
  // the plan as built, and partitioned runs agree bit for bit — and the
  // term does change the samples.
  const Graph g = generate_erdos_renyi(180, 10.0, 51);
  const auto batches = golden_batches(g.num_vertices());
  SamplePlan plan = build_sage_plan();
  plan.name = "sage_zero_row_term";
  ASSERT_EQ(plan.body[3].kind, PlanOpKind::kItsSample);
  plan.body[3].seed.row = SeedRowTerm::kZero;
  const auto ref =
      PlanSampler(g, plan, kGoldenConfig).sample_bulk(batches, kGoldenIds, 99);
  const auto as_built = PlanSampler(g, plan, kGoldenConfig, {.optimize = false})
                            .sample_bulk(batches, kGoldenIds, 99);
  const auto local_row = PlanSampler(g, build_sage_plan(), kGoldenConfig)
                             .sample_bulk(batches, kGoldenIds, 99);
  ASSERT_EQ(as_built.size(), ref.size());
  bool term_matters = false;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_TRUE(samples_equal(as_built[i], ref[i])) << "batch " << i;
    term_matters = term_matters || !samples_equal(local_row[i], ref[i]);
  }
  EXPECT_TRUE(term_matters);
  for (const auto& [p, c] : std::vector<std::pair<int, int>>{{2, 1}, {4, 2}}) {
    const PartitionedSamplerBase part(g, ProcessGrid(p, c), plan, kGoldenConfig);
    const auto got = part.sample_bulk(batches, kGoldenIds, 99);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_TRUE(samples_equal(got[i], ref[i]))
          << "grid " << p << "/" << c << " batch " << i;
    }
  }
}

TEST(PlanParity, PartitionedSamplersRunTheBuilderPlans) {
  // The mode belongs to the run: partitioned and disaggregated samplers run
  // their kind's builder plan exactly as built.
  const Graph g = generate_erdos_renyi(150, 8.0, 64);
  const ProcessGrid grid(4, 2);
  SamplerContext ctx;
  ctx.config = kGoldenConfig;
  ctx.grid = &grid;
  const WalkParams& w = ctx.walk;
  const index_t layers = ctx.config.num_layers();
  const std::vector<std::pair<SamplerKind, SamplePlan>> builders = {
      {SamplerKind::kGraphSage, build_sage_plan()},
      {SamplerKind::kLadies, build_ladies_plan()},
      {SamplerKind::kFastGcn, build_fastgcn_plan()},
      {SamplerKind::kLabor, build_labor_plan()},
      {SamplerKind::kGraphSaint, build_saint_plan(w.walk_length, layers)},
      {SamplerKind::kNode2Vec,
       build_node2vec_plan(w.walk_length, layers, w.p, w.q)},
      {SamplerKind::kPinSage, build_pinsage_plan()}};
  ASSERT_EQ(builders.size(), kSamplerKinds.size());
  for (const auto& [kind, built] : builders) {
    for (const DistMode mode : {DistMode::kPartitioned, DistMode::kDisaggregated}) {
      const auto s = make_sampler(kind, mode, g, ctx);
      EXPECT_EQ(plan_signature(as_partitioned(*s).plan()), plan_signature(built))
          << to_string(kind) << "/" << to_string(mode);
    }
  }
}

// --- plan validation --------------------------------------------------------

TEST(PlanValidate, UnboundSlotRejected) {
  SamplePlan p;
  p.name = "broken";
  p.frontier_slot = p.add_slot();
  const SlotId never_written = p.add_slot();
  const SlotId out = p.add_slot();
  PlanOp norm;
  norm.kind = PlanOpKind::kNormalize;
  norm.label = "normalize";
  norm.phase = kPhaseProbability;
  norm.in = never_written;
  (void)out;
  p.body.push_back(norm);
  try {
    validate_plan(p);
    FAIL() << "expected DmsError";
  } catch (const DmsError& e) {
    EXPECT_NE(std::string(e.what()).find("unbound slot"), std::string::npos)
        << e.what();
  }
}

TEST(PlanValidate, MissingOperandRejected) {
  SamplePlan p;
  p.name = "broken";
  p.frontier_slot = p.add_slot();
  PlanOp mul;
  mul.kind = PlanOpKind::kSpgemm;
  mul.label = "spgemm";
  mul.phase = kPhaseProbability;
  mul.in = p.frontier_slot;  // no out slot
  p.body.push_back(mul);
  try {
    validate_plan(p);
    FAIL() << "expected DmsError";
  } catch (const DmsError& e) {
    EXPECT_NE(std::string(e.what()).find("missing operand"), std::string::npos)
        << e.what();
  }
}

TEST(PlanValidate, BuildQOutputOptionalOnlyForStacks) {
  // kOnePerVertex needs only its stack (the in-place adjacency draw reads
  // nothing else); an indicator kBuildQ's Q is its only output.
  for (const QMode mode : {QMode::kOnePerVertex, QMode::kIndicator}) {
    SamplePlan p;
    p.name = "build_only";
    p.frontier_slot = p.add_slot();
    PlanOp build;
    build.kind = PlanOpKind::kBuildQ;
    build.label = "build_q";
    build.qmode = mode;
    build.in = p.frontier_slot;
    if (mode == QMode::kOnePerVertex) build.out2 = p.add_slot();
    p.body.push_back(build);
    if (mode == QMode::kOnePerVertex) {
      EXPECT_NO_THROW(validate_plan(p));
    } else {
      EXPECT_THROW(validate_plan(p), DmsError);
    }
  }
}

TEST(PlanValidate, SlotOutOfRangeRejected) {
  SamplePlan p;
  p.name = "broken";
  p.frontier_slot = p.add_slot();
  PlanOp norm;
  norm.kind = PlanOpKind::kNormalize;
  norm.label = "normalize";
  norm.phase = kPhaseProbability;
  norm.in = 17;  // never allocated
  p.body.push_back(norm);
  EXPECT_THROW(validate_plan(p), DmsError);
}

TEST(PlanValidate, BuiltinPlansValidate) {
  for (const SamplePlan& p :
       {build_sage_plan(), build_ladies_plan(), build_fastgcn_plan(),
        build_labor_plan(), build_saint_plan(3, 2),
        build_node2vec_plan(3, 2, 0.5, 2.0), build_pinsage_plan()}) {
    EXPECT_NO_THROW(validate_plan(p)) << p.name;
    EXPECT_FALSE(describe(p).empty());
  }
}

// --- executor type/shape errors --------------------------------------------

TEST(PlanExecute, TypeMismatchRejected) {
  // ITS over the frontier slot (per-batch lists, not a matrix).
  SamplePlan p;
  p.name = "type_broken";
  const SlotId frontier = p.frontier_slot = p.add_slot();
  const SlotId out = p.add_slot();
  PlanOp its;
  its.kind = PlanOpKind::kItsSample;
  its.label = "its";
  its.phase = kPhaseSampling;
  its.in = frontier;
  its.out = out;
  p.body.push_back(its);
  const Graph g(testutil::paper_example_adjacency());
  PlanExecutor exec(p, SamplerConfig{{2}, 1});
  PlanRunState state;
  try {
    exec.run(g, {{0, 1}}, {0}, 5, state);
    FAIL() << "expected DmsError";
  } catch (const DmsError& e) {
    EXPECT_NE(std::string(e.what()).find("type mismatch"), std::string::npos)
        << e.what();
  }
}

TEST(PlanExecute, BatchVertexOutOfRangeRejected) {
  const Graph g(testutil::paper_example_adjacency());  // 6 vertices
  PlanExecutor exec(build_sage_plan(), SamplerConfig{{2}, 1});
  PlanRunState state;
  EXPECT_THROW(exec.run(g, {{0, 99}}, {0}, 5, state), DmsError);
}

TEST(PlanExecute, ModeMismatchesRejected) {
  // The ops optimize() emits (the in-place adjacency draw, the fused walk)
  // read a replicated adjacency: a partitioned run of an optimized plan
  // fails at that op and names it. The builder's plans run in both modes.
  const Graph g(testutil::paper_example_adjacency());
  Cluster cluster(ProcessGrid(2, 1), CostModel(LinkParams{}));
  const DistBlockRowMatrix dadj(cluster.grid(), g.adjacency());
  const BlockPartition assign(1, cluster.grid().rows());
  const std::vector<std::tuple<SamplePlan, SamplerConfig, std::string>> cases = {
      {build_sage_plan(), SamplerConfig{{2}, 1}, "its_sample"},
      {build_saint_plan(3, 2), walk_adapter_config(2, 1), "fused_walk"}};
  for (const auto& [plan, cfg, op] : cases) {
    PlanRunState state;
    const PlanExecutor optimized(plan, cfg);
    try {
      optimized.run_partitioned(cluster, dadj, assign, {{0}}, {0}, 5, state, true);
      FAIL() << plan.name << ": expected DmsError";
    } catch (const DmsError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("op '" + op + "'"), std::string::npos) << what;
      EXPECT_NE(what.find("needs a replicated adjacency"), std::string::npos)
          << what;
    }
    const PlanExecutor as_built(plan, cfg, {.optimize = false});
    EXPECT_NO_THROW(as_built.run(g, {{0}}, {0}, 5, state)) << plan.name;
    EXPECT_NO_THROW(
        as_built.run_partitioned(cluster, dadj, assign, {{0}}, {0}, 5, state, true))
        << plan.name;
  }
}

TEST(PlanExecute, MissingGlobalWeightsRejected) {
  const Graph g(testutil::paper_example_adjacency());
  PlanExecutor exec(build_fastgcn_plan(), SamplerConfig{{2}, 1});
  PlanRunState state;
  EXPECT_THROW(exec.run(g, {{0}}, {0}, 5, state, /*global_weights=*/nullptr),
               DmsError);
}

// --- per-op accounting ------------------------------------------------------

TEST(PlanAccounting, OpBreakdownCoversEveryBodyOp) {
  const Graph g = generate_erdos_renyi(150, 8.0, 61);
  PlanSampler s(g, build_sage_plan(), kGoldenConfig);
  EXPECT_TRUE(s.op_time_breakdown().empty());
  s.sample_bulk(golden_batches(g.num_vertices()), kGoldenIds, 3);
  const auto breakdown = s.op_time_breakdown();
  for (const PlanOp& op : s.plan().body) {
    const auto it = breakdown.find(s.plan().name + "/" + op.label);
    ASSERT_NE(it, breakdown.end()) << op.label;
    EXPECT_GE(it->second, 0.0);
  }
}

TEST(PlanAccounting, OpKeysNameOpsOfThePlan) {
  // The executor interprets plan() and nothing else: every op-table key is
  // "<plan>/<label>" of an op describe(plan()) lists — fused walks included.
  const Graph g = generate_erdos_renyi(150, 8.0, 63);
  const ProcessGrid grid(4, 2);
  for (const auto& [kind, mode] : testutil::every_kind_and_mode()) {
    SamplerContext ctx;
    ctx.config = kGoldenConfig;
    ctx.grid = &grid;
    const auto sampler = make_sampler(kind, mode, g, ctx);
    const auto& ps = dynamic_cast<const PlanSampler&>(*sampler);
    sampler->sample_bulk(golden_batches(g.num_vertices()), kGoldenIds, 3);
    std::set<std::string> op_keys;
    for (const auto* ops : {&ps.plan().body, &ps.plan().epilogue}) {
      for (const PlanOp& op : *ops) op_keys.insert(ps.plan().name + "/" + op.label);
    }
    const auto breakdown = sampler->op_time_breakdown();
    EXPECT_FALSE(breakdown.empty()) << to_string(kind) << "/" << to_string(mode);
    for (const auto& [key, seconds] : breakdown) {
      EXPECT_EQ(op_keys.count(key), 1u)
          << to_string(kind) << "/" << to_string(mode) << ": " << key;
    }
  }
}

TEST(PlanAccounting, PartitionedClusterPhasesStillRecorded) {
  const Graph g = generate_erdos_renyi(150, 8.0, 62);
  Cluster cluster(ProcessGrid(4, 2), CostModel(LinkParams{}));
  PartitionedSamplerBase s(g, cluster.grid(), build_labor_plan(), kGoldenConfig);
  s.sample_bulk(cluster, golden_batches(g.num_vertices()), kGoldenIds, 3);
  EXPECT_GT(cluster.phase_time(kPhaseProbability), 0.0);
  EXPECT_GT(cluster.phase_time(kPhaseSampling), 0.0);
  EXPECT_GT(cluster.phase_time(kPhaseExtraction), 0.0);
  EXPECT_FALSE(s.op_time_breakdown().empty());
}

TEST(PlanAccounting, EpochStatsCarryPerOpBreakdown) {
  const Dataset ds = make_planted_dataset(/*n=*/256, /*classes=*/4, /*f=*/8,
                                          /*avg_degree=*/8.0, /*p_intra=*/0.85,
                                          /*seed=*/5);
  Cluster cluster(ProcessGrid(2, 1), CostModel(LinkParams{}));
  PipelineConfig cfg;
  cfg.sampler = SamplerKind::kGraphSage;
  cfg.fanouts = {4, 3};
  cfg.batch_size = 32;
  cfg.hidden = 16;
  Pipeline pipe(cluster, ds, cfg);
  const EpochStats stats = pipe.run_epoch(0);
  testutil::expect_epoch_stats_consistent(stats);
  EXPECT_FALSE(stats.sampler_ops.empty());
  double total = 0.0;
  for (const auto& [op, sec] : stats.sampler_ops) {
    EXPECT_GE(sec, 0.0) << op;
    total += sec;
  }
  EXPECT_GT(total, 0.0);
}

}  // namespace
}  // namespace dms
