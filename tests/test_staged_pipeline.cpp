// Determinism/accounting harness for Pipeline's staged, overlapped epoch
// executor (DESIGN.md §6): for every SamplerKind × DistMode the overlapped
// and synchronous paths must produce bit-identical per-epoch loss/accuracy
// (overlap changes only the simulated clock), caching must never change
// training, the cache accounting must cover every requested feature row
// exactly once, the EpochStats clock invariants must hold, and the modeled
// schedule must match golden digests.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <type_traits>

#include "graph/dataset.hpp"
#include "test_util.hpp"
#include "train/pipeline.hpp"

namespace dms {
namespace {

Dataset small_planted() {
  return make_planted_dataset(/*n=*/512, /*classes=*/4, /*f=*/8,
                              /*avg_degree=*/8.0, /*p_intra=*/0.85, /*seed=*/5);
}

PipelineConfig config_for(SamplerKind kind, DistMode mode) {
  PipelineConfig cfg;
  cfg.sampler = kind;
  cfg.mode = mode;
  cfg.batch_size = 32;
  cfg.fanouts = kind == SamplerKind::kGraphSage ? std::vector<index_t>{4, 4}
                                                : std::vector<index_t>{32};
  cfg.hidden = 16;
  cfg.lr = 5e-3f;
  return cfg;
}

std::vector<EpochStats> run_epochs(const Dataset& ds, PipelineConfig cfg,
                                   int epochs) {
  Cluster cluster(ProcessGrid(4, 2), CostModel(LinkParams{}));
  Pipeline pipe(cluster, ds, cfg);
  std::vector<EpochStats> out;
  for (int e = 0; e < epochs; ++e) out.push_back(pipe.run_epoch(e));
  return out;
}

TEST(StagedPipeline, OverlapMatchesSyncBitIdenticallyForEveryKindAndMode) {
  const Dataset ds = small_planted();
  for (const auto& [kind, mode] : testutil::every_kind_and_mode()) {
    PipelineConfig cfg = config_for(kind, mode);
    cfg.overlap = false;
    const auto sync = run_epochs(ds, cfg, 2);
    cfg.overlap = true;
    const auto ovl = run_epochs(ds, cfg, 2);
    ASSERT_EQ(sync.size(), ovl.size());
    for (std::size_t e = 0; e < sync.size(); ++e) {
      const std::string ctx = to_string(kind) + "/" + to_string(mode) +
                              " epoch " + std::to_string(e);
      EXPECT_EQ(sync[e].loss, ovl[e].loss) << ctx;
      EXPECT_EQ(sync[e].train_acc, ovl[e].train_acc) << ctx;
      EXPECT_EQ(sync[e].overlap_saved, 0.0) << ctx;
      EXPECT_EQ(sync[e].stall, 0.0) << ctx;
      testutil::expect_epoch_stats_consistent(sync[e]);
      testutil::expect_epoch_stats_consistent(ovl[e]);
    }
  }
}

TEST(StagedPipeline, BulkRoundsDoNotChangeLossesInEitherMode) {
  // Rounds are a prefetch/amortization knob; slicing the epoch into bulk
  // rounds must not change any sample (the determinism contract derives
  // randomness from global batch ids, never from the round layout).
  const Dataset ds = small_planted();
  for (const DistMode mode : {DistMode::kReplicated, DistMode::kPartitioned}) {
    PipelineConfig cfg = config_for(SamplerKind::kGraphSage, mode);
    cfg.bulk_k = 0;
    const double all_at_once = run_epochs(ds, cfg, 1)[0].loss;
    cfg.bulk_k = 8;
    const double small_rounds = run_epochs(ds, cfg, 1)[0].loss;
    EXPECT_DOUBLE_EQ(all_at_once, small_rounds) << to_string(mode);
  }
}

TEST(StagedPipeline, CachePoliciesDoNotChangeLosses) {
  // The cache only decides which rows cross the wire; the gathered features
  // are read from the canonical matrix either way.
  const Dataset ds = small_planted();
  PipelineConfig cfg = config_for(SamplerKind::kGraphSage, DistMode::kReplicated);
  const auto base = run_epochs(ds, cfg, 2);
  for (const CachePolicy policy : {CachePolicy::kLru, CachePolicy::kDegreePinned}) {
    cfg.feature_cache = {policy, 64};
    const auto cached = run_epochs(ds, cfg, 2);
    for (std::size_t e = 0; e < base.size(); ++e) {
      EXPECT_EQ(base[e].loss, cached[e].loss);
      EXPECT_EQ(base[e].train_acc, cached[e].train_acc);
      testutil::expect_epoch_stats_consistent(cached[e]);
    }
    // A 64-row cache on a 512-vertex graph must see real traffic reduction.
    EXPECT_GT(cached[1].cache_hits, 0u);
    EXPECT_LT(cached[1].fetch_bytes, base[1].fetch_bytes);
  }
}

TEST(StagedPipeline, CacheAccountingExactlyCoversRequestedRows) {
  const Dataset ds = small_planted();
  for (const auto& [kind, mode] : testutil::every_kind_and_mode()) {
    PipelineConfig cfg = config_for(kind, mode);
    cfg.feature_cache = {CachePolicy::kLru, 32};
    Cluster cluster(ProcessGrid(4, 2), CostModel(LinkParams{}));
    Pipeline pipe(cluster, ds, cfg);
    const EpochStats s = pipe.run_epoch(0);
    const FeatureCacheStats& total = pipe.features().cache_stats();
    // Every requested row is classified exactly once (hit, miss or local) —
    // both in the cumulative store accounting and the per-epoch stats.
    EXPECT_EQ(total.requested, total.hits + total.misses + total.local)
        << to_string(kind) << "/" << to_string(mode);
    EXPECT_EQ(total.requested, s.cache_hits + s.cache_misses + s.cache_local);
    EXPECT_GT(total.requested, 0u);
  }
}

TEST(StagedPipeline, OverlapHidesPrefetchableTime) {
  // Purely modeled comparison: an enormous compute_scale zeroes out the
  // host-measured kernel times, so both totals are deterministic functions
  // of launch overhead and link bytes — no wall-clock noise. Two single-step
  // bulk rounds: round 1's sampling overhead hides under round 0's unhidden
  // fetch, and the fetches themselves ride the slow links.
  const Dataset ds = small_planted();
  LinkParams link;
  link.launch_overhead = 5e-4;
  link.beta_inter = 1e-7;
  link.beta_intra = 1e-7;
  link.compute_scale = 1e12;
  link.irregular_compute_scale = 1e12;
  PipelineConfig cfg = config_for(SamplerKind::kGraphSage, DistMode::kReplicated);
  cfg.bulk_k = 4;

  cfg.overlap = false;
  Cluster c_sync(ProcessGrid(4, 1), CostModel(link));
  Pipeline sync(c_sync, ds, cfg);
  const EpochStats s_sync = sync.run_epoch(0);

  cfg.overlap = true;
  Cluster c_ovl(ProcessGrid(4, 1), CostModel(link));
  Pipeline ovl(c_ovl, ds, cfg);
  const EpochStats s_ovl = ovl.run_epoch(0);

  EXPECT_EQ(s_sync.loss, s_ovl.loss);
  EXPECT_GT(s_ovl.overlap_saved, 0.0);
  EXPECT_LT(s_ovl.total, s_sync.total);
  testutil::expect_epoch_stats_consistent(s_ovl);
}

// --- modeled-schedule golden digests -----------------------------------------
// FNV-1a digests of everything the executor puts on the simulated clock that
// does not depend on host timing: every comm phase's volume and modeled
// seconds, the cache and fetch counters, the fault retries, the compute-phase
// and plan-op key sets, per-rank memory and the checkpoint cursor. Host
// compute is zeroed (compute_scale = irregular_compute_scale = 1e12); losses,
// which depend on libm, are left to the equality tests above. The constants
// were captured from the standalone staged executor (commit fa61676); the
// schedule must reproduce them bit-for-bit at every thread count. The
// plan-op keys are the labels of the ops the optimized plan runs, so a new
// optimizer rewrite moves the digests of the plans it rewrites (the four
// replicated GraphSAGE ones were recaptured when "sage/spgemm" stopped
// running) and nothing else. The nine partitioned and disaggregated ones
// were recaptured when normalize fusion was deleted: their partitioned plans
// now run the kNormalize op, adding a "<plan>/normalize" key, and with the
// op keys left out of the digest all fourteen are unchanged. The three
// LADIES ones were recaptured when the 1.5D extraction started masking at
// the owner (masked_extract_15d ships A[R, S], not A[R, :]): only the
// "extraction" phase's bytes and seconds moved, plus, in the lossy case,
// the retried bytes and retry seconds of those smaller messages. With the
// extraction phase, retry_bytes and fault_retry left out of the digest,
// all fourteen equal the previous schedule's at DMS_THREADS 1 and 4. The
// six partitioned ones were recaptured when the 1.5D collectives stopped
// all-reducing their results across each process row and began sending
// each batch's result only to its keeper: the "probability" (and, for
// LADIES, "extraction") phases' bytes, messages and seconds moved, plus,
// in the crash case, the retried volume of those events and the rows that
// sample after the crash (each row now samples exactly the batches its
// own replicas train). With those two phases, retry_bytes,
// retry_messages and fault_retry left out, all fourteen equal the previous
// schedule's at DMS_THREADS 1 and 4.

struct Digest {
  std::uint64_t h = 14695981039346656037ULL;
  template <typename T>
  void add(T v) {
    static_assert(std::is_arithmetic_v<T>);
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof v; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  void add(const std::string& s) {
    for (const char ch : s) add(ch);
    add('|');
  }
};

void digest_clock(Digest& d, const Cluster& cluster) {
  for (const auto& [phase, cs] : cluster.comm_stats()) {
    d.add(phase);
    d.add(cs.bytes);
    d.add(cs.messages);
    d.add(cs.seconds);
  }
}

void digest_epoch(Digest& d, const Cluster& cluster, const EpochStats& s) {
  digest_clock(d, cluster);
  for (const std::size_t v :
       {s.cache_hits, s.cache_misses, s.cache_local, s.cache_pinned_hits,
        s.fetch_bytes, s.fetch_bytes_saved, s.retry_bytes, s.retry_messages,
        s.crashed_ranks}) {
    d.add(v);
  }
  d.add(s.fault_retry);
  for (const auto& [phase, sec] : s.compute_phases) d.add(phase);
  for (const auto& [op, sec] : s.sampler_ops) d.add(op);
}

struct ScheduleCase {
  std::string name;
  SamplerKind kind;
  DistMode mode;
  ProcessGrid grid;
  std::function<void(PipelineConfig&)> tweak;
  std::optional<FaultPlanConfig> faults;
  std::uint64_t golden;
};

std::uint64_t schedule_digest(const Dataset& ds, const ScheduleCase& c) {
  LinkParams link;
  link.compute_scale = 1e12;
  link.irregular_compute_scale = 1e12;
  Cluster cluster(c.grid, CostModel(link));
  const FaultPlan plan(c.faults.value_or(FaultPlanConfig{}));
  if (c.faults) cluster.install_faults(&plan);
  PipelineConfig cfg = config_for(c.kind, c.mode);
  cfg.batch_size = 16;  // 16 batches: several steps and rounds per epoch
  if (c.tweak) c.tweak(cfg);
  Pipeline pipe(cluster, ds, cfg);

  Digest d;
  for (int e = 0; e < 3; ++e) digest_epoch(d, cluster, pipe.run_epoch(e));
  const TrainCursor cursor = pipe.run_epoch_partial(3, 1);
  digest_clock(d, cluster);
  const FeatureCacheStats& cs = pipe.features().cache_stats();
  for (const std::size_t v : {cs.requested, cs.hits, cs.misses, cs.local,
                              cs.pinned_hits, cs.bytes_moved, cs.bytes_saved}) {
    d.add(v);
  }
  for (const index_t v : {cursor.next_round, cursor.total_rounds, cursor.seen}) {
    d.add(v);
  }
  digest_epoch(d, cluster, pipe.run_epoch_resumed(cursor));
  for (int r = 0; r < cluster.size(); ++r) d.add(pipe.per_rank_bytes(r));
  return d.h;
}

TEST(StagedPipeline, ModeledScheduleMatchesGoldenDigests) {
  const Dataset ds = small_planted();
  const auto cache = [](CachePolicy policy) {
    return [policy](PipelineConfig& cfg) { cfg.feature_cache = {policy, 64}; };
  };
  const auto rounds = [](index_t batch_size, index_t bulk_k) {
    return [=](PipelineConfig& cfg) {
      cfg.batch_size = batch_size;
      cfg.bulk_k = bulk_k;
    };
  };
  FaultPlanConfig lossy;
  lossy.seed = 3;
  lossy.loss_rate = 0.3;
  FaultPlanConfig replicated_crash;
  replicated_crash.crashes = {{3, 1}};
  FaultPlanConfig partitioned_crash;
  partitioned_crash.seed = 3;
  partitioned_crash.crashes = {{1, 2}};
  partitioned_crash.loss_rate = 0.05;
  partitioned_crash.straggler_rate = 0.1;

  const SamplerKind sage = SamplerKind::kGraphSage;
  const SamplerKind ladies = SamplerKind::kLadies;
  const DistMode rep = DistMode::kReplicated;
  const DistMode part = DistMode::kPartitioned;
  const DistMode disagg = DistMode::kDisaggregated;
  const std::vector<ScheduleCase> cases = {
      {"replicated overlap lru", sage, rep, ProcessGrid(4, 2),
       cache(CachePolicy::kLru), {}, 9968681302241369551ULL},
      {"replicated sync bulk_k", sage, rep, ProcessGrid(4, 2),
       [](PipelineConfig& cfg) {
         cfg.overlap = false;
         cfg.bulk_k = 8;
       },
       {}, 8369791932280854728ULL},
      {"partitioned sage lru", sage, part, ProcessGrid(4, 2),
       cache(CachePolicy::kLru), {}, 14846231448652204508ULL},
      {"partitioned ladies c=2", ladies, part, ProcessGrid(8, 2), nullptr, {},
       12400230332618988328ULL},
      {"partitioned ladies c=4 sync", ladies, part, ProcessGrid(8, 4),
       [](PipelineConfig& cfg) { cfg.overlap = false; }, {},
       7800100726097249891ULL},
      {"disaggregated sage", sage, disagg, ProcessGrid(4, 2), nullptr, {},
       4392399255570013066ULL},
      {"disaggregated sage 2 sampler rows lru", sage, disagg, ProcessGrid(8, 2),
       [](PipelineConfig& cfg) {
         cfg.bulk_k = 16;
         cfg.feature_cache = {CachePolicy::kLru, 64};
       },
       {}, 9768643156492414301ULL},
      {"disaggregated ladies lossy sync", ladies, disagg, ProcessGrid(4, 2),
       [](PipelineConfig& cfg) {
         cfg.overlap = false;
         cfg.disagg = {2, 1, 1};
       },
       lossy, 6811966700688946982ULL},
      {"replicated crash", sage, rep, ProcessGrid(4, 2), rounds(8, 8),
       replicated_crash, 9412019708010374162ULL},
      {"partitioned crash", sage, part, ProcessGrid(4, 2), rounds(8, 4),
       partitioned_crash, 12904449670232624685ULL},
      {"replicated presample", sage, rep, ProcessGrid(4, 2),
       cache(CachePolicy::kPreSample), {}, 17679230080528212190ULL},
      {"partitioned presample", sage, part, ProcessGrid(4, 2),
       cache(CachePolicy::kPreSample), {}, 6788546685131936679ULL},
      {"partitioned graphsaint", SamplerKind::kGraphSaint, part,
       ProcessGrid(4, 2), nullptr, {}, 11372191463232692438ULL},
      {"replicated node2vec sync pinned", SamplerKind::kNode2Vec, rep,
       ProcessGrid(4, 1),
       [](PipelineConfig& cfg) {
         cfg.overlap = false;
         cfg.bulk_k = 4;
         cfg.feature_cache = {CachePolicy::kDegreePinned, 64};
       },
       {}, 5561289271954343132ULL},
  };
  for (const ScheduleCase& c : cases) {
    EXPECT_EQ(schedule_digest(ds, c), c.golden) << c.name;
  }
}

}  // namespace
}  // namespace dms
