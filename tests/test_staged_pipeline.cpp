// Determinism/accounting harness for the staged overlapped executor
// (DESIGN.md §6): for every SamplerKind × DistMode the
// overlapped and synchronous paths must produce bit-identical per-epoch
// loss/accuracy (overlap changes only the simulated clock), caching must
// never change training, the cache accounting must cover every requested
// feature row exactly once, and the EpochStats clock invariants must hold.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace dms
