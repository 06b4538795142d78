// CachePolicy::kPreSample (DESIGN.md §14): the warmup-measured hotness cache
// pins a deterministic row set, never changes what training computes (losses
// bit-identical to uncached for every distribution mode, zero capacity
// degenerates exactly), bills its one-time warmup cost to the first epoch
// only, and its measured hotness matches or beats the degree proxy that
// kDegreePinned pins outright.
#include <gtest/gtest.h>

#include <vector>

#include "graph/dataset.hpp"
#include "test_util.hpp"
#include "train/pipeline.hpp"

namespace dms {
namespace {

Dataset small_planted() {
  return make_planted_dataset(/*n=*/512, /*classes=*/4, /*f=*/8,
                              /*avg_degree=*/8.0, /*p_intra=*/0.85, /*seed=*/5);
}

PipelineConfig cache_config(CachePolicy policy, index_t capacity) {
  PipelineConfig cfg;
  cfg.batch_size = 32;
  cfg.fanouts = {4, 4};
  cfg.hidden = 16;
  cfg.feature_cache = {policy, capacity};
  return cfg;
}

TEST(PreSample, PinnedSetIsDeterministicAndReplicatedAcrossRanks) {
  const Dataset ds = small_planted();
  const PipelineConfig cfg = cache_config(CachePolicy::kPreSample, 64);
  Cluster c1(ProcessGrid(4, 2), CostModel(LinkParams{}));
  Cluster c2(ProcessGrid(4, 2), CostModel(LinkParams{}));
  Pipeline p1(c1, ds, cfg);
  Pipeline p2(c2, ds, cfg);
  const std::vector<index_t> pinned = p1.features().cache(0).pinned_rows();
  ASSERT_EQ(pinned.size(), 64u);
  for (int r = 0; r < c1.size(); ++r) {
    // Same warmup, same admission: every rank of every identically-configured
    // pipeline pins the same rows.
    EXPECT_EQ(p1.features().cache(r).pinned_rows(), pinned) << "rank " << r;
    EXPECT_EQ(p2.features().cache(r).pinned_rows(), pinned) << "rank " << r;
  }
}

TEST(PreSample, LossesBitIdenticalToUncachedForEveryMode) {
  const Dataset ds = small_planted();
  for (const DistMode mode : {DistMode::kReplicated, DistMode::kPartitioned,
                              DistMode::kDisaggregated}) {
    Cluster c_none(ProcessGrid(4, 2), CostModel(LinkParams{}));
    Cluster c_pre(ProcessGrid(4, 2), CostModel(LinkParams{}));
    PipelineConfig cfg = cache_config(CachePolicy::kNone, 0);
    cfg.mode = mode;
    Pipeline uncached(c_none, ds, cfg);
    cfg.feature_cache = {CachePolicy::kPreSample, 64};
    Pipeline presample(c_pre, ds, cfg);
    for (int e = 0; e < 2; ++e) {
      const EpochStats a = uncached.run_epoch(e);
      const EpochStats b = presample.run_epoch(e);
      EXPECT_DOUBLE_EQ(a.loss, b.loss) << to_string(mode) << " epoch " << e;
      EXPECT_DOUBLE_EQ(a.train_acc, b.train_acc) << to_string(mode);
      testutil::expect_epoch_stats_consistent(b);
      // The cache saves fetch traffic; it never adds any.
      EXPECT_LE(b.fetch_bytes, a.fetch_bytes) << to_string(mode);
    }
  }
}

TEST(PreSample, ZeroCapacityIsBitEqualToUncached) {
  // Capacity 0 disables the policy entirely: no warmup pass, no warmup
  // billing, the same clock and the same bytes as a cacheless run.
  const Dataset ds = small_planted();
  Cluster c_none(ProcessGrid(4, 2), CostModel(LinkParams{}));
  Cluster c_zero(ProcessGrid(4, 2), CostModel(LinkParams{}));
  Pipeline none(c_none, ds, cache_config(CachePolicy::kNone, 0));
  Pipeline zero(c_zero, ds, cache_config(CachePolicy::kPreSample, 0));
  for (int e = 0; e < 2; ++e) {
    const EpochStats a = none.run_epoch(e);
    const EpochStats b = zero.run_epoch(e);
    EXPECT_DOUBLE_EQ(a.loss, b.loss);
    // Compute phases are host-timed (noisy across runs); the modeled comm
    // clock and the byte accounting are deterministic and must be bit-equal.
    EXPECT_DOUBLE_EQ(a.comm_phases.at("fetch"), b.comm_phases.at("fetch"));
    EXPECT_EQ(a.fetch_bytes, b.fetch_bytes);
    EXPECT_EQ(b.cache_hits, 0u);
    EXPECT_EQ(b.warmup, 0.0);
  }
}

TEST(PreSample, WarmupBilledToFirstEpochOnly) {
  const Dataset ds = small_planted();
  Cluster cluster(ProcessGrid(4, 2), CostModel(LinkParams{}));
  Pipeline pipe(cluster, ds, cache_config(CachePolicy::kPreSample, 64));
  const EpochStats first = pipe.run_epoch(0);
  EXPECT_GT(first.warmup, 0.0);
  testutil::expect_epoch_stats_consistent(first);
  const EpochStats second = pipe.run_epoch(1);
  EXPECT_EQ(second.warmup, 0.0);
  testutil::expect_epoch_stats_consistent(second);

  // Every other policy bills no warmup at all.
  Cluster c_deg(ProcessGrid(4, 2), CostModel(LinkParams{}));
  Pipeline deg(c_deg, ds, cache_config(CachePolicy::kDegreePinned, 64));
  EXPECT_EQ(deg.run_epoch(0).warmup, 0.0);
}

TEST(PreSample, WarmupIsOneRoundWithoutAHandoff) {
  // With host compute zeroed, construction leaves the warmup round on the
  // clock: one round's launch overhead under `sampling` (plus, distributed,
  // the collectives' modeled comm), and no handoff, because the warmup
  // ships touch counts, not samples. The first epoch bills that clock as
  // `warmup`.
  const Dataset ds = small_planted();
  LinkParams link;
  link.compute_scale = 1e12;
  link.irregular_compute_scale = 1e12;
  const PipelineConfig base = cache_config(CachePolicy::kPreSample, 64);
  const double launch = link.launch_overhead * kKernelsPerLayer *
                        static_cast<double>(base.fanouts.size());
  for (const DistMode mode : {DistMode::kReplicated, DistMode::kPartitioned,
                              DistMode::kDisaggregated}) {
    Cluster cluster(ProcessGrid(4, 2), CostModel(link));
    PipelineConfig cfg = base;
    cfg.mode = mode;
    Pipeline pipe(cluster, ds, cfg);
    const auto& compute = cluster.compute_time();
    const auto sampling = compute.find(kPhaseSampling);
    EXPECT_NEAR(sampling == compute.end() ? 0.0 : sampling->second, launch, 1e-9)
        << to_string(mode);
    EXPECT_EQ(cluster.compute_time().count("handoff"), 0u) << to_string(mode);
    EXPECT_EQ(cluster.comm_stats().count("handoff"), 0u) << to_string(mode);
    const double clock = cluster.total_compute() + cluster.total_comm();
    EXPECT_EQ(pipe.run_epoch(0).warmup, clock) << to_string(mode);
  }
}

TEST(PreSample, MeasuredHotnessMatchesOrBeatsDegreeProxy) {
  // Same capacity, same placement, same blocks: requested - local is
  // identical for the two pinned policies, so comparing raw hit counts
  // compares hit rates exactly (integer arithmetic, no fp tolerance).
  const Dataset ds = small_planted();
  Cluster c_deg(ProcessGrid(4, 2), CostModel(LinkParams{}));
  Cluster c_pre(ProcessGrid(4, 2), CostModel(LinkParams{}));
  Pipeline deg(c_deg, ds, cache_config(CachePolicy::kDegreePinned, 64));
  Pipeline pre(c_pre, ds, cache_config(CachePolicy::kPreSample, 64));
  std::size_t deg_hits = 0, pre_hits = 0;
  for (int e = 0; e < 2; ++e) {
    const EpochStats a = deg.run_epoch(e);
    const EpochStats b = pre.run_epoch(e);
    EXPECT_EQ(a.cache_hits + a.cache_misses, b.cache_hits + b.cache_misses);
    // Pinned-only policies admit nothing dynamically: every hit is a
    // pinned hit.
    EXPECT_EQ(a.cache_pinned_hits, a.cache_hits);
    EXPECT_EQ(b.cache_pinned_hits, b.cache_hits);
    deg_hits += a.cache_hits;
    pre_hits += b.cache_hits;
  }
  EXPECT_GE(pre_hits, deg_hits);
}

}  // namespace
}  // namespace dms
