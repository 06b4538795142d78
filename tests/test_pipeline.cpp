// End-to-end pipeline: epoch mechanics, phase accounting, bulk-k and
// sampler invariance, and learning on the planted dataset.
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

PipelineConfig small_config() {
  PipelineConfig cfg;
  cfg.batch_size = 32;
  cfg.fanouts = {4, 4};
  cfg.hidden = 16;
  cfg.lr = 5e-3f;
  return cfg;
}

TEST(Pipeline, ReplicatedEpochProducesAllPhases) {
  const Dataset ds = small_planted();
  Cluster cluster(ProcessGrid(4, 2), CostModel(LinkParams{}));
  Pipeline pipe(cluster, ds, small_config());
  const EpochStats stats = pipe.run_epoch(0);
  EXPECT_GT(stats.sampling, 0.0);
  EXPECT_GT(stats.fetch, 0.0);
  EXPECT_GT(stats.propagation, 0.0);
  EXPECT_NEAR(stats.total, cluster.total_time(), 1e-12);
  EXPECT_GT(stats.loss, 0.0);
  EXPECT_GE(stats.train_acc, 0.0);
  testutil::expect_epoch_stats_consistent(stats);
}

TEST(Pipeline, PartitionedEpochProducesBreakdownPhases) {
  const Dataset ds = small_planted();
  Cluster cluster(ProcessGrid(4, 2), CostModel(LinkParams{}));
  PipelineConfig cfg = small_config();
  cfg.mode = DistMode::kPartitioned;
  Pipeline pipe(cluster, ds, cfg);
  const EpochStats stats = pipe.run_epoch(0);
  EXPECT_GT(stats.compute_phases.at(kPhaseProbability), 0.0);
  EXPECT_GT(stats.compute_phases.at(kPhaseSampling), 0.0);
  EXPECT_GT(stats.compute_phases.at(kPhaseExtraction), 0.0);
  EXPECT_GT(stats.sampling, 0.0);
  testutil::expect_epoch_stats_consistent(stats);
}

TEST(Pipeline, LossDecreasesOverEpochs) {
  const Dataset ds = small_planted();
  Cluster cluster(ProcessGrid(2, 1), CostModel(LinkParams{}));
  Pipeline pipe(cluster, ds, small_config());
  const double first = pipe.run_epoch(0).loss;
  double last = first;
  for (int e = 1; e < 5; ++e) last = pipe.run_epoch(e).loss;
  EXPECT_LT(last, first * 0.9);
}

TEST(Pipeline, LearnsPlantedClassesAboveChance) {
  const Dataset ds = small_planted();
  Cluster cluster(ProcessGrid(2, 1), CostModel(LinkParams{}));
  PipelineConfig cfg = small_config();
  cfg.lr = 1e-2f;
  Pipeline pipe(cluster, ds, cfg);
  for (int e = 0; e < 8; ++e) pipe.run_epoch(e);
  const double acc = pipe.evaluate(ds.test_idx, {8, 8});
  EXPECT_GT(acc, 0.6) << "planted 4-class dataset should be well above 0.25 chance";
}

TEST(Pipeline, BulkKDoesNotChangeSamplesOrLoss) {
  // §4: bulk size is a performance knob; the samples (and thus training) are
  // identical for any k (verified here via loss equality).
  const Dataset ds = small_planted();
  PipelineConfig cfg = small_config();
  Cluster c1(ProcessGrid(2, 1), CostModel(LinkParams{}));
  cfg.bulk_k = 0;  // all at once
  Pipeline p1(c1, ds, cfg);
  const double l1 = p1.run_epoch(0).loss;

  Cluster c2(ProcessGrid(2, 1), CostModel(LinkParams{}));
  cfg.bulk_k = 2;  // one minibatch per rank per round
  Pipeline p2(c2, ds, cfg);
  const double l2 = p2.run_epoch(0).loss;
  EXPECT_DOUBLE_EQ(l1, l2);
}

TEST(Pipeline, SmallerBulkMeansMoreSamplingOverhead) {
  const Dataset ds = small_planted();
  PipelineConfig cfg = small_config();
  // Sync accounting: the overlapped executor slices k=all into prefetch
  // rounds, which would blur the single-bulk vs tiny-bulk overhead contrast.
  cfg.overlap = false;
  LinkParams link;
  link.launch_overhead = 1e-3;  // exaggerate to dominate measured noise
  Cluster c1(ProcessGrid(2, 1), CostModel(link));
  cfg.bulk_k = 0;
  Pipeline p1(c1, ds, cfg);
  const double bulk_sampling = p1.run_epoch(0).sampling;

  Cluster c2(ProcessGrid(2, 1), CostModel(link));
  cfg.bulk_k = 2;
  Pipeline p2(c2, ds, cfg);
  const double tiny_sampling = p2.run_epoch(0).sampling;
  EXPECT_GT(tiny_sampling, bulk_sampling);
}

TEST(Pipeline, LadiesModeRunsEndToEnd) {
  const Dataset ds = small_planted();
  Cluster cluster(ProcessGrid(2, 1), CostModel(LinkParams{}));
  PipelineConfig cfg;
  cfg.sampler = SamplerKind::kLadies;
  cfg.batch_size = 32;
  cfg.fanouts = {32};
  cfg.hidden = 16;
  Pipeline pipe(cluster, ds, cfg);
  const EpochStats stats = pipe.run_epoch(0);
  EXPECT_GT(stats.total, 0.0);
  EXPECT_GT(stats.loss, 0.0);
}

TEST(Pipeline, FastGcnModeRunsEndToEnd) {
  const Dataset ds = small_planted();
  Cluster cluster(ProcessGrid(2, 1), CostModel(LinkParams{}));
  PipelineConfig cfg;
  cfg.sampler = SamplerKind::kFastGcn;
  cfg.batch_size = 32;
  cfg.fanouts = {32};
  cfg.hidden = 16;
  Pipeline pipe(cluster, ds, cfg);
  EXPECT_GT(pipe.run_epoch(0).loss, 0.0);
}

TEST(Pipeline, PartitionedLadiesRunsEndToEnd) {
  const Dataset ds = small_planted();
  Cluster cluster(ProcessGrid(4, 2), CostModel(LinkParams{}));
  PipelineConfig cfg;
  cfg.sampler = SamplerKind::kLadies;
  cfg.mode = DistMode::kPartitioned;
  cfg.batch_size = 32;
  cfg.fanouts = {32};
  cfg.hidden = 16;
  Pipeline pipe(cluster, ds, cfg);
  EXPECT_GT(pipe.run_epoch(0).total, 0.0);
}

TEST(Pipeline, PartitionedFastGcnRunsEndToEnd) {
  // Historically rejected; the plan IR gave FastGCN its partitioned form
  // for free (row-local sampling; only the masked extraction runs as the
  // 1.5D collective).
  const Dataset ds = small_planted();
  Cluster cluster(ProcessGrid(2, 1), CostModel(LinkParams{}));
  PipelineConfig cfg;
  cfg.sampler = SamplerKind::kFastGcn;
  cfg.mode = DistMode::kPartitioned;
  cfg.fanouts = {8};
  Pipeline pipe(cluster, ds, cfg);
  EXPECT_GT(pipe.run_epoch(0).total, 0.0);
}

TEST(Pipeline, PartitionedLaborRunsEndToEnd) {
  const Dataset ds = small_planted();
  Cluster cluster(ProcessGrid(4, 2), CostModel(LinkParams{}));
  PipelineConfig cfg;
  cfg.sampler = SamplerKind::kLabor;
  cfg.mode = DistMode::kPartitioned;
  cfg.batch_size = 32;
  cfg.fanouts = {6, 4};
  cfg.hidden = 16;
  Pipeline pipe(cluster, ds, cfg);
  EXPECT_GT(pipe.run_epoch(0).total, 0.0);
}

TEST(Pipeline, PerRankBytesLargerWhenReplicated) {
  const Dataset ds = small_planted();
  Cluster c1(ProcessGrid(4, 1), CostModel(LinkParams{}));
  PipelineConfig cfg = small_config();
  Pipeline replicated(c1, ds, cfg);
  cfg.mode = DistMode::kPartitioned;
  Cluster c2(ProcessGrid(4, 1), CostModel(LinkParams{}));
  Pipeline partitioned(c2, ds, cfg);
  EXPECT_GT(replicated.per_rank_bytes(0), partitioned.per_rank_bytes(0));
}

TEST(Pipeline, EvaluateRejectsWrongDepth) {
  const Dataset ds = small_planted();
  Cluster cluster(ProcessGrid(1, 1), CostModel(LinkParams{}));
  Pipeline pipe(cluster, ds, small_config());
  EXPECT_THROW(pipe.evaluate(ds.val_idx, {8}), DmsError);
}

TEST(Pipeline, EvaluateScoresTheBatchForEveryKind) {
  // Walk samplers train on the induced set V_s ⊇ batch, so their logits
  // carry one row per visited vertex, not per batch vertex: evaluation must
  // score each row by its own vertex and count only the batch.
  const Dataset ds = small_planted();
  for (const SamplerKind kind : kSamplerKinds) {
    Cluster cluster(ProcessGrid(2, 1), CostModel(LinkParams{}));
    PipelineConfig cfg = small_config();
    cfg.sampler = kind;
    Pipeline pipe(cluster, ds, cfg);
    pipe.run_epoch(0);
    const double acc = pipe.evaluate(ds.test_idx, cfg.fanouts);
    EXPECT_GE(acc, 0.0) << to_string(kind);
    EXPECT_LE(acc, 1.0) << to_string(kind);
  }
}

}  // namespace
}  // namespace dms
