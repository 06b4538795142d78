// DistMode::kDisaggregated (DESIGN.md §14): sampler/trainer rank roles.
// Layout construction and validation, the bit-identity contract against
// kReplicated across sampler kinds and splits, the handoff comm phase,
// fault behavior (transient loss retries transparently, crashes are
// rejected; the sampler role shares the main cluster's fault plan), and
// checkpoint/resume mid-epoch.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "comm/faults.hpp"
#include "dist/disagg.hpp"
#include "graph/dataset.hpp"
#include "test_util.hpp"
#include "train/checkpoint.hpp"
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
  cfg.batch_size = 16;
  // Layer-wise multi-hop kinds sample per-layer fanouts; the subgraph kinds
  // (LADIES/FastGCN) take one layer-wide sample budget.
  cfg.fanouts =
      (kind == SamplerKind::kLadies || kind == SamplerKind::kFastGcn)
          ? std::vector<index_t>{32}
          : std::vector<index_t>{4, 4};
  cfg.hidden = 16;
  return cfg;
}

TEST(DisaggLayout, AutoSplitFollowsTheDocumentedDefaults) {
  const DisaggLayout l = make_disagg_layout(ProcessGrid(8, 2));
  EXPECT_EQ(l.total, 8);
  EXPECT_EQ(l.samplers, 2);  // auto: max(1, p/4)
  EXPECT_EQ(l.trainers, 6);
  EXPECT_EQ(l.sampler_grid.rows(), 2);
  EXPECT_EQ(l.sampler_grid.replication(), 1);  // auto c_s: 1
  EXPECT_EQ(l.trainer_grid.rows(), 3);
  EXPECT_EQ(l.trainer_grid.replication(), 2);  // largest divisor of 6 <= c
  // Global rank mapping: samplers first, then trainers.
  EXPECT_EQ(l.trainer_rank(0), 2);
  EXPECT_EQ(l.trainer_rank(5), 7);
  // Slots dealt in waves of t keep per-step trainer load balanced.
  EXPECT_EQ(l.trainer_of_slot(0), 0);
  EXPECT_EQ(l.trainer_of_slot(5), 5);
  EXPECT_EQ(l.trainer_of_slot(6), 0);

  const DisaggLayout tiny = make_disagg_layout(ProcessGrid(4, 2));
  EXPECT_EQ(tiny.samplers, 1);
  EXPECT_EQ(tiny.trainers, 3);
  EXPECT_EQ(tiny.trainer_grid.replication(), 1);  // 2 does not divide 3
}

TEST(DisaggLayout, RejectsInvalidSplits) {
  const ProcessGrid full(8, 2);
  DisaggOptions opts;
  opts.sampler_ranks = 8;  // s must leave at least one trainer
  EXPECT_THROW(make_disagg_layout(full, opts), DmsError);
  opts.sampler_ranks = 9;
  EXPECT_THROW(make_disagg_layout(full, opts), DmsError);
  opts.sampler_ranks = -3;  // negative is an error, not auto (0 is auto)
  EXPECT_THROW(make_disagg_layout(full, opts), DmsError);
  opts = {};
  opts.sampler_ranks = 2;
  opts.sampler_c = 3;  // c_s must divide s
  EXPECT_THROW(make_disagg_layout(full, opts), DmsError);
  opts = {};
  opts.sampler_ranks = 2;
  opts.trainer_c = 4;  // c_t must divide t = 6
  EXPECT_THROW(make_disagg_layout(full, opts), DmsError);
}

TEST(Disagg, LossesBitIdenticalToReplicatedForEverySamplerKind) {
  const Dataset ds = small_planted();
  for (const SamplerKind kind :
       {SamplerKind::kGraphSage, SamplerKind::kLadies, SamplerKind::kFastGcn,
        SamplerKind::kLabor, SamplerKind::kGraphSaint, SamplerKind::kNode2Vec,
        SamplerKind::kPinSage}) {
    Cluster c_rep(ProcessGrid(8, 2), CostModel(LinkParams{}));
    Cluster c_dis(ProcessGrid(8, 2), CostModel(LinkParams{}));
    Pipeline rep(c_rep, ds, config_for(kind, DistMode::kReplicated));
    Pipeline dis(c_dis, ds, config_for(kind, DistMode::kDisaggregated));
    for (int e = 0; e < 2; ++e) {
      const EpochStats a = rep.run_epoch(e);
      const EpochStats b = dis.run_epoch(e);
      EXPECT_DOUBLE_EQ(a.loss, b.loss) << to_string(kind) << " epoch " << e;
      EXPECT_DOUBLE_EQ(a.train_acc, b.train_acc) << to_string(kind);
      testutil::expect_epoch_stats_consistent(b);
    }
  }
}

TEST(Disagg, ExplicitSplitPreservesBitIdentity) {
  const Dataset ds = small_planted();
  Cluster c_rep(ProcessGrid(8, 2), CostModel(LinkParams{}));
  Cluster c_dis(ProcessGrid(8, 2), CostModel(LinkParams{}));
  Pipeline rep(c_rep, ds, config_for(SamplerKind::kGraphSage,
                                     DistMode::kReplicated));
  PipelineConfig cfg = config_for(SamplerKind::kGraphSage,
                                  DistMode::kDisaggregated);
  cfg.disagg.sampler_ranks = 4;  // an even split, far from the auto default
  cfg.disagg.sampler_c = 2;
  cfg.disagg.trainer_c = 2;
  Pipeline dis(c_dis, ds, cfg);
  for (int e = 0; e < 2; ++e) {
    EXPECT_DOUBLE_EQ(rep.run_epoch(e).loss, dis.run_epoch(e).loss)
        << "epoch " << e;
  }
}

TEST(Disagg, HandoffPhaseIsRecorded) {
  const Dataset ds = small_planted();
  Cluster c_rep(ProcessGrid(8, 2), CostModel(LinkParams{}));
  Cluster c_dis(ProcessGrid(8, 2), CostModel(LinkParams{}));
  Pipeline rep(c_rep, ds, config_for(SamplerKind::kGraphSage,
                                     DistMode::kReplicated));
  Pipeline dis(c_dis, ds, config_for(SamplerKind::kGraphSage,
                                     DistMode::kDisaggregated));
  const EpochStats a = rep.run_epoch(0);
  const EpochStats b = dis.run_epoch(0);
  ASSERT_TRUE(b.comm_phases.count("handoff"));
  EXPECT_GT(b.comm_phases.at("handoff"), 0.0);
  EXPECT_FALSE(a.comm_phases.count("handoff"));
}

TEST(Disagg, TransientLossRetriesWithoutChangingLosses) {
  // The sampler -> trainer handoff goes through Cluster::record_comm, so a
  // lossy transport retries it (and every other message) transparently: the
  // clock pays for retransmits + backoff, the arithmetic never changes.
  const Dataset ds = small_planted();
  const PipelineConfig cfg =
      config_for(SamplerKind::kGraphSage, DistMode::kDisaggregated);
  Cluster healthy(ProcessGrid(8, 2), CostModel(LinkParams{}));
  Cluster lossy(ProcessGrid(8, 2), CostModel(LinkParams{}));
  FaultPlanConfig fc;
  fc.seed = 17;
  fc.loss_rate = 0.4;  // high enough that some comm event certainly loses
  const FaultPlan plan(fc);
  lossy.install_faults(&plan);
  Pipeline p_healthy(healthy, ds, cfg);
  Pipeline p_lossy(lossy, ds, cfg);
  for (int e = 0; e < 2; ++e) {
    const EpochStats a = p_healthy.run_epoch(e);
    const EpochStats b = p_lossy.run_epoch(e);
    EXPECT_DOUBLE_EQ(a.loss, b.loss) << "epoch " << e;
    EXPECT_GT(b.retry_messages, 0u);
    EXPECT_GT(b.fault_retry, 0.0);
    testutil::expect_epoch_stats_consistent(b);
  }
}

TEST(Disagg, SamplerRoleSeesTheFaultPlan) {
  // The sampler role records through a sub-grid view of the main cluster,
  // so the installed FaultPlan reaches its messages too: under loss the
  // probability phase retries, the epoch's retry_messages counts those
  // retries along with every other phase's, and the arithmetic is unchanged.
  const Dataset ds = small_planted();
  const PipelineConfig cfg =
      config_for(SamplerKind::kGraphSage, DistMode::kDisaggregated);
  Cluster healthy(ProcessGrid(8, 2), CostModel(LinkParams{}));
  Cluster lossy(ProcessGrid(8, 2), CostModel(LinkParams{}));
  FaultPlanConfig fc;
  fc.seed = 17;
  fc.loss_rate = 0.4;
  const FaultPlan plan(fc);
  lossy.install_faults(&plan);
  Pipeline p_healthy(healthy, ds, cfg);
  Pipeline p_lossy(lossy, ds, cfg);
  const EpochStats a = p_healthy.run_epoch(0);
  const EpochStats b = p_lossy.run_epoch(0);
  EXPECT_DOUBLE_EQ(a.loss, b.loss);

  ASSERT_TRUE(healthy.comm_stats().count(kPhaseProbability));
  ASSERT_TRUE(lossy.comm_stats().count(kPhaseProbability));
  EXPECT_GT(lossy.comm_stats().at(kPhaseProbability).messages,
            healthy.comm_stats().at(kPhaseProbability).messages);
  // Both runs send the same first attempts, so every extra message in the
  // lossy tables is a retry that the epoch's fault accounting must count.
  std::size_t healthy_msgs = 0, lossy_msgs = 0;
  for (const auto& [phase, s] : healthy.comm_stats()) healthy_msgs += s.messages;
  for (const auto& [phase, s] : lossy.comm_stats()) lossy_msgs += s.messages;
  EXPECT_EQ(b.retry_messages, lossy_msgs - healthy_msgs);
  EXPECT_EQ(a.retry_messages, 0u);
}

TEST(Disagg, RankCrashIsRejectedNotSilentlyWrong) {
  // Crash recovery redistributes work over survivors in the colocated
  // modes; the disaggregated schedule does not support it yet, and a crash
  // must fail loudly instead of training a diverged schedule.
  const Dataset ds = small_planted();
  Cluster cluster(ProcessGrid(8, 2), CostModel(LinkParams{}));
  FaultPlanConfig fc;
  fc.crashes = {{/*rank=*/5, /*superstep=*/1}};
  const FaultPlan plan(fc);
  cluster.install_faults(&plan);
  Pipeline pipe(cluster, ds,
                config_for(SamplerKind::kGraphSage, DistMode::kDisaggregated));
  EXPECT_THROW(
      {
        for (int e = 0; e < 4; ++e) pipe.run_epoch(e);
      },
      DmsError);
}

TEST(Disagg, CheckpointResumeMidEpochIsBitIdentical) {
  const Dataset ds = small_planted();
  PipelineConfig cfg =
      config_for(SamplerKind::kGraphSage, DistMode::kDisaggregated);
  cfg.batch_size = 8;  // 256 train vertices -> 32 batches
  cfg.bulk_k = 8;      // -> 4 bulk rounds: stopping at 2 bisects the epoch
  Cluster c_ref(ProcessGrid(8, 2), CostModel(LinkParams{}));
  Pipeline ref(c_ref, ds, cfg);
  const double uninterrupted = ref.run_epoch(0).loss;

  const std::string path = ::testing::TempDir() +
                           std::to_string(::getpid()) + "_disagg_ckpt.bin";
  Cluster c_a(ProcessGrid(8, 2), CostModel(LinkParams{}));
  Pipeline a(c_a, ds, cfg);
  const TrainCursor cursor = a.run_epoch_partial(0, /*stop_round=*/2);
  ASSERT_FALSE(cursor.finished());
  save_checkpoint(a, cursor, path);

  Cluster c_b(ProcessGrid(8, 2), CostModel(LinkParams{}));
  Pipeline b(c_b, ds, cfg);
  const TrainCursor restored = load_checkpoint(b, path);
  const EpochStats resumed = b.run_epoch_resumed(restored);
  std::remove(path.c_str());
  EXPECT_DOUBLE_EQ(resumed.loss, uninterrupted);
}

}  // namespace
}  // namespace dms
