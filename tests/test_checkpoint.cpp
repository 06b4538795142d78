// Checkpoint/restore (DESIGN.md §13): a run killed at a bulk-round boundary
// and resumed from its checkpoint must be bit-identical — same per-epoch
// losses, same final weights — to the uninterrupted run, across sampler
// kinds and distribution modes. Restores into a mismatched pipeline config
// or from a corrupt file are rejected.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

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
  // 512 planted vertices -> 256 training -> 32 batches: with bulk_k = 8 on
  // the 8-rank grids below every epoch spans >= 4 bulk rounds, so stopping
  // at round 2 really bisects the epoch.
  cfg.batch_size = 8;
  cfg.fanouts = kind == SamplerKind::kGraphSage ? std::vector<index_t>{4, 4}
                                                : std::vector<index_t>{32};
  cfg.hidden = 16;
  cfg.bulk_k = 8;  // several bulk rounds per epoch -> mid-epoch boundaries
  return cfg;
}

/// RAII temp file path (removed on destruction). PID-suffixed so concurrent
/// suite runs (e.g. a sanitizer build testing alongside the plain one) never
/// collide on the same checkpoint file.
struct TempPath {
  std::string path;
  explicit TempPath(const std::string& name)
      : path(::testing::TempDir() + std::to_string(::getpid()) + "_" + name) {}
  ~TempPath() { std::remove(path.c_str()); }
};

void expect_same_weights(Pipeline& a, Pipeline& b, const std::string& ctx) {
  auto& la = a.model().layers();
  auto& lb = b.model().layers();
  ASSERT_EQ(la.size(), lb.size()) << ctx;
  for (std::size_t l = 0; l < la.size(); ++l) {
    const auto eq = [&](DenseF& x, DenseF& y, const char* name) {
      ASSERT_EQ(x.size(), y.size()) << ctx;
      for (std::size_t i = 0; i < x.size(); ++i) {
        ASSERT_EQ(x.data()[i], y.data()[i])
            << ctx << " layer " << l << " " << name << " elem " << i;
      }
    };
    eq(la[l].w_self(), lb[l].w_self(), "w_self");
    eq(la[l].w_neigh(), lb[l].w_neigh(), "w_neigh");
    eq(la[l].bias(), lb[l].bias(), "bias");
  }
}

TEST(Checkpoint, KillAndResumeIsBitIdenticalAcrossKindsAndModes) {
  const Dataset ds = small_planted();
  for (const SamplerKind kind :
       {SamplerKind::kGraphSage, SamplerKind::kLadies}) {
    for (const DistMode mode :
         {DistMode::kReplicated, DistMode::kPartitioned}) {
      const std::string ctx = to_string(kind) + "/" + to_string(mode);
      const PipelineConfig cfg = config_for(kind, mode);

      // Uninterrupted reference: three epochs straight through.
      Cluster c_ref(ProcessGrid(4, 2), CostModel(LinkParams{}));
      Pipeline ref(c_ref, ds, cfg);
      std::vector<EpochStats> base;
      for (int e = 0; e < 3; ++e) base.push_back(ref.run_epoch(e));

      // Killed run: epoch 0 full, epoch 1 only to the second round boundary,
      // checkpoint, then the process "dies".
      TempPath ckpt("dms_ckpt_" + to_string(kind) + "_" + to_string(mode) +
                    ".bin");
      {
        Cluster c_kill(ProcessGrid(4, 2), CostModel(LinkParams{}));
        Pipeline killed(c_kill, ds, cfg);
        killed.run_epoch(0);
        const TrainCursor cur = killed.run_epoch_partial(1, 2);
        ASSERT_FALSE(cur.finished()) << ctx << ": epoch too small to bisect";
        ASSERT_EQ(cur.next_round, 2) << ctx;
        save_checkpoint(killed, cur, ckpt.path);
      }

      // Fresh process: restore and finish epoch 1, then run epoch 2.
      Cluster c_res(ProcessGrid(4, 2), CostModel(LinkParams{}));
      Pipeline resumed(c_res, ds, cfg);
      const TrainCursor cur = load_checkpoint(resumed, ckpt.path);
      EXPECT_EQ(cur.epoch, 1) << ctx;
      const EpochStats e1 = resumed.run_epoch_resumed(cur);
      EXPECT_EQ(base[1].loss, e1.loss) << ctx;
      EXPECT_EQ(base[1].train_acc, e1.train_acc) << ctx;
      const EpochStats e2 = resumed.run_epoch(2);
      EXPECT_EQ(base[2].loss, e2.loss) << ctx;
      EXPECT_EQ(base[2].train_acc, e2.train_acc) << ctx;
      expect_same_weights(ref, resumed, ctx);
    }
  }
}

TEST(Checkpoint, ResumeSegmentIsCheaperThanTheFullEpoch) {
  // The point of resuming: the resumed segment replays only the remaining
  // rounds, so its simulated time is strictly below restarting the epoch.
  // Enormous compute scales zero out host-measured kernel time, so both
  // totals are modeled launch and link costs, free of host-load noise.
  const Dataset ds = small_planted();
  const PipelineConfig cfg =
      config_for(SamplerKind::kGraphSage, DistMode::kPartitioned);
  LinkParams link;
  link.compute_scale = 1e9;
  link.irregular_compute_scale = 1e9;

  Cluster c_ref(ProcessGrid(4, 2), CostModel(link));
  Pipeline ref(c_ref, ds, cfg);
  ref.run_epoch(0);
  const EpochStats full = ref.run_epoch(1);

  TempPath ckpt("dms_ckpt_cost.bin");
  Cluster c_kill(ProcessGrid(4, 2), CostModel(link));
  Pipeline killed(c_kill, ds, cfg);
  killed.run_epoch(0);
  const TrainCursor cur = killed.run_epoch_partial(1, 2);
  ASSERT_FALSE(cur.finished());
  save_checkpoint(killed, cur, ckpt.path);

  Cluster c_res(ProcessGrid(4, 2), CostModel(link));
  Pipeline resumed(c_res, ds, cfg);
  const EpochStats seg = resumed.run_epoch_resumed(load_checkpoint(resumed, ckpt.path));
  EXPECT_EQ(full.loss, seg.loss);
  EXPECT_LT(seg.total, full.total);
}

TEST(Checkpoint, RejectsConfigMismatch) {
  const Dataset ds = small_planted();
  const PipelineConfig cfg =
      config_for(SamplerKind::kGraphSage, DistMode::kReplicated);
  TempPath ckpt("dms_ckpt_mismatch.bin");
  Cluster c1(ProcessGrid(2, 1), CostModel(LinkParams{}));
  Pipeline saver(c1, ds, cfg);
  const TrainCursor cur = saver.run_epoch_partial(0, 1);
  save_checkpoint(saver, cur, ckpt.path);

  PipelineConfig other = cfg;
  other.batch_size = 64;  // different schedule -> different fingerprint
  Cluster c2(ProcessGrid(2, 1), CostModel(LinkParams{}));
  Pipeline loader(c2, ds, other);
  EXPECT_THROW(load_checkpoint(loader, ckpt.path), DmsError);

  // The grid decides which batches share an optimizer step: another p
  // (replicated) or another c (partitioned) is another schedule.
  Cluster c4(ProcessGrid(4, 1), CostModel(LinkParams{}));
  Pipeline wider(c4, ds, cfg);
  EXPECT_THROW(load_checkpoint(wider, ckpt.path), DmsError);

  const PipelineConfig part =
      config_for(SamplerKind::kGraphSage, DistMode::kPartitioned);
  TempPath part_ckpt("dms_ckpt_mismatch_c.bin");
  Cluster c5(ProcessGrid(4, 2), CostModel(LinkParams{}));
  Pipeline part_saver(c5, ds, part);
  save_checkpoint(part_saver, part_saver.run_epoch_partial(0, 1), part_ckpt.path);
  Cluster c6(ProcessGrid(4, 1), CostModel(LinkParams{}));
  Pipeline unreplicated(c6, ds, part);
  EXPECT_THROW(load_checkpoint(unreplicated, part_ckpt.path), DmsError);
}

TEST(Checkpoint, RejectsCorruptAndMissingFiles) {
  const Dataset ds = small_planted();
  const PipelineConfig cfg =
      config_for(SamplerKind::kGraphSage, DistMode::kReplicated);
  Cluster c1(ProcessGrid(2, 1), CostModel(LinkParams{}));
  Pipeline pipe(c1, ds, cfg);
  EXPECT_THROW(load_checkpoint(pipe, ::testing::TempDir() + "nope.bin"),
               DmsError);

  // Truncated file: write a valid checkpoint, chop off the tail.
  TempPath ckpt("dms_ckpt_trunc.bin");
  const TrainCursor cur = pipe.run_epoch_partial(0, 1);
  save_checkpoint(pipe, cur, ckpt.path);
  std::string bytes;
  {
    std::ifstream in(ckpt.path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  {
    std::ofstream out(ckpt.path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(load_checkpoint(pipe, ckpt.path), DmsError);

  // Wrong magic.
  {
    std::ofstream out(ckpt.path, std::ios::binary | std::ios::trunc);
    out << "not a checkpoint at all";
  }
  EXPECT_THROW(load_checkpoint(pipe, ckpt.path), DmsError);
}

TEST(Checkpoint, PartialPastTheScheduleTrainsTheWholeEpoch) {
  const Dataset ds = small_planted();
  const PipelineConfig cfg =
      config_for(SamplerKind::kGraphSage, DistMode::kReplicated);
  Cluster c1(ProcessGrid(2, 1), CostModel(LinkParams{}));
  Pipeline full(c1, ds, cfg);
  const EpochStats s = full.run_epoch(0);

  Cluster c2(ProcessGrid(2, 1), CostModel(LinkParams{}));
  Pipeline partial(c2, ds, cfg);
  const TrainCursor cur = partial.run_epoch_partial(0, 1 << 20);
  EXPECT_TRUE(cur.finished());
  EXPECT_EQ(cur.seen > 0 ? cur.loss_sum / static_cast<double>(cur.seen) : 0.0,
            s.loss);
}

}  // namespace
}  // namespace dms
