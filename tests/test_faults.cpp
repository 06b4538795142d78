// Fault-injection chaos layer (DESIGN.md §13): deterministic FaultPlan
// draws, straggler/retry/crash accounting on the Cluster, survivor recovery
// in the 1.5D SpGEMM (bit-identical results under rank death), and
// degrade-and-continue training epochs on the survivor set.
#include <gtest/gtest.h>

#include <cmath>

#include "comm/cluster.hpp"
#include "comm/faults.hpp"
#include "dist/dist_sampler.hpp"
#include "dist/spgemm_15d.hpp"
#include "graph/dataset.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm_engine.hpp"
#include "test_util.hpp"
#include "train/pipeline.hpp"

namespace dms {
namespace {

void expect_csr_equal(const CsrMatrix& a, const CsrMatrix& b,
                      const std::string& ctx) {
  ASSERT_EQ(a.rows(), b.rows()) << ctx;
  ASSERT_EQ(a.cols(), b.cols()) << ctx;
  ASSERT_EQ(a.rowptr(), b.rowptr()) << ctx;
  ASSERT_EQ(a.colidx(), b.colidx()) << ctx;
  ASSERT_EQ(a.vals(), b.vals()) << ctx;
}

TEST(FaultPlan, DrawsAreDeterministicAndSeedDependent) {
  FaultPlanConfig cfg;
  cfg.seed = 42;
  cfg.straggler_rate = 0.3;
  cfg.straggler_factor = 2.5;
  cfg.loss_rate = 0.3;
  const FaultPlan a(cfg), b(cfg);
  cfg.seed = 43;
  const FaultPlan c(cfg);
  int differs = 0;
  for (index_t s = 0; s < 64; ++s) {
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(a.slowdown(s, r), b.slowdown(s, r));
      if (a.slowdown(s, r) != c.slowdown(s, r)) ++differs;
    }
    EXPECT_EQ(a.lost(static_cast<std::uint64_t>(s), 0),
              b.lost(static_cast<std::uint64_t>(s), 0));
  }
  EXPECT_GT(differs, 0);  // a different seed draws a different schedule
}

TEST(FaultPlan, SlowdownIsOneOrTheFactor) {
  FaultPlanConfig cfg;
  cfg.seed = 7;
  cfg.straggler_rate = 0.5;
  cfg.straggler_factor = 3.0;
  const FaultPlan plan(cfg);
  int straggled = 0, clean = 0;
  for (index_t s = 0; s < 200; ++s) {
    const double f = plan.slowdown(s, 0);
    if (f == 3.0) ++straggled;
    else if (f == 1.0) ++clean;
    else FAIL() << "slowdown must be 1 or the factor, got " << f;
  }
  EXPECT_GT(straggled, 0);
  EXPECT_GT(clean, 0);
}

TEST(FaultPlan, CrashesFireAtTheirSuperstepOnly) {
  FaultPlanConfig cfg;
  cfg.crashes = {{2, 3}, {1, 3}, {0, 5}};
  const FaultPlan plan(cfg);
  EXPECT_TRUE(plan.crashes_at(0).empty());
  EXPECT_EQ(plan.crashes_at(3), (std::vector<int>{1, 2}));  // sorted
  EXPECT_EQ(plan.crashes_at(5), (std::vector<int>{0}));
}

TEST(FaultPlan, RejectsInvalidConfigs) {
  FaultPlanConfig bad;
  bad.straggler_rate = 1.5;
  EXPECT_THROW(FaultPlan{bad}, DmsError);
  bad = {};
  bad.loss_rate = -0.1;
  EXPECT_THROW(FaultPlan{bad}, DmsError);
  bad = {};
  bad.straggler_factor = 0.5;
  EXPECT_THROW(FaultPlan{bad}, DmsError);
  bad = {};
  bad.crashes = {{-1, 0}};
  EXPECT_THROW(FaultPlan{bad}, DmsError);
}

TEST(RecoveryPolicy, BackoffGrowsExponentiallyAndSaturates) {
  const RecoveryPolicy pol;
  EXPECT_DOUBLE_EQ(pol.backoff(0), 1e-4);
  EXPECT_DOUBLE_EQ(pol.backoff(1), 2e-4);
  EXPECT_DOUBLE_EQ(pol.backoff(2), 4e-4);
  EXPECT_DOUBLE_EQ(pol.backoff(6), 6.4e-3);
  EXPECT_DOUBLE_EQ(pol.backoff(7), 1e-2);   // 12.8 ms, capped
  EXPECT_DOUBLE_EQ(pol.backoff(10), 1e-2);  // capped
}

TEST(Cluster, StragglerMultiplierScalesComputeAndIsAccounted) {
  FaultPlanConfig cfg;
  cfg.seed = 1;
  cfg.straggler_rate = 1.0;  // every (superstep, rank) straggles
  cfg.straggler_factor = 3.0;
  const FaultPlan plan(cfg);

  Cluster healthy(ProcessGrid(2, 1), CostModel(LinkParams{}));
  healthy.add_compute("phase", 0.5);
  const double base = healthy.phase_time("phase");

  Cluster faulty(ProcessGrid(2, 1), CostModel(LinkParams{}));
  faulty.install_faults(&plan);
  faulty.begin_superstep();
  faulty.add_compute("phase", 0.5);
  EXPECT_NEAR(faulty.phase_time("phase"), 3.0 * base, 1e-12);
  EXPECT_NEAR(faulty.fault_stats().straggler_seconds, 2.0 * base, 1e-12);
}

TEST(Cluster, TransientLossRetriesWithBackoffUntilTheForcedAttempt) {
  FaultPlanConfig cfg;
  cfg.seed = 9;
  cfg.loss_rate = 1.0;  // every allowed retry attempt fails
  const FaultPlan plan(cfg);
  RecoveryPolicy pol;
  pol.max_attempts = 3;

  Cluster cluster(ProcessGrid(2, 1), CostModel(LinkParams{}));
  cluster.install_faults(&plan, pol);
  cluster.record_comm("phase", 0.1, 1000, 1);

  // Attempts 0 and 1 are lost (each pays retransmit + backoff); attempt 2 is
  // the forced delivery.
  const CommStats& s = cluster.comm_stats().at("phase");
  EXPECT_EQ(s.messages, 3u);
  EXPECT_EQ(s.bytes, 3000u);
  EXPECT_NEAR(s.seconds, 0.3 + 1e-4 + 2e-4, 1e-12);
  const FaultStats& f = cluster.fault_stats();
  EXPECT_EQ(f.lost_messages, 2u);
  EXPECT_EQ(f.retry_bytes, 2000u);
  EXPECT_NEAR(f.retry_seconds, 0.2 + 1e-4 + 2e-4, 1e-12);
}

TEST(Cluster, CrashesArePermanentAcrossClockResets) {
  FaultPlanConfig cfg;
  cfg.crashes = {{3, 1}};  // rank 3 dies at superstep 1
  const FaultPlan plan(cfg);
  // 4 ranks as 2 rows x 2 columns.
  Cluster cluster(ProcessGrid(4, 2), CostModel(LinkParams{}));
  cluster.install_faults(&plan);

  cluster.begin_superstep();  // superstep 0: everyone alive
  EXPECT_TRUE(cluster.alive(3));
  EXPECT_EQ(cluster.num_alive(), 4);

  cluster.begin_superstep();  // superstep 1: rank 3 dies
  EXPECT_FALSE(cluster.alive(3));
  EXPECT_EQ(cluster.num_alive(), 3);
  EXPECT_EQ(cluster.fault_stats().crashed_ranks, 1u);

  cluster.reset_clock();  // epochs reset the clock, never resurrect ranks
  EXPECT_FALSE(cluster.alive(3));
  cluster.begin_superstep();
  EXPECT_EQ(cluster.fault_stats().crashed_ranks, 1u);  // counted once
}

TEST(Cluster, InstallFaultsRejectsBadPolicies) {
  const FaultPlan plan(FaultPlanConfig{});
  Cluster cluster(ProcessGrid(2, 1), CostModel(LinkParams{}));
  RecoveryPolicy pol;
  pol.max_attempts = 0;
  EXPECT_THROW(cluster.install_faults(&plan, pol), DmsError);
  FaultPlanConfig out_of_grid;
  out_of_grid.crashes = {{7, 0}};  // grid has 2 ranks
  const FaultPlan bad_plan(out_of_grid);
  EXPECT_THROW(cluster.install_faults(&bad_plan), DmsError);
}

TEST(Spgemm15d, RankDeathKeepsResultsBitIdenticalAndCountsRedistribution) {
  const CsrMatrix a = testutil::random_csr(64, 64, 0.08, 3);
  const CsrMatrix q = testutil::random_csr(48, 64, 0.1, 4);
  // Killing rank 0 of a 4x2 grid leaves block 0's owner dead: a survivor
  // re-fetches its block (oblivious broadcast) or serves its requests
  // (sparsity-aware). Killing rank (0, 1) of an 8x2 grid leaves a requester
  // replica dead: its row-mate in column 0 works on blocks 2 and 3 for it,
  // so the aware requests move, and the oblivious rounds ship each block
  // into column 0, which column 1's broadcast never reaches.
  struct Case {
    ProcessGrid grid;
    int dead;
  };
  const std::vector<Case> cases = {
      {ProcessGrid(4, 2), 0}, {ProcessGrid(8, 2), ProcessGrid(8, 2).rank_of(0, 1)}};
  for (const Case& cs : cases) {
    const BlockPartition qpart(q.rows(), cs.grid.rows());
    std::vector<CsrMatrix> q_blocks;
    for (index_t i = 0; i < cs.grid.rows(); ++i) {
      q_blocks.push_back(row_slice(q, qpart.begin(i), qpart.end(i)));
    }
    for (const bool sparsity_aware : {false, true}) {
      Spgemm15dOptions opts;
      opts.sparsity_aware = sparsity_aware;
      const std::string label = "dead rank " + std::to_string(cs.dead) +
                                (sparsity_aware ? " (aware)" : " (oblivious)");

      Cluster healthy(cs.grid, CostModel(LinkParams{}));
      DistBlockRowMatrix da(cs.grid, a);
      const auto ref = spgemm_15d(healthy, q_blocks, da, opts);

      FaultPlanConfig cfg;
      cfg.crashes = {{cs.dead, 0}};
      const FaultPlan plan(cfg);
      Cluster faulty(cs.grid, CostModel(LinkParams{}));
      faulty.install_faults(&plan);
      faulty.begin_superstep();
      ASSERT_FALSE(faulty.alive(cs.dead));
      Spgemm15dStats stats;
      const auto got = spgemm_15d(faulty, q_blocks, da, opts, &stats);

      ASSERT_EQ(ref.size(), got.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        expect_csr_equal(ref[i], got[i], label + " block " + std::to_string(i));
      }
      // The survivor had to re-fetch the dead rank's work.
      EXPECT_GT(stats.redistribution_bytes, 0u) << label;
      EXPECT_GT(faulty.fault_stats().redistribution_seconds, 0.0) << label;
    }
  }

  // The masked extraction runs the same schedule, so the same crashes move
  // the same work.
  for (const Case& cs : cases) {
    DistBlockRowMatrix da(cs.grid, a);
    std::vector<std::vector<std::vector<index_t>>> rows(
        static_cast<std::size_t>(cs.grid.rows()));
    std::vector<std::vector<std::vector<index_t>>> masks(rows.size());
    Pcg32 rng(9, 2);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (int b = 0; b < 3; ++b) {
        std::vector<index_t> r, m;
        for (int t = 0; t < 10; ++t) r.push_back(rng.bounded(64));
        for (index_t col = 0; col < 64; col += 1 + rng.bounded(4)) m.push_back(col);
        rows[i].push_back(r);
        masks[i].push_back(m);
      }
    }
    std::vector<ExtractBatches> batches;
    for (std::size_t i = 0; i < rows.size(); ++i) batches.push_back({rows[i], masks[i]});

    for (const bool sparsity_aware : {false, true}) {
      Spgemm15dOptions opts;
      opts.sparsity_aware = sparsity_aware;
      const std::string label = "dead rank " + std::to_string(cs.dead) +
                                (sparsity_aware ? " (aware)" : " (oblivious)");
      Cluster healthy(cs.grid, CostModel(LinkParams{}));
      const auto ref = masked_extract_15d(healthy, da, batches, opts);

      FaultPlanConfig cfg;
      cfg.crashes = {{cs.dead, 0}};
      const FaultPlan plan(cfg);
      Cluster faulty(cs.grid, CostModel(LinkParams{}));
      faulty.install_faults(&plan);
      faulty.begin_superstep();
      ASSERT_FALSE(faulty.alive(cs.dead));
      Spgemm15dStats stats;
      const auto got = masked_extract_15d(faulty, da, batches, opts, &stats);
      ASSERT_EQ(ref.size(), got.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ref[i].size(), got[i].size());
        for (std::size_t b = 0; b < ref[i].size(); ++b) {
          expect_csr_equal(ref[i][b], got[i][b],
                           label + " row " + std::to_string(i));
          expect_csr_equal(spgemm_masked(a, rows[i][b], masks[i][b]), got[i][b],
                           label + " vs spgemm_masked");
        }
      }
      EXPECT_GT(stats.redistribution_bytes, 0u) << label;
      EXPECT_GT(faulty.fault_stats().redistribution_seconds, 0.0) << label;
    }
  }
}

TEST(Spgemm15d, FullyDeadRowIsUnrecoverableOnlyIfReferenced) {
  const CsrMatrix a = testutil::random_csr(32, 32, 0.1, 5);
  const ProcessGrid grid(4, 2);  // 2 rows x 2 columns
  DistBlockRowMatrix da(grid, a);
  // Kill both replicas of process row 1: ranks (1, 0) = 1 and (1, 1) = 3.
  FaultPlanConfig cfg;
  cfg.crashes = {{1, 0}, {3, 0}};
  const FaultPlan plan(cfg);

  // A Q that references the dead block row cannot be recovered.
  {
    Cluster cluster(grid, CostModel(LinkParams{}));
    cluster.install_faults(&plan);
    cluster.begin_superstep();
    std::vector<CsrMatrix> q_blocks = {testutil::random_csr(8, 32, 0.5, 6),
                                       CsrMatrix(0, 32)};
    EXPECT_THROW(spgemm_15d(cluster, q_blocks, da, Spgemm15dOptions{}),
                 DmsError);
  }
  // A Q confined to the surviving block rows sails through.
  {
    Cluster cluster(grid, CostModel(LinkParams{}));
    cluster.install_faults(&plan);
    cluster.begin_superstep();
    const index_t b0 = da.partition().begin(0), e0 = da.partition().end(0);
    CooMatrix coo(8, 32);
    Pcg32 rng(8, 1);
    for (index_t r = 0; r < 8; ++r) {
      coo.push(r, b0 + rng.bounded(static_cast<std::uint32_t>(e0 - b0)), 1.0);
    }
    std::vector<CsrMatrix> q_blocks = {CsrMatrix::from_coo(coo),
                                       CsrMatrix(0, 32)};
    const auto out =
        spgemm_15d(cluster, q_blocks, da, Spgemm15dOptions{});
    EXPECT_EQ(out[0].rows(), 8);
  }

  // The masked extraction: the dead row throws iff it still has rows, a
  // live row iff it reads the lost block.
  const index_t b0 = da.partition().begin(0), e0 = da.partition().end(0);
  const index_t b1 = da.partition().begin(1);
  const std::vector<std::vector<index_t>> mask = {{0, 3, 17, 30}};
  const std::vector<std::vector<index_t>> in_block0 = {{e0 - 1, b0, b0 + 2}};
  const std::vector<std::vector<index_t>> in_block1 = {{b0, b1}};
  const std::vector<std::vector<index_t>> no_rows = {{}};
  const auto extract = [&](const std::vector<std::vector<index_t>>& row0,
                           const std::vector<std::vector<index_t>>& row1) {
    Cluster cluster(grid, CostModel(LinkParams{}));
    cluster.install_faults(&plan);
    cluster.begin_superstep();
    return masked_extract_15d(cluster, da, {{row0, mask}, {row1, mask}});
  };
  for (const bool dead_row_has_rows : {true, false}) {
    const auto& row1 = dead_row_has_rows ? in_block0 : no_rows;
    EXPECT_THROW(extract(in_block1, row1), DmsError);
    if (dead_row_has_rows) {
      EXPECT_THROW(extract(in_block0, row1), DmsError);
    } else {
      const auto out = extract(in_block0, row1);
      expect_csr_equal(out[0][0], spgemm_masked(a, in_block0[0], mask[0]),
                       "live row confined to block 0");
      EXPECT_EQ(out[1][0].rows(), 0);
    }
  }
}

TEST(PartitionedSampler, SamplesAreBitIdenticalUnderRankDeath) {
  const Dataset ds = make_planted_dataset(256, 4, 8, 8.0, 0.85, 5);
  const ProcessGrid grid(4, 2);
  for (const SamplerKind kind :
       {SamplerKind::kGraphSage, SamplerKind::kLadies}) {
    const SamplerConfig sc{kind == SamplerKind::kGraphSage
                               ? std::vector<index_t>{4, 4}
                               : std::vector<index_t>{32},
                           17};
    const auto make = [&](SamplerKind k) {
      return make_sampler(k, DistMode::kPartitioned, ds.graph,
                          SamplerContext{.config = sc, .grid = &grid});
    };
    std::vector<std::vector<index_t>> batches;
    std::vector<index_t> ids;
    for (index_t b = 0; b < 8; ++b) {
      std::vector<index_t> batch;
      for (index_t v = 0; v < 16; ++v) batch.push_back((b * 16 + v) % 256);
      batches.push_back(std::move(batch));
      ids.push_back(b);
    }

    const auto sampler_h = make(kind);
    Cluster healthy(grid, CostModel(LinkParams{}));
    const auto ref = as_partitioned(*sampler_h)
                         .sample_bulk(healthy, batches, ids, 0xabc);

    FaultPlanConfig cfg;
    cfg.crashes = {{1, 0}};
    const FaultPlan plan(cfg);
    const auto sampler_f = make(kind);
    Cluster faulty(grid, CostModel(LinkParams{}));
    faulty.install_faults(&plan);
    faulty.begin_superstep();
    const auto got = as_partitioned(*sampler_f)
                         .sample_bulk(faulty, batches, ids, 0xabc);

    // Flatten both (the per-row split differs — dead rows take no batches —
    // but the concatenation preserves sub-batch order either way).
    std::vector<const MinibatchSample*> flat_ref, flat_got;
    for (const auto& row : ref)
      for (const auto& ms : row) flat_ref.push_back(&ms);
    for (const auto& row : got)
      for (const auto& ms : row) flat_got.push_back(&ms);
    ASSERT_EQ(flat_ref.size(), flat_got.size());
    for (std::size_t i = 0; i < flat_ref.size(); ++i) {
      EXPECT_EQ(flat_ref[i]->batch_vertices, flat_got[i]->batch_vertices)
          << to_string(kind) << " sample " << i;
      ASSERT_EQ(flat_ref[i]->layers.size(), flat_got[i]->layers.size());
      for (std::size_t l = 0; l < flat_ref[i]->layers.size(); ++l) {
        expect_csr_equal(flat_ref[i]->layers[l].adj, flat_got[i]->layers[l].adj,
                         to_string(kind) + " sample " + std::to_string(i) +
                             " layer " + std::to_string(l));
      }
    }
  }
}

TEST(Pipeline, ZeroRateFaultPlanIsBitIdenticalToNoPlan) {
  const Dataset ds =
      make_planted_dataset(256, 4, 8, 8.0, 0.85, 5);
  for (const DistMode mode : {DistMode::kReplicated, DistMode::kPartitioned}) {
    PipelineConfig cfg;
    cfg.mode = mode;
    cfg.batch_size = 32;
    cfg.fanouts = {4, 4};
    cfg.hidden = 16;
    cfg.bulk_k = 8;

    Cluster plain(ProcessGrid(4, 2), CostModel(LinkParams{}));
    Pipeline p_plain(plain, ds, cfg);
    const EpochStats s_plain = p_plain.run_epoch(0);

    const FaultPlan zero(FaultPlanConfig{});
    Cluster nulled(ProcessGrid(4, 2), CostModel(LinkParams{}));
    nulled.install_faults(&zero);
    Pipeline p_nulled(nulled, ds, cfg);
    const EpochStats s_nulled = p_nulled.run_epoch(0);

    EXPECT_EQ(s_plain.loss, s_nulled.loss) << to_string(mode);
    EXPECT_EQ(s_plain.train_acc, s_nulled.train_acc) << to_string(mode);
    EXPECT_EQ(s_nulled.fault_straggler, 0.0);
    EXPECT_EQ(s_nulled.fault_retry, 0.0);
    EXPECT_EQ(s_nulled.fault_redistribution, 0.0);
    EXPECT_EQ(s_nulled.crashed_ranks, 0u);
  }
}

TEST(Pipeline, EpochsCompleteOnSurvivorsAfterACrash) {
  // The headline degrade-and-continue property: a rank dies mid-epoch, the
  // remaining rounds re-partition onto the survivors, the epoch (and the
  // next one) completes, and the fault fields expose what recovery cost.
  const Dataset ds =
      make_planted_dataset(256, 4, 8, 8.0, 0.85, 5);
  for (const SamplerKind kind :
       {SamplerKind::kGraphSage, SamplerKind::kLadies}) {
    PipelineConfig cfg;
    cfg.sampler = kind;
    cfg.mode = DistMode::kPartitioned;
    // 128 training vertices -> 16 batches; on the 4-rank grid with
    // bulk_k = 4 that is four bulk rounds, i.e. four crash boundaries.
    cfg.batch_size = 8;
    cfg.fanouts = kind == SamplerKind::kGraphSage ? std::vector<index_t>{4, 4}
                                                  : std::vector<index_t>{32};
    cfg.hidden = 16;
    cfg.bulk_k = 4;

    FaultPlanConfig fault_cfg;
    fault_cfg.seed = 3;
    // Rank 1 = (row 1, col 0) dies at the third boundary; rank 3 keeps
    // process row 1 alive.
    fault_cfg.crashes = {{1, 2}};
    fault_cfg.loss_rate = 0.05;
    fault_cfg.straggler_rate = 0.1;
    const FaultPlan plan(fault_cfg);

    Cluster cluster(ProcessGrid(4, 2), CostModel(LinkParams{}));
    cluster.install_faults(&plan);
    Pipeline pipe(cluster, ds, cfg);
    const EpochStats e0 = pipe.run_epoch(0);
    const EpochStats e1 = pipe.run_epoch(1);

    EXPECT_TRUE(std::isfinite(e0.loss));
    EXPECT_GT(e0.loss, 0.0);
    EXPECT_EQ(e0.crashed_ranks, 1u) << to_string(kind);
    EXPECT_GT(e0.fault_redistribution, 0.0) << to_string(kind);
    EXPECT_GT(e0.fault_retry, 0.0) << to_string(kind);
    testutil::expect_epoch_stats_consistent(e0);
    // Epoch 1 starts with the rank already dead: no new crashes, still sane.
    EXPECT_TRUE(std::isfinite(e1.loss));
    EXPECT_EQ(e1.crashed_ranks, 0u);
    testutil::expect_epoch_stats_consistent(e1);
  }
}

TEST(Pipeline, ReplicatedModeAlsoSurvivesACrash) {
  const Dataset ds =
      make_planted_dataset(256, 4, 8, 8.0, 0.85, 5);
  PipelineConfig cfg;
  cfg.mode = DistMode::kReplicated;
  cfg.batch_size = 8;  // 16 batches -> two bulk rounds on 4 ranks
  cfg.fanouts = {4, 4};
  cfg.hidden = 16;
  cfg.bulk_k = 8;

  FaultPlanConfig fault_cfg;
  fault_cfg.crashes = {{3, 1}};
  const FaultPlan plan(fault_cfg);
  Cluster cluster(ProcessGrid(4, 2), CostModel(LinkParams{}));
  cluster.install_faults(&plan);
  Pipeline pipe(cluster, ds, cfg);
  const EpochStats s = pipe.run_epoch(0);
  EXPECT_TRUE(std::isfinite(s.loss));
  EXPECT_EQ(s.crashed_ranks, 1u);
  testutil::expect_epoch_stats_consistent(s);
}

TEST(Pipeline, StragglersSlowTheClockButNeverTheArithmetic) {
  const Dataset ds =
      make_planted_dataset(256, 4, 8, 8.0, 0.85, 5);
  PipelineConfig cfg;
  cfg.mode = DistMode::kReplicated;
  cfg.batch_size = 32;
  cfg.fanouts = {4, 4};
  cfg.hidden = 16;
  cfg.bulk_k = 8;

  Cluster plain(ProcessGrid(4, 1), CostModel(LinkParams{}));
  Pipeline p_plain(plain, ds, cfg);
  const EpochStats s_plain = p_plain.run_epoch(0);

  FaultPlanConfig fault_cfg;
  fault_cfg.seed = 11;
  fault_cfg.straggler_rate = 0.5;
  fault_cfg.straggler_factor = 4.0;
  const FaultPlan plan(fault_cfg);
  Cluster slow(ProcessGrid(4, 1), CostModel(LinkParams{}));
  slow.install_faults(&plan);
  Pipeline p_slow(slow, ds, cfg);
  const EpochStats s_slow = p_slow.run_epoch(0);

  EXPECT_EQ(s_plain.loss, s_slow.loss);
  EXPECT_EQ(s_plain.train_acc, s_slow.train_acc);
  EXPECT_GT(s_slow.fault_straggler, 0.0);
  EXPECT_EQ(s_slow.crashed_ranks, 0u);
  testutil::expect_epoch_stats_consistent(s_slow);
}

}  // namespace
}  // namespace dms
