// Chaos/recovery bench (DESIGN.md §13): quantifies what the fault-injection
// layer costs and what the recovery machinery buys, in three sections.
//
//  A. Training under chaos: a products-scale epoch on an 8-rank 1.5D grid
//     sweeping transient loss rate x retry budget and straggler rate, plus a
//     mid-epoch permanent rank crash. Faults only stretch the simulated
//     clock — losses must stay bit-identical to the healthy run (crashes
//     excepted: survivors re-partition, so only completion is gated).
//  B. Checkpoint kill-and-resume: an epoch killed at a bulk-round boundary
//     and resumed from its DMSK checkpoint must reproduce the uninterrupted
//     epoch's loss bit-for-bit while replaying only the remaining rounds
//     (recovery strictly beats restarting the epoch).
//  C. Serving degradation: a deterministic discrete-event single-server loop
//     at 2x overload, ungoverned (unbounded queue, serve everything) vs
//     governed (bounded queue + health monitor + deadline shedding). The
//     governed server sheds real load and keeps admitted queue waits
//     bounded; the ungoverned tail grows with the run length.
//
// --smoke exits nonzero unless every section's gate holds; --json=PATH
// appends one row per measurement cell to BENCH_chaos.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "serve/coalescer.hpp"
#include "serve/health.hpp"
#include "serve/stats.hpp"
#include "train/checkpoint.hpp"
#include "train/pipeline.hpp"

namespace dms {
namespace {

// 8 ranks as a 4x2 (rows x replication) 1.5D grid — the paper's p=8, c=2
// products point. bulk_k = 16 gives ~7 bulk rounds per epoch, so the crash
// scheduled for superstep 2 fires mid-epoch with rounds left to recover in.
constexpr int kRanks = 8;
constexpr int kReplication = 2;
constexpr index_t kBulkK = 16;
constexpr index_t kCrashRank = 1;       // (row 1, col 0): an owner rank
constexpr index_t kCrashSuperstep = 2;

PipelineConfig train_config(SamplerKind kind) {
  PipelineConfig cfg;
  cfg.sampler = kind;
  cfg.mode = DistMode::kPartitioned;
  if (kind == SamplerKind::kGraphSage) {
    cfg.batch_size = bench::arch().sage_batch;
    cfg.fanouts = bench::arch().sage_fanout;
  } else {
    cfg.batch_size = bench::arch().ladies_batch;
    cfg.fanouts = {bench::arch().ladies_s};
  }
  cfg.hidden = bench::arch().hidden;
  cfg.bulk_k = kBulkK;
  return cfg;
}

/// One cell of the training chaos sweep: a fault configuration, the epoch it
/// produced, and the healthy epoch's total for the slowdown ratio.
struct ChaosCell {
  std::string sampler;
  std::string name;  ///< stable case key ("healthy", "loss5_r4", ...)
  FaultPlanConfig faults;
  RecoveryPolicy policy;
  bool has_plan = false;
  EpochStats stats;
  double slowdown = 1.0;  ///< total / healthy total, same sampler
};

EpochStats run_chaos_epoch(const Dataset& ds, const PipelineConfig& cfg,
                           const ChaosCell& cell) {
  Cluster cluster(ProcessGrid(kRanks, kReplication),
                  CostModel(bench::perlmutter_links()));
  std::unique_ptr<FaultPlan> plan;
  if (cell.has_plan) {
    plan = std::make_unique<FaultPlan>(cell.faults);
    cluster.install_faults(plan.get(), cell.policy);
  }
  Pipeline pipe(cluster, ds, cfg);
  return pipe.run_epoch(0);
}

std::vector<ChaosCell> chaos_cells(bool smoke) {
  std::vector<ChaosCell> cells;
  const auto add = [&](const std::string& name, double loss, int attempts,
                       double strag_rate, double strag_factor, bool crash) {
    ChaosCell c;
    c.name = name;
    c.has_plan = loss > 0.0 || strag_rate > 0.0 || crash;
    c.faults.seed = 2024;
    c.faults.loss_rate = loss;
    c.faults.straggler_rate = strag_rate;
    c.faults.straggler_factor = strag_factor;
    if (crash) c.faults.crashes = {{kCrashRank, kCrashSuperstep}};
    c.policy.max_attempts = attempts;
    cells.push_back(std::move(c));
  };
  add("healthy", 0.0, 4, 0.0, 1.0, false);
  add("loss5_r4", 0.05, 4, 0.0, 1.0, false);
  if (!smoke) add("loss20_r2", 0.20, 2, 0.0, 1.0, false);
  add("straggle20_x4", 0.0, 4, 0.20, 4.0, false);
  if (!smoke) add("straggle10_x2", 0.0, 4, 0.10, 2.0, false);
  // The combined-failure cell mirrors tests/test_faults.cpp: a rank dies at
  // superstep 2 while messages also drop and ranks straggle.
  add("crash+loss5", 0.05, 4, 0.10, 2.0, true);
  return cells;
}

// --- Section B: checkpoint kill-and-resume ---------------------------------

struct CheckpointResult {
  EpochStats full;     ///< the uninterrupted epoch 1
  EpochStats resumed;  ///< the resumed segment (whole-epoch loss, tail time)
  index_t stop_round = 0;
  index_t total_rounds = 0;
  double ckpt_bytes = 0.0;
  bool bisected = false;
};

CheckpointResult run_checkpoint(const Dataset& ds, const PipelineConfig& cfg) {
  const std::string path = "chaos_recovery_ckpt.bin";
  CheckpointResult out;

  // Uninterrupted reference: epoch 0 then the epoch we will later bisect.
  Cluster c_ref(ProcessGrid(kRanks, kReplication),
                CostModel(bench::perlmutter_links()));
  Pipeline ref(c_ref, ds, cfg);
  ref.run_epoch(0);
  out.full = ref.run_epoch(1);

  // Killed run: stop epoch 1 at the round-3 boundary, checkpoint, "die".
  {
    Cluster c_kill(ProcessGrid(kRanks, kReplication),
                   CostModel(bench::perlmutter_links()));
    Pipeline killed(c_kill, ds, cfg);
    killed.run_epoch(0);
    const TrainCursor cur = killed.run_epoch_partial(1, 3);
    out.stop_round = cur.next_round;
    out.total_rounds = cur.total_rounds;
    out.bisected = !cur.finished();
    save_checkpoint(killed, cur, path);
  }
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (in) out.ckpt_bytes = static_cast<double>(in.tellg());
  }

  // Fresh process: restore and finish the epoch.
  Cluster c_res(ProcessGrid(kRanks, kReplication),
                CostModel(bench::perlmutter_links()));
  Pipeline resumed(c_res, ds, cfg);
  const TrainCursor cur = load_checkpoint(resumed, path);
  out.resumed = resumed.run_epoch_resumed(cur);
  std::remove(path.c_str());
  return out;
}

// --- Section C: serving degradation under overload -------------------------

struct ServeCell {
  std::string policy;  ///< "ungoverned" / "governed"
  std::size_t served = 0;
  std::size_t shed_queue_full = 0;
  std::size_t shed_deadline = 0;
  double queue_p99 = 0.0;
  double makespan = 0.0;
  std::size_t health_transitions = 0;
};

/// Deterministic discrete-event single-server overload run (the modeled-time
/// analog of serve_latency's simulation): bulks of up to `cap` requests take
/// `service` seconds against arrivals every `interval` seconds. With
/// service/cap = 0.1 s per request and interval 0.05 s this is 2x overload.
ServeCell run_serving(bool governed, index_t n) {
  const double service = 0.2;
  const double interval = 0.05;
  const double deadline_after = 0.5;

  CoalescerConfig ccfg;
  ccfg.window = 0.02;
  ccfg.max_requests = 2;
  if (governed) ccfg.max_pending = 8;
  Coalescer coal(ccfg);
  HealthConfig hcfg;
  hcfg.queue_capacity = 8;
  HealthMonitor mon(hcfg);
  ServeStats stats;

  double server_free = 0.0;
  index_t next_arrival = 0;
  while (next_arrival < n || !coal.empty()) {
    // The next batch cannot start before the server frees, so every arrival
    // due by then reaches admission control first.
    const double now =
        coal.empty() ? std::max(static_cast<double>(next_arrival) * interval,
                                server_free)
                     : std::max(coal.ready_at(), server_free);
    while (next_arrival < n &&
           static_cast<double>(next_arrival) * interval <= now) {
      ServeRequest r;
      r.id = next_arrival;
      r.seeds = {next_arrival % 100};
      r.arrival = static_cast<double>(next_arrival) * interval;
      r.deadline = r.arrival + deadline_after;
      ++next_arrival;
      if (governed) {
        mon.observe(coal.pending());
        if (!mon.admit_arrivals() || !coal.push(r)) {
          stats.record_shed({r.id, r.arrival, r.arrival,
                             ShedReason::kQueueFull});
          continue;
        }
      } else {
        coal.push(r);
      }
    }
    if (coal.empty()) continue;
    const double start = std::max(coal.ready_at(), server_free);
    const CoalescedBatch b = coal.pop(start, mon.shed_overdue());
    for (const ShedRecord& s : b.shed) stats.record_shed(s);
    if (governed) mon.observe(coal.pending());
    if (b.empty()) continue;
    BatchRecord br;
    br.requests = b.size();
    br.inference = service;
    std::vector<RequestRecord> rr;
    rr.reserve(b.size());
    for (const ServeRequest& r : b.requests) {
      rr.push_back({r.id, b.size(), start - r.arrival, service});
    }
    stats.record(br, rr);
    server_free = start + service;
  }

  ServeCell cell;
  cell.policy = governed ? "governed" : "ungoverned";
  cell.served = stats.num_requests();
  cell.shed_queue_full = stats.num_shed(ShedReason::kQueueFull);
  cell.shed_deadline = stats.num_shed(ShedReason::kDeadlineExceeded);
  cell.queue_p99 = stats.queue_wait_percentile(99.0);
  cell.makespan = server_free;
  cell.health_transitions = mon.transitions();
  return cell;
}

int run(bool smoke, const std::string& json_path) {
  const Dataset& ds = bench::dataset("products");
  int failures = 0;
  const auto gate = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ++failures;
    }
  };

  // --- Section A: training under chaos -------------------------------------
  const std::vector<SamplerKind> kinds =
      smoke ? std::vector<SamplerKind>{SamplerKind::kGraphSage}
            : std::vector<SamplerKind>{SamplerKind::kGraphSage,
                                       SamplerKind::kLadies};
  std::vector<ChaosCell> cells;
  for (const SamplerKind kind : kinds) {
    const PipelineConfig cfg = train_config(kind);
    const std::string sampler =
        kind == SamplerKind::kGraphSage ? "sage" : "ladies";
    double healthy_total = 0.0;
    double healthy_loss = 0.0;
    for (ChaosCell cell : chaos_cells(smoke)) {
      cell.sampler = sampler;
      cell.stats = run_chaos_epoch(ds, cfg, cell);
      if (cell.name == "healthy") {
        healthy_total = cell.stats.total;
        healthy_loss = cell.stats.loss;
      }
      cell.slowdown =
          healthy_total > 0.0 ? cell.stats.total / healthy_total : 1.0;
      const bool crash = !cell.faults.crashes.empty();
      gate(std::isfinite(cell.stats.loss) && cell.stats.loss > 0.0,
           (sampler + "/" + cell.name + ": epoch did not complete sanely")
               .c_str());
      // Faults delay but never change the arithmetic; crash cells re-partition
      // onto survivors, so only completion + accounting are gated there.
      if (!crash && cell.name != "healthy") {
        gate(cell.stats.loss == healthy_loss,
             (sampler + "/" + cell.name +
              ": faulty loss not bit-identical to healthy")
                 .c_str());
      }
      if (cell.faults.loss_rate > 0.0) {
        gate(cell.stats.fault_retry > 0.0 && cell.stats.retry_messages > 0,
             (sampler + "/" + cell.name + ": no retries recorded").c_str());
      }
      if (cell.faults.straggler_rate > 0.0 && !crash) {
        gate(cell.stats.fault_straggler > 0.0,
             (sampler + "/" + cell.name + ": no straggler time").c_str());
        gate(cell.stats.total > healthy_total,
             (sampler + "/" + cell.name +
              ": straggling epoch not slower than healthy")
                 .c_str());
      }
      if (crash) {
        gate(cell.stats.crashed_ranks == 1,
             (sampler + "/" + cell.name + ": crash did not fire").c_str());
        gate(cell.stats.fault_redistribution > 0.0,
             (sampler + "/" + cell.name + ": no survivor redistribution")
                 .c_str());
      }
      cells.push_back(std::move(cell));
    }
  }

  bench::print_header(
      "Training under chaos: loss rate x retry budget, stragglers, rank "
      "crash (products, p=" +
      std::to_string(kRanks) + " c=" + std::to_string(kReplication) + ")");
  bench::print_row({"sampler", "cell", "loss", "epoch_s", "slowdown",
                    "straggle_s", "retry_s", "redist_s", "crashed"});
  for (const ChaosCell& c : cells) {
    bench::print_row({c.sampler, c.name, bench::fmt(c.stats.loss, 4),
                      bench::fmt(c.stats.total, 3), bench::fmt(c.slowdown, 2),
                      bench::fmt(c.stats.fault_straggler, 3),
                      bench::fmt(c.stats.fault_retry, 3),
                      bench::fmt(c.stats.fault_redistribution, 3),
                      std::to_string(c.stats.crashed_ranks)});
  }

  // --- Section B: checkpoint kill-and-resume --------------------------------
  const CheckpointResult ck =
      run_checkpoint(ds, train_config(SamplerKind::kGraphSage));
  gate(ck.bisected, "checkpoint: epoch too small to bisect");
  gate(ck.resumed.loss == ck.full.loss,
       "checkpoint: resumed loss not bit-identical to uninterrupted epoch");
  gate(ck.resumed.train_acc == ck.full.train_acc,
       "checkpoint: resumed accuracy not bit-identical");
  gate(ck.resumed.total < ck.full.total,
       "checkpoint: resuming not cheaper than restarting the epoch");

  bench::print_header("Checkpoint kill-and-resume (sage/partitioned)");
  bench::print_row({"stop_round", "rounds", "full_s", "resumed_s", "ratio",
                    "ckpt_kb"});
  bench::print_row({std::to_string(ck.stop_round),
                    std::to_string(ck.total_rounds),
                    bench::fmt(ck.full.total, 3),
                    bench::fmt(ck.resumed.total, 3),
                    bench::fmt(ck.full.total > 0.0
                                   ? ck.resumed.total / ck.full.total
                                   : 0.0,
                               2),
                    bench::fmt(ck.ckpt_bytes / 1024.0, 1)});

  // --- Section C: serving degradation under overload ------------------------
  const index_t n_requests = smoke ? 200 : 800;
  const ServeCell ungov = run_serving(/*governed=*/false, n_requests);
  const ServeCell gov = run_serving(/*governed=*/true, n_requests);
  gate(gov.shed_queue_full + gov.shed_deadline > 0,
       "serving: governed server shed nothing under 2x overload");
  gate(gov.served + gov.shed_queue_full + gov.shed_deadline ==
           static_cast<std::size_t>(n_requests),
       "serving: governed served+shed does not conserve requests");
  gate(gov.health_transitions > 0,
       "serving: health monitor never changed state under overload");
  gate(gov.queue_p99 < ungov.queue_p99 / 2.0,
       "serving: governed p99 queue wait not well below ungoverned");

  bench::print_header("Serving under 2x overload: ungoverned vs governed");
  bench::print_row({"policy", "served", "shed_full", "shed_ddl", "q_p99_s",
                    "makespan_s", "hlth_trans"});
  for (const ServeCell& c : {ungov, gov}) {
    bench::print_row({c.policy, std::to_string(c.served),
                      std::to_string(c.shed_queue_full),
                      std::to_string(c.shed_deadline),
                      bench::fmt(c.queue_p99, 3), bench::fmt(c.makespan, 2),
                      std::to_string(c.health_transitions)});
  }

  if (!json_path.empty()) {
    bench::JsonWriter json(json_path, /*append=*/true);
    if (!json.ok()) {
      std::fprintf(stderr, "chaos_recovery: cannot open %s\n",
                   json_path.c_str());
      return 1;
    }
    const std::string suffix = smoke ? " (smoke)" : "";
    for (const ChaosCell& c : cells) {
      json.row({{"bench", "chaos_recovery/train" + suffix},
                {"case", c.sampler + " " + c.name},
                {"sampler", c.sampler},
                {"loss_rate", c.faults.loss_rate},
                {"straggler_rate", c.faults.straggler_rate},
                {"max_attempts", c.policy.max_attempts},
                {"crash", static_cast<int>(!c.faults.crashes.empty())},
                {"loss", c.stats.loss},
                {"epoch_s", c.stats.total},
                {"slowdown", c.slowdown},
                {"straggler_s", c.stats.fault_straggler},
                {"retry_s", c.stats.fault_retry},
                {"redistribution_s", c.stats.fault_redistribution},
                {"retry_messages", static_cast<index_t>(c.stats.retry_messages)},
                {"crashed_ranks", static_cast<index_t>(c.stats.crashed_ranks)}});
    }
    json.row({{"bench", "chaos_recovery/checkpoint" + suffix},
              {"case", "sage partitioned"},
              {"stop_round", ck.stop_round},
              {"total_rounds", ck.total_rounds},
              {"full_s", ck.full.total},
              {"resumed_s", ck.resumed.total},
              {"resume_ratio",
               ck.full.total > 0.0 ? ck.resumed.total / ck.full.total : 0.0},
              {"ckpt_bytes", ck.ckpt_bytes}});
    for (const ServeCell& c : {ungov, gov}) {
      json.row({{"bench", "chaos_recovery/serve" + suffix},
                {"case", c.policy},
                {"served", static_cast<index_t>(c.served)},
                {"shed_queue_full", static_cast<index_t>(c.shed_queue_full)},
                {"shed_deadline", static_cast<index_t>(c.shed_deadline)},
                {"queue_p99_s", c.queue_p99},
                {"makespan_s", c.makespan},
                {"health_transitions",
                 static_cast<index_t>(c.health_transitions)}});
    }
    std::printf("JSON appended to %s\n", json_path.c_str());
  }

  if (smoke) {
    if (failures > 0) {
      std::fprintf(stderr, "chaos_recovery: %d smoke gate(s) failed\n",
                   failures);
      return 1;
    }
    std::printf(
        "SMOKE OK: faulty losses bit-identical, crash recovered "
        "(redistribution %.3fs), resume at %.0f%% of a full epoch, governed "
        "serving shed %zu and cut p99 queue wait %.2fs -> %.2fs\n",
        cells.back().stats.fault_redistribution,
        100.0 * (ck.full.total > 0.0 ? ck.resumed.total / ck.full.total : 0.0),
        gov.shed_queue_full + gov.shed_deadline, ungov.queue_p99,
        gov.queue_p99);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dms

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    }
  }
  return dms::run(smoke, json_path);
}
