// The repo benchmark's workload runner: one workload, one seed, one process.
//
//   e2ebench --workload NAME --seed N --seconds S [--trace-out PATH]
//            --serve-rate R --serve-window-ms W --serve-cap C
//            --serve-p99-limit-ms L
//
// (the serving settings are required for the serving workload only)
// Without --trace-out it measures the end-to-end metrics with tracing off;
// with it, it runs the traced run, prints the per-layer metrics and writes
// the spans to PATH. It prints one line per metric and, last, a JSON object
// {correct, attempted, failed, metrics}. It exits 1 when an output check
// fails or an operation throws, 2 on bad arguments. run.py builds it and is
// the command BENCHMARK.json names.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace dms::e2e {

Seeds derive_seeds(std::uint64_t seed) {
  return {derive_seed(seed, 0x30de1), derive_seed(seed, 0x77ace),
          derive_seed(seed, 0x4e1d)};
}

LinkParams bench_links() {
  LinkParams l;
  l.alpha = 5e-6;
  l.beta_intra = 64.0 / 100e9;  // NVLink 3.0
  l.beta_inter = 64.0 / 25e9;   // Slingshot 11
  l.beta_pcie = 64.0 / 20e9;    // PCIe 4.0
  l.ranks_per_node = 4;
  l.compute_scale = 8.0;
  l.irregular_compute_scale = 2.0;
  l.launch_overhead = 30e-6;
  return l;
}

namespace {

/// Every per-layer metric, in print order, so that a workload that never
/// enters a layer still reports it (as 0).
void declare_layer_metrics(Report& r) {
  const std::vector<std::pair<const char*, const char*>> host_s = {
      {"sample.host_s", "s"},
      {"op.sage.spgemm_s", "s"},        {"op.sage.its_sample_s", "s"},
      {"op.sage.extract_s", "s"},       {"op.ladies.spgemm_s", "s"},
      {"op.ladies.masked_extract_s", "s"}, {"op.ladies.its_sample_s", "s"},
      {"op.node2vec.fused_walk_s", "s"}, {"op.node2vec.induced_s", "s"},
      {"fetch.host_s", "s"},            {"nn.train_step_s", "s"},
      {"nn.optimizer_s", "s"},          {"gen.dataset_s", "s"},
      {"setup.ctor_s", "s"},            {"setup.warmup_s", "s"},
      {"serve.service_p50_ms", "ms"},   {"serve.service_p99_ms", "ms"},
      {"serve.sampling_ms", "ms"},      {"serve.fetch_ms", "ms"},
      {"serve.inference_ms", "ms"},     {"serve.pop_us", "us"},
      {"p1.host_mb_per_s", "1/s"}};
  for (const auto& [name, unit] : host_s) r.declare(name, unit, Clock::kHost);
  for (const char* name : {"sample.calls", "sample.mb", "sample.edges", "fetch.rows",
                           "cache.hits", "cache.misses", "cache.local", "serve.mean_batch",
                           "serve.shed"}) {
    r.declare(name, "count");
  }
  for (const char* name : {"cache.hit_ratio", "trace.overhead_frac",
                           "trace.unaccounted_frac"}) {
    r.declare(name, "ratio");
  }
  for (const char* name : {"fetch.bytes", "fetch.bytes_saved", "mem.per_rank_bytes",
                           "mem.workspace_bytes"}) {
    r.declare(name, "bytes");
  }
  for (const char* phase : {"probability", "sampling", "extraction", "fetch",
                            "propagation"}) {
    const std::string p = phase;
    r.declare("comm." + p + ".bytes", "bytes");
    r.declare("comm." + p + ".msgs", "count");
    r.declare("comm." + p + ".sim_s", "s", Clock::kSim);
    r.declare("sim.compute." + p + "_s", "s", Clock::kSim);
  }
  for (const char* name : {"sim.sampling_s", "sim.fetch_s", "sim.propagation_s",
                           "sim.overlap_saved_s", "sim.stall_s"}) {
    r.declare(name, "s", Clock::kSim);
  }
  r.declare("sim.speedup_vs_p1", "ratio", Clock::kSim);
  for (const char* name : {"serve.p50_ms", "serve.p99_ms", "serve.queue_wait_p50_ms",
                           "serve.queue_wait_p99_ms"}) {
    r.declare(name, "ms", Clock::kServe);
  }
  r.declare("serve.max_rps", "1/s", Clock::kServe);
}

bool parse(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt->workload = v;
      continue;
    }
    if (arg == "--trace-out") {
      opt->trace = true;
      opt->trace_out = v;
      continue;
    }
    const double x = std::strtod(v, &end);
    if (end == v || *end != '\0') return false;
    if (arg == "--seed") {
      opt->seed = static_cast<std::uint64_t>(x);
    } else if (arg == "--seconds") {
      opt->seconds = x;
    } else if (arg == "--serve-rate") {
      opt->serve_rate = x;
    } else if (arg == "--serve-window-ms") {
      opt->serve_window_ms = x;
    } else if (arg == "--serve-cap") {
      opt->serve_cap = static_cast<int>(x);
    } else if (arg == "--serve-p99-limit-ms") {
      opt->serve_p99_limit_ms = x;
    } else {
      return false;
    }
  }
  const bool serve_ok = opt->workload == kServeWorkload && opt->serve_rate > 0.0 &&
                        opt->serve_window_ms >= 0.0 && opt->serve_cap >= 1 &&
                        opt->serve_p99_limit_ms > 0.0;
  return opt->seconds > 0.0 && (is_training_workload(opt->workload) || serve_ok);
}

}  // namespace
}  // namespace dms::e2e

int main(int argc, char** argv) {
  using namespace dms::e2e;
  Options opt;
  if (!parse(argc, argv, &opt)) {
    std::fprintf(stderr, "usage: e2ebench --workload NAME --seed N --seconds S "
                         "[--trace-out PATH] --serve-rate R --serve-window-ms W "
                         "--serve-cap C --serve-p99-limit-ms L\n");
    return 2;
  }

  Report report;
  if (opt.trace) declare_layer_metrics(report);
  report.note("workload " + opt.workload + ", seed " + std::to_string(opt.seed) +
              ", DMS_THREADS=" + std::to_string(dms::ThreadPool::global().size()) +
              (opt.trace ? ", traced" : ", tracing off"));
  try {
    if (is_training_workload(opt.workload)) {
      run_training(opt, report);
    } else {
      run_serving(opt, report);
    }
  } catch (const std::exception& e) {
    report.ops(1, 1);
    report.note(std::string("FAILED with exception: ") + e.what());
  }
  report.print();
  return report.correct() ? 0 : 1;
}
