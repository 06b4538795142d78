// The benchmark's workloads and the settings every run shares.
#pragma once

#include <cstdint>
#include <string>

#include "comm/costmodel.hpp"
#include "report.hpp"

namespace dms::e2e {

/// Command-line settings of one run. The serving numbers come from
/// BENCHMARK.json's command, in absolute units, so every commit receives
/// the same offered load.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;  ///< measurement budget of the run
  bool trace = false;
  std::string trace_out;  ///< Chrome trace-event JSON path (traced runs)
  double serve_rate = 0.0;          ///< offered load, requests/s
  double serve_window_ms = -1.0;    ///< coalescer window
  int serve_cap = 0;                ///< coalescer batch cap, requests
  double serve_p99_limit_ms = 0.0;  ///< p99 limit of serve_max_rps
};

/// Seeds derived from the workload seed: the pipeline or engine (batch
/// order, sampling randomness, model init), the request trace, and a
/// held-out stream that picks what the output checks re-verify (so checks
/// never share randomness with the measured work).
struct Seeds {
  std::uint64_t model;
  std::uint64_t trace;
  std::uint64_t held_out;
};
Seeds derive_seeds(std::uint64_t seed);

/// The generated stand-in datasets are fixed inputs (the figure benches'
/// seed), not drawn per workload seed: across seeds the products-sim
/// training split's degree sum ranged 270k-334k, which moved sampling work,
/// and with it host_mb_per_s, by more than 10%.
inline constexpr std::uint64_t kDatasetSeed = 42;

/// Scaled-Perlmutter links: per-minibatch volumes are ~64× smaller than the
/// paper's (batch 1024→64, features 128→32), so link bandwidths are divided
/// by the same factor, and host compute stands in for an A100 at 8×. The
/// benchmark fixes its own copy so a change to any bench's parameters
/// cannot move these numbers.
LinkParams bench_links();

/// Feature width of every generated dataset (paper: 100-128).
inline constexpr int kFeatureDim = 32;

/// True for the names run_training accepts.
bool is_training_workload(const std::string& name);

/// The one workload run_serving runs.
inline constexpr const char* kServeWorkload = "serve-sage-openloop";

void run_training(const Options& opt, Report& report);
void run_serving(const Options& opt, Report& report);

}  // namespace dms::e2e
