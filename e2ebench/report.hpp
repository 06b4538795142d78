// Result reporting for the repo benchmark: the metric table one run fills,
// the statistics it is computed with, and the final JSON line.
//
// A run prints one human-readable line per metric ("name value unit
// [clock]") and, as the last line of standard output, one JSON object with
// the keys correct / attempted / failed / metrics. run.py checks the metric
// names and units against BENCHMARK.json, so this file and that list must
// agree.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dms::e2e {

/// Which clock a number was read from. Every timing the benchmark prints
/// names one: the host wall clock, the simulated cluster clock (measured
/// compute ÷ compute_scale plus α–β comm, minus overlap credit), or the
/// serve clock (scheduled arrivals plus host-measured service).
enum class Clock { kHost, kSim, kServe, kNone };

const char* to_string(Clock c);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Clock clock = Clock::kNone;
};

/// The metrics and operation counts of one benchmark invocation.
class Report {
 public:
  /// Sets (or overwrites) a metric, keeping first-insertion order.
  void set(const std::string& name, double value, const std::string& unit,
           Clock clock = Clock::kNone);

  /// Declares a metric at 0 unless it is already set: per-layer metrics of
  /// a layer a workload never enters still appear, as zeros.
  void declare(const std::string& name, const std::string& unit,
               Clock clock = Clock::kNone);

  /// Counts `n` operations attempted and `failed` of them failed.
  void ops(std::int64_t n, std::int64_t failed = 0);

  /// Records a correctness check: one operation, failed unless `ok`. The
  /// message is printed either way so a failing run says what failed.
  void check(bool ok, const std::string& what);

  /// Free-form context printed before the metrics (configuration, digests).
  void note(const std::string& line);

  bool correct() const { return failed_ == 0; }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// Prints the notes, one line per metric, and the final JSON line.
  void print() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

double median(std::vector<double> v);

/// FNV-1a over the bit patterns of a double sequence: two sequences share a
/// digest only if they are (with overwhelming likelihood) bit-identical.
std::uint64_t bits_digest(const std::vector<double>& values);

/// Releases free heap pages to the OS and restarts the peak-RSS mark, so
/// that peak_rss_mb() covers only what runs after it (Linux clear_refs; on
/// failure the mark keeps counting from process start).
void reset_peak_rss();

/// Peak resident set size of this process since the last reset_peak_rss(),
/// in MiB.
double peak_rss_mb();

}  // namespace dms::e2e
