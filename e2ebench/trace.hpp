// Host-clock span recorder for the traced benchmark run.
//
// The benchmark wraps each call it makes into a layer's public functions in
// a span (name, start, end, parent, id). Spans stay in memory and are written
// once, at the end of the run, as Chrome trace-event JSON (loadable in
// chrome://tracing or ui.perfetto.dev). A span's self time is its duration
// minus its children's: for the glue spans the benchmark itself opens
// (epoch, round, step), self time is loop work no layer call accounts for.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace dms::e2e {

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
  int parent = -1;     ///< index into Tracer::spans(), -1 for a root
  std::int64_t id = 0; ///< epoch number or request id the span serves
  double seconds() const { return end - start; }
};

class Tracer {
 public:
  Tracer() : origin_(clock::now()) {}

  /// Opens a span under the innermost open one; returns its index.
  int open(std::string name, std::int64_t id);
  /// Closes the innermost open span, which must be `index`.
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of span `index` minus the durations of its direct children.
  double self_seconds(int index) const;

  /// Writes every span as a complete ("X") trace event; false on I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  using clock = std::chrono::steady_clock;
  double now() const {
    return std::chrono::duration<double>(clock::now() - origin_).count();
  }

  clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<double> child_seconds_;  ///< per span, summed children
};

/// RAII span; a null tracer records nothing, so traced and untraced code
/// paths share one loop.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::int64_t id)
      : tracer_(tracer), index_(tracer ? tracer->open(name, id) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace dms::e2e
