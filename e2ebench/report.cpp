#include "report.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace dms::e2e {

const char* to_string(Clock c) {
  switch (c) {
    case Clock::kHost: return "host";
    case Clock::kSim: return "sim";
    case Clock::kServe: return "serve";
    case Clock::kNone: return "-";
  }
  return "-";
}

void Report::set(const std::string& name, double value, const std::string& unit,
                 Clock clock) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = {name, value, unit, clock};
      return;
    }
  }
  metrics_.push_back({name, value, unit, clock});
}

void Report::declare(const std::string& name, const std::string& unit,
                     Clock clock) {
  for (const Metric& m : metrics_) {
    if (m.name == name) return;
  }
  metrics_.push_back({name, 0.0, unit, clock});
}

void Report::ops(std::int64_t n, std::int64_t failed) {
  attempted_ += n;
  failed_ += failed;
}

void Report::check(bool ok, const std::string& what) {
  ops(1, ok ? 0 : 1);
  note(std::string(ok ? "check ok: " : "CHECK FAILED: ") + what);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::print() const {
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  for (const Metric& m : metrics_) {
    std::printf("%-32s %16.6f %-8s [%s]\n", m.name.c_str(), m.value,
                m.unit.c_str(), to_string(m.clock));
  }
  std::printf("# fail_frac %.6f (%lld failed of %lld attempted)\n",
              attempted_ > 0 ? static_cast<double>(failed_) /
                                   static_cast<double>(attempted_)
                             : 0.0,
              static_cast<long long>(failed_),
              static_cast<long long>(attempted_));
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct() ? "true" : "false", static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // %.17g keeps every digit; JSON has no NaN/Inf, so a non-finite value
    // (a failed run's) is printed as null.
    char value[64];
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t bits_digest(const std::vector<double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double d : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

void reset_peak_rss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace dms::e2e
