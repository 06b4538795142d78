// Shared helpers for the benchmark harness: scaled-down dataset registry,
// bench-scale architecture parameters (Table 4 analog), and table printing.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/dataset.hpp"
#include "train/pipeline.hpp"

namespace dms::bench {

/// Bench-scale analog of the paper's Table 4 architecture. The paper trains
/// SAGE with b=1024, fanout (15,10,5), hidden 256 on 100-128 features;
/// benches shrink every dimension ~8-16× so a 128-rank epoch simulates in
/// seconds on a host CPU. All ratios (L=3, fanout shape, LADIES b=s) are
/// preserved.
struct BenchArch {
  index_t sage_batch = 64;                    // paper: 1024
  std::vector<index_t> sage_fanout = {8, 4, 4};  // paper: (15,10,5)
  index_t ladies_batch = 32;                  // paper: 512
  index_t ladies_s = 32;                      // paper: 512
  index_t hidden = 32;                        // paper: 256
  int features = 32;                          // paper: 100-128
};

inline const BenchArch& arch() {
  static const BenchArch a;
  return a;
}

/// Dataset cache so multiple sections of one bench reuse the generated
/// graphs (generation is seconds at bench scale).
inline const Dataset& dataset(const std::string& name) {
  static std::map<std::string, Dataset> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    StandInConfig cfg;
    cfg.feature_dim = arch().features;
    it = cache.emplace(name, make_standin_by_name(name, cfg)).first;
    std::fprintf(stderr, "[bench] generated %s\n",
                 it->second.graph.summary(name).c_str());
  }
  return it->second;
}

/// Scaled-Perlmutter link parameters (§7.2). The bench workload's
/// per-minibatch communication volumes are ~64× smaller than the paper's
/// (batch 1024→64 ×16, features 128→32 ×4), so link bandwidths are divided
/// by the same factor: this keeps the communication:computation balance of
/// the real system, which is what Figures 4-7 measure (DESIGN.md §2).
inline constexpr double kVolumeScale = 64.0;

inline LinkParams perlmutter_links() {
  LinkParams l;
  l.alpha = 5e-6;
  l.beta_intra = kVolumeScale / 100e9;  // NVLink 3.0
  l.beta_inter = kVolumeScale / 25e9;   // Slingshot 11
  l.beta_pcie = kVolumeScale / 20e9;    // PCIe 4.0 (UVA mode)
  l.ranks_per_node = 4;
  // Host-CPU compute stands in for an A100. Bulk matrix kernels (our
  // pipeline) saturate the device; irregular per-vertex sampling kernels
  // (Quiver's per-minibatch sampler) do not — the paper's core motivation.
  l.compute_scale = 8.0;
  l.irregular_compute_scale = 2.0;
  l.launch_overhead = 30e-6;
  return l;
}

/// The paper's per-GPU-count replication/bulk choices (Figure 4
/// annotations), expressed as (c, fraction of all minibatches per bulk).
struct RunPoint {
  int p;
  int c;
  double k_fraction;  // 1.0 = "k=all"
};

inline std::vector<RunPoint> fig4_points(const std::string& ds) {
  if (ds == "products") {
    return {{4, 1, 0.41}, {8, 2, 1.0}, {16, 4, 1.0}};
  }
  if (ds == "papers") {
    return {{4, 1, 0.5}, {8, 2, 1.0}, {16, 4, 1.0},
            {32, 4, 1.0}, {64, 8, 1.0}, {128, 8, 1.0}};
  }
  // protein: memory-capped small k at low p (§8.1.1)
  return {{4, 1, 0.03}, {8, 2, 0.06}, {16, 2, 0.12},
          {32, 2, 0.25}, {64, 4, 0.5}, {128, 8, 1.0}};
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_row(const std::vector<std::string>& cells, int width = 13) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int prec = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

// --- JSON output ------------------------------------------------------------
// The BENCH_*.json perf-trajectory files: one flat JSON array of row objects
// per file, one row per (bench, case, kernel) measurement. Conventions:
//  - the first two fields are `bench` (binary + mode, e.g.
//    "micro_spgemm.kernel_compare") and `case` (workload shape id);
//  - times are reported in milliseconds as `*_ms` fields (simulated
//    seconds as `*_sim_s`), throughput as multiply-adds per second in
//    `flops_per_sec`, speedups as plain ratios;
//  - downstream tooling keys rows on (bench, case, kernel), so those values
//    must be stable across runs and machines.
// Rows carry string or number fields only. A writer opened with append=true
// splices its rows into an existing array written by a previous (possibly
// different) bench binary — this is how micro_gemm and micro_spgemm share
// BENCH_micro.json.
/// Renders `s` as a JSON string literal (quotes included): escapes quote,
/// backslash, the named control characters, and any other byte < 0x20 as
/// \u00XX. Case ids are normally tame, but a stray newline or tab in a
/// generated label must not corrupt the whole BENCH_*.json array.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

class JsonWriter {
 public:
  /// One rendered key/value pair of a row object.
  struct Field {
    Field(const char* k, const std::string& v)
        : key(k), rendered(json_escape(v)) {}
    Field(const char* k, const char* v) : Field(k, std::string(v)) {}
    Field(const char* k, double v) : key(k) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", v);
      rendered = buf;
    }
    Field(const char* k, index_t v) : key(k) {
      rendered = std::to_string(v);
    }
    Field(const char* k, int v) : Field(k, static_cast<index_t>(v)) {}

    std::string key;
    std::string rendered;
  };

  explicit JsonWriter(const std::string& path, bool append = false) {
    if (append) {
      f_ = std::fopen(path.c_str(), "r+");
      if (f_ != nullptr) {
        // Splice into the existing array: our files always end "\n]\n", so
        // repositioning onto that terminator lets new rows continue the
        // array. Anything else (including an empty "[]\n") is rewritten.
        std::fseek(f_, 0, SEEK_END);
        const long size = std::ftell(f_);
        char tail[3] = {0, 0, 0};
        if (size >= 4) {
          std::fseek(f_, size - 3, SEEK_SET);
          if (std::fread(tail, 1, 3, f_) == 3 && tail[0] == '\n' &&
              tail[1] == ']' && tail[2] == '\n') {
            std::fseek(f_, size - 3, SEEK_SET);
            continuing_ = true;
          }
        }
        if (!continuing_) {
          std::fclose(f_);
          f_ = nullptr;
        }
      }
    }
    if (f_ == nullptr) f_ = std::fopen(path.c_str(), "w");
  }

  ~JsonWriter() {
    if (f_ == nullptr) return;
    if (rows_ > 0 || continuing_) {
      std::fprintf(f_, "\n]\n");
    } else {
      std::fprintf(f_, "[]\n");
    }
    std::fclose(f_);
  }

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  bool ok() const { return f_ != nullptr; }

  void row(const std::vector<Field>& fields) {
    if (f_ == nullptr) return;
    if (rows_ == 0 && !continuing_) {
      std::fprintf(f_, "[\n");
    } else {
      std::fprintf(f_, ",\n");
    }
    std::fprintf(f_, "  {");
    for (std::size_t i = 0; i < fields.size(); ++i) {
      std::fprintf(f_, "%s%s: %s", i == 0 ? "" : ", ",
                   json_escape(fields[i].key).c_str(),
                   fields[i].rendered.c_str());
    }
    std::fprintf(f_, "}");
    ++rows_;
  }

 private:
  std::FILE* f_ = nullptr;
  bool continuing_ = false;
  std::size_t rows_ = 0;
};

}  // namespace dms::bench
