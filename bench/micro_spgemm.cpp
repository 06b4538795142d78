// Micro-benchmarks of the SpGEMM engine (the workhorse of Algorithm 1) on
// shapes representative of the sampling pipeline.
//
// Two modes:
//  - default: the Google Benchmark suite below (BM_*);
//  - --kernel-compare [--smoke] [--json=PATH]: a self-contained comparison
//    harness that times the dense / hash / auto kernels on the sampler
//    shapes (auto is the selection gather there), times spgemm_masked on
//    the frontier rows against the full-product-then-slice LADIES
//    extraction it replaces (s ≪ n), cross-checks that every path
//    produces bit-identical results (nonzero exit on mismatch, which is
//    what the CI smoke job gates on — never on timings), and optionally
//    appends its rows to a BENCH_*.json trajectory so SpGEMM throughput
//    is tracked.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/ladies.hpp"
#include "graph/generators.hpp"
#include "sparse/coo.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm_engine.hpp"

namespace {

using namespace dms;

const Graph& bench_graph() {
  static const Graph g = [] {
    RmatParams p;
    p.scale = 14;
    p.edge_factor = 32.0;
    return generate_rmat(p);
  }();
  return g;
}

/// P ← Q·A with Q one-nonzero-per-row (the GraphSAGE probability step).
void BM_SpgemmQA(benchmark::State& state) {
  const Graph& g = bench_graph();
  const auto rows = static_cast<index_t>(state.range(0));
  std::vector<index_t> frontier;
  Pcg32 rng(3);
  for (index_t i = 0; i < rows; ++i) frontier.push_back(rng.bounded64(g.num_vertices()));
  const CsrMatrix q = CsrMatrix::one_nonzero_per_row(g.num_vertices(), frontier);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spgemm(q, g.adjacency()));
  }
  state.SetItemsProcessed(state.iterations() * spgemm_flops(q, g.adjacency()));
}
BENCHMARK(BM_SpgemmQA)->Arg(256)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

/// Indicator-row Q (LADIES probability step): few rows, many nonzeros each.
void BM_SpgemmLadiesQA(benchmark::State& state) {
  const Graph& g = bench_graph();
  const auto batch = static_cast<index_t>(state.range(0));
  CooMatrix coo(8, g.num_vertices());
  Pcg32 rng(4);
  for (index_t r = 0; r < 8; ++r) {
    for (index_t i = 0; i < batch; ++i) coo.push(r, rng.bounded64(g.num_vertices()), 1.0);
  }
  const CsrMatrix q = CsrMatrix::from_coo(coo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spgemm(q, g.adjacency()));
  }
  state.SetItemsProcessed(state.iterations() * spgemm_flops(q, g.adjacency()));
}
BENCHMARK(BM_SpgemmLadiesQA)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

/// Forced dense vs hash vs auto-dispatched kernel on the Q·A shape.
void BM_SpgemmKernels(benchmark::State& state) {
  const Graph& g = bench_graph();
  std::vector<index_t> frontier;
  Pcg32 rng(6);
  for (index_t i = 0; i < 1024; ++i) frontier.push_back(rng.bounded64(g.num_vertices()));
  const CsrMatrix q = CsrMatrix::one_nonzero_per_row(g.num_vertices(), frontier);
  SpgemmOptions opts;
  opts.kernel = static_cast<SpgemmKernel>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(spgemm(q, g.adjacency(), opts));
  }
}
BENCHMARK(BM_SpgemmKernels)
    ->Arg(static_cast<int>(SpgemmKernel::kAuto))
    ->Arg(static_cast<int>(SpgemmKernel::kDense))
    ->Arg(static_cast<int>(SpgemmKernel::kHash))
    ->Unit(benchmark::kMillisecond);

/// Serial vs parallel engine.
void BM_SpgemmSerial(benchmark::State& state) {
  const Graph& g = bench_graph();
  std::vector<index_t> frontier;
  Pcg32 rng(5);
  for (index_t i = 0; i < 2048; ++i) frontier.push_back(rng.bounded64(g.num_vertices()));
  const CsrMatrix q = CsrMatrix::one_nonzero_per_row(g.num_vertices(), frontier);
  SpgemmOptions opts;
  opts.parallel = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spgemm(q, g.adjacency(), opts));
  }
}
BENCHMARK(BM_SpgemmSerial)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --kernel-compare mode
// ---------------------------------------------------------------------------

/// Minimum of `reps` timed runs of fn(), in milliseconds.
template <typename Fn>
double time_min_ms(int reps, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    Timer t;
    fn();
    best = std::min(best, t.seconds() * 1e3);
  }
  return best;
}

std::vector<index_t> random_frontier(const Graph& g, index_t count, std::uint64_t seed) {
  std::vector<index_t> frontier;
  Pcg32 rng(seed);
  for (index_t i = 0; i < count; ++i) frontier.push_back(rng.bounded64(g.num_vertices()));
  return frontier;
}

/// s distinct vertex ids, sorted ascending (the masked-kernel contract).
std::vector<index_t> random_mask(const Graph& g, index_t s, std::uint64_t seed) {
  std::unordered_set<index_t> picked;
  Pcg32 rng(seed);
  while (static_cast<index_t>(picked.size()) < s) {
    picked.insert(rng.bounded64(g.num_vertices()));
  }
  std::vector<index_t> mask(picked.begin(), picked.end());
  std::sort(mask.begin(), mask.end());
  return mask;
}

int run_kernel_compare(bool smoke, const std::string& json_path) {
  RmatParams params;
  params.scale = smoke ? 10 : 14;
  params.edge_factor = smoke ? 16.0 : 32.0;
  const Graph g = generate_rmat(params);
  const index_t n = g.num_vertices();
  const int reps = smoke ? 3 : 7;
  bool ok = true;

  // Appending writer: shares BENCH_micro.json with micro_gemm --compare,
  // which truncates — regenerate the file by running micro_gemm first,
  // then this harness (re-running only this harness appends duplicates).
  bench::JsonWriter json(json_path.empty() ? "/dev/null" : json_path,
                         /*append=*/true);
  if (!json_path.empty() && !json.ok()) {
    std::fprintf(stderr, "FAIL: cannot open JSON output path %s\n",
                 json_path.c_str());
    return 1;
  }
  const std::string bench_id = "micro_spgemm.kernel_compare";

  bench::print_header("SpGEMM kernel comparison (n = " + std::to_string(n) +
                      (smoke ? ", smoke)" : ")"));
  const int w = 22;
  bench::print_row({"case", "kernel", "time_ms", "Gflop/s", "speedup"}, w);

  auto report = [&](const std::string& cs, const std::string& kernel, double ms,
                    nnz_t flops, double speedup) {
    bench::print_row({cs, kernel, bench::fmt(ms), bench::fmt(flops / ms / 1e6, 3),
                      bench::fmt(speedup, 2)}, w);
    json.row({{"bench", bench_id},
              {"case", cs},
              {"kernel", kernel},
              {"time_ms", ms},
              {"flops_per_sec", static_cast<double>(flops) / (ms / 1e3)},
              {"speedup_vs_baseline", speedup}});
  };

  // --- Per-kernel times on the probability-generation shapes Qˡ·A. ---
  for (const index_t rows : smoke ? std::vector<index_t>{64, 256}
                                  : std::vector<index_t>{256, 1024, 4096}) {
    const CsrMatrix q =
        CsrMatrix::one_nonzero_per_row(n, random_frontier(g, rows, 11 + rows));
    const nnz_t flops = spgemm_flops(q, g.adjacency());
    const std::string cs = "sage_qa_rows" + std::to_string(rows);

    CsrMatrix ref;
    double dense_ms = 0.0;
    for (const auto kernel :
         {SpgemmKernel::kDense, SpgemmKernel::kHash, SpgemmKernel::kAuto}) {
      SpgemmOptions opts;
      opts.kernel = kernel;
      const CsrMatrix out = spgemm(q, g.adjacency(), opts);
      const double ms = time_min_ms(reps, [&] {
        benchmark::DoNotOptimize(spgemm(q, g.adjacency(), opts));
      });
      const char* name = kernel == SpgemmKernel::kDense  ? "dense"
                         : kernel == SpgemmKernel::kHash ? "hash"
                                                         : "auto";
      if (kernel == SpgemmKernel::kDense) {
        ref = out;
        dense_ms = ms;
      } else if (!(out == ref)) {
        std::fprintf(stderr, "FAIL: %s/%s differs from dense kernel\n", cs.c_str(),
                     name);
        ok = false;
      }
      report(cs, name, ms, flops, dense_ms / ms);
    }
  }

  // --- Masked extraction vs full-product-then-slice (LADIES §4.2.4: keep
  // only s sampled columns of the frontier's adjacency rows, s ≪ n). ---
  for (const index_t s : smoke ? std::vector<index_t>{16, 64}
                               : std::vector<index_t>{32, 128, 512}) {
    const index_t batch = smoke ? 128 : 512;
    const std::vector<index_t> frontier = random_frontier(g, batch, 23 + s);
    const CsrMatrix qr = CsrMatrix::one_nonzero_per_row(n, frontier);
    const std::vector<index_t> mask = random_mask(g, s, 29 + s);
    const std::string cs = "ladies_extract_s" + std::to_string(s);

    SpgemmOptions dense_opts;
    dense_opts.kernel = SpgemmKernel::kDense;
    const CsrMatrix ar = spgemm(qr, g.adjacency(), dense_opts);
    const CsrMatrix qc = ladies_column_extractor(n, mask);
    // Actual multiply-adds per variant: the two-step path performs the full
    // row-extraction product plus the slice; spgemm_masked stores only the
    // entries that land in masked columns.
    const nnz_t masked_flops = spgemm_flops(ar, qc);
    const nnz_t full_flops = spgemm_flops(qr, g.adjacency()) + masked_flops;
    const CsrMatrix sliced = spgemm(ar, qc, dense_opts);
    const double full_ms = time_min_ms(reps, [&] {
      const CsrMatrix a_r = spgemm(qr, g.adjacency(), dense_opts);
      benchmark::DoNotOptimize(spgemm(a_r, qc, dense_opts));
    });

    const CsrMatrix masked = spgemm_masked(g.adjacency(), frontier, mask);
    const double masked_ms = time_min_ms(reps, [&] {
      benchmark::DoNotOptimize(spgemm_masked(g.adjacency(), frontier, mask));
    });

    if (!(masked == sliced)) {
      std::fprintf(stderr, "FAIL: %s spgemm_masked differs from product-then-slice\n",
                   cs.c_str());
      ok = false;
    }
    report(cs, "full_then_slice", full_ms, full_flops, 1.0);
    report(cs, "masked", masked_ms, masked_flops, full_ms / masked_ms);
  }

  if (!json_path.empty()) {
    std::printf("\nJSON appended to %s\n", json_path.c_str());
  }
  std::printf("\nkernel cross-check: %s\n", ok ? "all bit-identical" : "MISMATCH");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool compare = false;
  bool smoke = false;
  bool unknown = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--kernel-compare") {
      compare = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      unknown = true;  // Google Benchmark's flags, in the default mode
    }
  }
  if (compare && unknown) {
    std::fprintf(stderr, "usage: %s --kernel-compare [--smoke] [--json=PATH]\n", argv[0]);
    return 2;
  }
  if (compare) return run_kernel_compare(smoke, json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
