// Fused walk-engine microbench (plain main, no Google Benchmark): runs the
// same GraphSAINT-RW walk workload through (a) the op-by-op matrix path
// (the unoptimized plan, PlanExecOptions{.optimize = false}) and (b) the
// optimized plan's fused kWalk op (DESIGN.md §11), then reports walk
// throughput (surviving-walker edge traversals per second,
// PlanSampler::walk_steps over the walk-phase op seconds — the
// induced-subgraph epilogue is identical on both paths and excluded). The
// walker count stays modest: the matrix path materializes every walker's
// full adjacency row per round, so it is orders of magnitude slower.
//
// --smoke exits nonzero if the fused outputs are not bit-identical to the
// matrix path or fused throughput falls below the matrix path; --compare
// prints the fused/matrix ratio on the full-size power-law graph;
// --json=PATH appends rows to the BENCH_micro.json trajectory.
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/plan_sampler.hpp"
#include "graph/generators.hpp"
#include "plan/builders.hpp"

namespace dms {
namespace {

bool identical(const std::vector<MinibatchSample>& a,
               const std::vector<MinibatchSample>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].batch_vertices != b[i].batch_vertices) return false;
    if (a[i].layers.size() != b[i].layers.size()) return false;
    for (std::size_t l = 0; l < a[i].layers.size(); ++l) {
      if (!(a[i].layers[l].adj == b[i].layers[l].adj)) return false;
      if (a[i].layers[l].row_vertices != b[i].layers[l].row_vertices) return false;
      if (a[i].layers[l].col_vertices != b[i].layers[l].col_vertices) return false;
    }
  }
  return true;
}

/// One measured configuration: the optimized plan's fused kWalk op, or the
/// unoptimized matrix path when `fused` is false.
struct Variant {
  std::string name;
  bool fused = true;
};

struct VariantResult {
  std::string name;
  double walk_s = 0.0;
  std::uint64_t steps = 0;
  double edges_per_s() const { return walk_s > 0.0 ? steps / walk_s : 0.0; }
};

/// Walk-phase seconds from the sampler's op accounting: the fused kWalk op
/// records one "<plan>/fused_walk" entry; the matrix path spreads the same
/// work over the body ops. Epilogue ("induced") time is excluded from both.
double walk_seconds(const PlanSampler& sampler) {
  const auto ops = sampler.op_time_breakdown();
  double s = 0.0;
  for (const char* label :
       {"fused_walk", "build_q", "spgemm", "normalize", "its_sample",
        "walk_advance"}) {
    const auto it = ops.find(std::string(sampler.plan().name) + "/" + label);
    if (it != ops.end()) s += it->second;
  }
  return s;
}

/// Runs every variant's epochs interleaved (variant A epoch e, variant B
/// epoch e, ...) so frequency/contention drift hits all variants equally —
/// the throughput ratios are what the bench reports.
std::vector<VariantResult> run_variants(
    const std::vector<Variant>& variants, const Graph& graph,
    const SamplePlan& plan, const SamplerConfig& cfg,
    const std::vector<std::vector<index_t>>& batches,
    const std::vector<index_t>& ids, int epochs) {
  std::vector<std::unique_ptr<PlanSampler>> samplers;
  for (const Variant& v : variants) {
    samplers.push_back(std::make_unique<PlanSampler>(
        graph, plan, cfg, PlanExecOptions{.optimize = v.fused}));
    (void)samplers.back()->sample_bulk(batches, ids, 0);  // warm
    samplers.back()->reset_stats();
  }
  for (int e = 1; e <= epochs; ++e) {
    for (auto& s : samplers) {
      (void)s->sample_bulk(batches, ids, static_cast<std::uint64_t>(e));
    }
  }
  std::vector<VariantResult> out;
  for (std::size_t i = 0; i < samplers.size(); ++i) {
    VariantResult r;
    r.name = variants[i].name;
    r.walk_s = walk_seconds(*samplers[i]);
    r.steps = samplers[i]->walk_steps();
    out.push_back(r);
  }
  return out;
}

int run(bool smoke, bool compare, const std::string& json_path) {
  RmatParams params;
  params.scale = smoke ? 12 : 18;
  params.edge_factor = 16.0;
  // Heavier-than-default skew: walks concentrate on hub rows, where the
  // matrix path's per-round row materialization costs the most.
  params.a = 0.7;
  params.b = 0.12;
  params.c = 0.12;
  params.seed = 5;
  const Graph graph = generate_rmat(params);
  const index_t n = graph.num_vertices();
  std::printf("micro_walk: R-MAT scale %d, %lld vertices, %lld edges\n",
              params.scale, static_cast<long long>(n),
              static_cast<long long>(graph.num_edges()));

  const index_t walk_length = 8;
  const SamplePlan plan = build_saint_plan(walk_length, /*model_layers=*/1);
  const SamplerConfig cfg = walk_adapter_config(/*model_layers=*/1, /*seed=*/1);
  const int num_batches = smoke ? 32 : 64;
  const index_t roots_per_batch = smoke ? 64 : 512;
  const int epochs = 3;
  std::vector<std::vector<index_t>> batches(
      static_cast<std::size_t>(num_batches));
  {
    Pcg32 rng(params.seed, 0xb57);
    for (auto& batch : batches) {
      for (index_t i = 0; i < roots_per_batch; ++i) {
        batch.push_back(rng.bounded64(n));
      }
    }
  }
  std::vector<index_t> ids(static_cast<std::size_t>(num_batches));
  std::iota(ids.begin(), ids.end(), 0);

  // Bit-identity first, outside the timed region: the fused engine must
  // reproduce the matrix path's minibatches exactly.
  bool bit_identical = true;
  {
    PlanSampler ref(graph, plan, cfg, {.optimize = false});
    PlanSampler fused(graph, plan, cfg);
    bit_identical = identical(ref.sample_bulk(batches, ids, 7),
                              fused.sample_bulk(batches, ids, 7));
  }

  const std::vector<VariantResult> results =
      run_variants({{"matrix", /*fused=*/false}, {"fused", /*fused=*/true}},
                   graph, plan, cfg, batches, ids, epochs);
  const VariantResult& matrix = results[0];
  const VariantResult& fused = results[1];

  std::printf("Fused vs matrix (%d epochs x %d batches x %lld roots, walk "
              "length %lld):\n",
              epochs, num_batches, static_cast<long long>(roots_per_batch),
              static_cast<long long>(walk_length));
  for (const VariantResult* r : {&matrix, &fused}) {
    std::printf("  %-22s %12.3e edges/s  (%llu steps in %.4fs)\n",
                r->name.c_str(), r->edges_per_s(),
                static_cast<unsigned long long>(r->steps), r->walk_s);
  }
  const double fused_vs_matrix = fused.edges_per_s() / matrix.edges_per_s();
  std::printf("  fused vs matrix          %.2fx\n", fused_vs_matrix);
  std::printf("  bits %s\n", bit_identical ? "identical" : "DIFFER");
  if (compare) {
    std::printf("compare: fused/matrix %.2fx (target >= 3x)\n",
                fused_vs_matrix);
  }

  if (!json_path.empty()) {
    bench::JsonWriter json(json_path, /*append=*/true);
    if (!json.ok()) {
      std::fprintf(stderr, "micro_walk: cannot open %s\n", json_path.c_str());
      return 1;
    }
    const std::string bench_id =
        std::string("micro_walk/edges_per_s") + (smoke ? " (smoke)" : "");
    for (const VariantResult* r : {&matrix, &fused}) {
      json.row({{"bench", bench_id},
                {"case", r->name},
                {"edges_per_s", r->edges_per_s()},
                {"walk_s", r->walk_s},
                {"steps", static_cast<double>(r->steps)},
                {"bit_identical", bit_identical ? "yes" : "no"}});
    }
    json.row({{"bench", bench_id},
              {"case", "ratios"},
              {"fused_vs_matrix", fused_vs_matrix},
              {"bit_identical", bit_identical ? "yes" : "no"}});
    std::printf("JSON appended to %s\n", json_path.c_str());
  }

  if (smoke) {
    if (!bit_identical) {
      std::fprintf(stderr, "FAIL: fused outputs diverge from matrix path\n");
      return 1;
    }
    // The fused engine must never lose to the matrix path it replaces; the
    // >= 3x headline ratio is measured at full scale (--compare), where the
    // matrix path's per-round materialization costs dominate.
    if (fused.edges_per_s() < matrix.edges_per_s()) {
      std::fprintf(stderr, "FAIL: fused %.3e edges/s below matrix %.3e\n",
                   fused.edges_per_s(), matrix.edges_per_s());
      return 1;
    }
    std::printf("SMOKE OK: bit-identical, fused %.2fx matrix throughput\n",
                fused_vs_matrix);
  }
  return 0;
}

}  // namespace
}  // namespace dms

int main(int argc, char** argv) {
  bool smoke = false;
  bool compare = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--compare") {
      compare = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    }
  }
  return dms::run(smoke, compare, json_path);
}
