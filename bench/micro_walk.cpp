// Fused walk-engine microbench (plain main, no Google Benchmark): runs the
// same GraphSAINT-RW walk workload through (a) the op-by-op matrix path
// (the unoptimized plan, PlanExecOptions{.optimize = false}), (b) the
// optimized plan's fused kWalk op in original vertex order, and (c) the
// fused op with degree-sorted relabeling and cache bucketing (DESIGN.md
// §11), then reports walk throughput (surviving-walker edge traversals per
// second, PlanSampler::walk_steps over the walk-phase op seconds — the
// induced-subgraph epilogue is identical across variants and excluded).
//
// Two sections, two workload sizes: the fused-vs-matrix ratio runs a
// modest walker count (the matrix path materializes every walker's full
// adjacency row per round, so it is orders of magnitude slower), while the
// locality ratios compare the fused variants against each other at a
// walker count high enough that per-round adjacency reuse — the thing
// bucketing concentrates — actually exists.
//
// --smoke exits nonzero if the fused outputs are not bit-identical to the
// matrix path or fused throughput falls below the matrix path; --compare
// prints the fused/matrix and relabel[+bucket]/direct ratios on the
// full-size power-law graph; --json=PATH appends rows to the
// BENCH_micro.json trajectory.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <utility>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/plan_sampler.hpp"
#include "graph/generators.hpp"
#include "graph/relabel.hpp"
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

/// One measured configuration: the walk-engine options of the fused kWalk
/// op, or the unoptimized matrix path when `fused` is false.
struct Variant {
  std::string name;
  bool fused = true;
  WalkEngineOptions walk;
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
    samplers.back()->set_walk_options(v.walk);
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
  // Full size must exceed the last-level cache (the relabeling win is a
  // cache effect); smoke keeps CI fast — there the gate is correctness plus
  // fused >= matrix, not the locality ratio.
  RmatParams params;
  params.scale = smoke ? 12 : 18;
  params.edge_factor = 16.0;
  // Heavier-than-default skew: the hub rows a walk revisits are what the
  // degree-sorted layout keeps cache-resident.
  params.a = 0.7;
  params.b = 0.12;
  params.c = 0.12;
  params.seed = 5;
  const Graph raw = generate_rmat(params);
  // R-MAT places its hubs at low vertex ids by construction, which is the
  // degree-sorted layout already — scatter the ids like a real graph's
  // arbitrary numbering so the relabeling variants measure the layout, not
  // the generator.
  VertexRelabeling shuffle;
  shuffle.to_old.resize(static_cast<std::size_t>(raw.num_vertices()));
  std::iota(shuffle.to_old.begin(), shuffle.to_old.end(), 0);
  {
    Pcg32 sr(params.seed, 0x5f);
    for (index_t i = raw.num_vertices() - 1; i > 0; --i) {
      std::swap(shuffle.to_old[static_cast<std::size_t>(i)],
                shuffle.to_old[static_cast<std::size_t>(sr.bounded64(i + 1))]);
    }
  }
  shuffle.to_new.resize(shuffle.to_old.size());
  for (index_t i = 0; i < raw.num_vertices(); ++i) {
    shuffle.to_new[static_cast<std::size_t>(
        shuffle.to_old[static_cast<std::size_t>(i)])] = i;
  }
  const Graph graph(relabel_adjacency(raw.adjacency(), shuffle));
  const index_t n = graph.num_vertices();
  std::printf("micro_walk: R-MAT scale %d, %lld vertices, %lld edges\n",
              params.scale, static_cast<long long>(n),
              static_cast<long long>(graph.num_edges()));

  const index_t walk_length = 8;
  const SamplePlan plan = build_saint_plan(walk_length, /*model_layers=*/1);
  const SamplerConfig cfg = walk_adapter_config(/*model_layers=*/1, /*seed=*/1);
  const int num_batches = smoke ? 32 : 64;
  const index_t roots_per_batch = smoke ? 64 : 512;
  // The locality section runs fused-only, so it can afford the walker count
  // (~1M at full size) that makes per-round adjacency reuse measurable.
  const index_t locality_roots_per_batch = smoke ? 256 : 16384;
  const int epochs = smoke ? 3 : 3;
  const int locality_epochs = smoke ? 2 : 5;
  const auto make_batches = [&](index_t roots, std::uint64_t salt) {
    std::vector<std::vector<index_t>> batches(
        static_cast<std::size_t>(num_batches));
    Pcg32 rng(params.seed, salt);
    for (auto& batch : batches) {
      for (index_t i = 0; i < roots; ++i) batch.push_back(rng.bounded64(n));
    }
    return batches;
  };
  std::vector<index_t> ids(static_cast<std::size_t>(num_batches));
  std::iota(ids.begin(), ids.end(), 0);
  const auto batches = make_batches(roots_per_batch, 0xb57);
  const auto locality_batches =
      make_batches(locality_roots_per_batch, 0xb58);

  const Variant matrix_v{"matrix", /*fused=*/false, {}};
  const Variant direct_v{"fused", true, {.relabel = false, .bucket_bytes = 0}};
  const Variant relabel_v{
      "fused+relabel", true,
      {.relabel = true, .relabel_min_vertices = 1024, .bucket_bytes = 0}};
  const Variant full_v{"fused+relabel+bucket", true,
                       {.relabel = true, .relabel_min_vertices = 1024}};

  // Bit-identity first, outside the timed region: the fully-optimized
  // engine must reproduce the matrix path's minibatches exactly.
  bool bit_identical = true;
  {
    PlanSampler ref(graph, plan, cfg, {.optimize = false});
    PlanSampler fused(graph, plan, cfg);
    fused.set_walk_options(full_v.walk);
    bit_identical = identical(ref.sample_bulk(batches, ids, 7),
                              fused.sample_bulk(batches, ids, 7));
  }

  const std::vector<VariantResult> fm_results = run_variants(
      {matrix_v, full_v}, graph, plan, cfg, batches, ids, epochs);
  const VariantResult& matrix = fm_results[0];
  const VariantResult& fused_full = fm_results[1];

  const std::vector<VariantResult> loc_results =
      run_variants({direct_v, relabel_v, full_v}, graph, plan, cfg,
                   locality_batches, ids, locality_epochs);
  const VariantResult& direct = loc_results[0];
  const VariantResult& relabeled = loc_results[1];
  const VariantResult& full = loc_results[2];

  std::printf("Fused vs matrix (%d epochs x %d batches x %lld roots, walk "
              "length %lld):\n",
              epochs, num_batches, static_cast<long long>(roots_per_batch),
              static_cast<long long>(walk_length));
  for (const VariantResult* r : {&matrix, &fused_full}) {
    std::printf("  %-22s %12.3e edges/s  (%llu steps in %.4fs)\n",
                r->name.c_str(), r->edges_per_s(),
                static_cast<unsigned long long>(r->steps), r->walk_s);
  }
  std::printf("Locality, fused variants (%d epochs x %d batches x %lld "
              "roots):\n",
              locality_epochs, num_batches,
              static_cast<long long>(locality_roots_per_batch));
  for (const VariantResult* r : {&direct, &relabeled, &full}) {
    std::printf("  %-22s %12.3e edges/s  (%llu steps in %.4fs)\n",
                r->name.c_str(), r->edges_per_s(),
                static_cast<unsigned long long>(r->steps), r->walk_s);
  }
  const double fused_vs_matrix =
      fused_full.edges_per_s() / matrix.edges_per_s();
  const double relabel_vs_direct =
      relabeled.edges_per_s() / direct.edges_per_s();
  const double locality_vs_direct = full.edges_per_s() / direct.edges_per_s();
  std::printf("  fused vs matrix          %.2fx\n", fused_vs_matrix);
  std::printf("  relabel vs direct        %.2fx\n", relabel_vs_direct);
  std::printf("  relabel+bucket vs direct %.2fx\n", locality_vs_direct);
  std::printf("  bits %s\n", bit_identical ? "identical" : "DIFFER");
  if (compare) {
    std::printf("compare: fused/matrix %.2fx (target >= 3x), "
                "relabel+bucket/direct %.2fx (target > 1x)\n",
                fused_vs_matrix, locality_vs_direct);
  }

  if (!json_path.empty()) {
    bench::JsonWriter json(json_path, /*append=*/true);
    if (!json.ok()) {
      std::fprintf(stderr, "micro_walk: cannot open %s\n", json_path.c_str());
      return 1;
    }
    const std::string bench_id =
        std::string("micro_walk/edges_per_s") + (smoke ? " (smoke)" : "");
    for (const VariantResult* r : {&matrix, &fused_full}) {
      json.row({{"bench", bench_id},
                {"case", r->name},
                {"edges_per_s", r->edges_per_s()},
                {"walk_s", r->walk_s},
                {"steps", static_cast<double>(r->steps)},
                {"bit_identical", bit_identical ? "yes" : "no"}});
    }
    for (const VariantResult* r : {&direct, &relabeled, &full}) {
      json.row({{"bench", bench_id},
                {"case", "locality/" + r->name},
                {"edges_per_s", r->edges_per_s()},
                {"walk_s", r->walk_s},
                {"steps", static_cast<double>(r->steps)},
                {"bit_identical", bit_identical ? "yes" : "no"}});
    }
    json.row({{"bench", bench_id},
              {"case", "ratios"},
              {"fused_vs_matrix", fused_vs_matrix},
              {"relabel_vs_direct", relabel_vs_direct},
              {"locality_vs_direct", locality_vs_direct},
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
    if (fused_full.edges_per_s() < matrix.edges_per_s()) {
      std::fprintf(stderr, "FAIL: fused %.3e edges/s below matrix %.3e\n",
                   fused_full.edges_per_s(), matrix.edges_per_s());
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
