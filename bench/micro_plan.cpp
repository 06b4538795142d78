// Plan-executor overhead + optimizer microbench (plain main, no Google
// Benchmark). Two comparisons:
//  (a) plan executor vs a hand-rolled "direct" loop replaying the pre-IR
//      GraphSAGE/LADIES call sequence — the IR abstraction must stay free;
//  (b) optimized vs unoptimized plan execution (the DESIGN.md §12
//      rewrites) on the sage, LABOR, LADIES and FastGCN shapes — the
//      optimizer must be bit-identical and must not lose to the unfused
//      plans.
// --smoke exits nonzero if any output pair is not bit-identical, executor
// overhead exceeds 3%, the optimizer does not fuse exactly what it should
// (LADIES 7 -> 6 ops, each walk body -> one kWalk op), or optimized plans
// regress past noise; --json=PATH appends rows to the BENCH_micro.json
// trajectory; --dump-plan prints each builtin plan's listing and its
// optimize() diff, then exits.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/fastgcn.hpp"
#include "core/frontier.hpp"
#include "core/graphsage.hpp"
#include "core/its.hpp"
#include "core/ladies.hpp"
#include "core/minibatch.hpp"
#include "core/plan_sampler.hpp"
#include "plan/builders.hpp"
#include "plan/executor.hpp"
#include "plan/optimize.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm_engine.hpp"

namespace dms {
namespace {

// --- direct references: the pre-IR sampler bodies, inlined -----------------

std::vector<MinibatchSample> direct_sage(
    const Graph& graph, const SamplerConfig& cfg,
    const std::vector<std::vector<index_t>>& batches,
    const std::vector<index_t>& batch_ids, std::uint64_t epoch_seed,
    Workspace& ws) {
  const auto k = static_cast<index_t>(batches.size());
  const index_t n = graph.num_vertices();
  std::vector<MinibatchSample> out(static_cast<std::size_t>(k));
  std::vector<std::vector<index_t>> frontier(static_cast<std::size_t>(k));
  for (index_t i = 0; i < k; ++i) {
    out[static_cast<std::size_t>(i)].batch_vertices = batches[static_cast<std::size_t>(i)];
    frontier[static_cast<std::size_t>(i)] = batches[static_cast<std::size_t>(i)];
  }
  for (index_t l = 0; l < cfg.num_layers(); ++l) {
    const index_t s = cfg.fanouts[static_cast<std::size_t>(l)];
    const FrontierStack stack = stack_frontiers(frontier);
    const CsrMatrix q = CsrMatrix::one_nonzero_per_row(n, stack.vertices);
    SpgemmOptions sopts;
    sopts.workspace = &ws;
    CsrMatrix p = spgemm(q, graph.adjacency(), sopts);
    normalize_rows(p);
    const CsrMatrix qs = its_sample_rows(
        p, s, sage_row_seed_fn(stack, batch_ids, 0, l, epoch_seed), &ws);
    for (index_t i = 0; i < k; ++i) {
      LayerSample layer = sage_extract_layer(qs, stack, static_cast<std::size_t>(i),
                                             frontier[static_cast<std::size_t>(i)]);
      frontier[static_cast<std::size_t>(i)] = layer.col_vertices;
      out[static_cast<std::size_t>(i)].layers.push_back(std::move(layer));
    }
  }
  return out;
}

std::vector<MinibatchSample> direct_ladies(
    const Graph& graph, const SamplerConfig& cfg,
    const std::vector<std::vector<index_t>>& batches,
    const std::vector<index_t>& batch_ids, std::uint64_t epoch_seed,
    Workspace& ws) {
  const auto k = static_cast<index_t>(batches.size());
  const index_t n = graph.num_vertices();
  std::vector<MinibatchSample> out(static_cast<std::size_t>(k));
  std::vector<std::vector<index_t>> current(static_cast<std::size_t>(k));
  for (index_t i = 0; i < k; ++i) {
    out[static_cast<std::size_t>(i)].batch_vertices = batches[static_cast<std::size_t>(i)];
    current[static_cast<std::size_t>(i)] = batches[static_cast<std::size_t>(i)];
  }
  for (index_t l = 0; l < cfg.num_layers(); ++l) {
    const index_t s = cfg.fanouts[static_cast<std::size_t>(l)];
    const CsrMatrix q = ladies_indicator_rows(n, current);
    SpgemmOptions popts;
    popts.workspace = &ws;
    CsrMatrix p = spgemm(q, graph.adjacency(), popts);
    ladies_norm(p);
    const CsrMatrix qs = its_sample_rows(
        p, s,
        [&](index_t row) {
          return derive_seed(
              epoch_seed,
              static_cast<std::uint64_t>(batch_ids[static_cast<std::size_t>(row)]),
              static_cast<std::uint64_t>(l), 0);
        },
        &ws);
    for (index_t i = 0; i < k; ++i) {
      const auto& rows = current[static_cast<std::size_t>(i)];
      std::vector<index_t> sampled(qs.row_cols(i).begin(), qs.row_cols(i).end());
      const CsrMatrix qr = CsrMatrix::one_nonzero_per_row(n, rows);
      SpgemmOptions mopts;
      mopts.column_mask = &sampled;
      mopts.workspace = &ws;
      const CsrMatrix a_s = spgemm(qr, graph.adjacency(), mopts);
      LayerSample layer = ladies_assemble_layer(rows, sampled, a_s);
      current[static_cast<std::size_t>(i)] = layer.col_vertices;
      out[static_cast<std::size_t>(i)].layers.push_back(std::move(layer));
    }
  }
  return out;
}

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

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

struct CaseResult {
  std::vector<double> direct_reps;  // seconds per rep, paired with plan_reps
  std::vector<double> plan_reps;
  bool bit_identical = false;
  double direct_s() const { return median(direct_reps); }
  double plan_s() const { return median(plan_reps); }
  /// Median of the per-rep paired ratios: each rep measures both paths
  /// back-to-back, so the ratio cancels frequency/contention drift and the
  /// median discards outlier reps.
  double overhead() const {
    std::vector<double> ratios(direct_reps.size());
    for (std::size_t i = 0; i < ratios.size(); ++i) {
      ratios[i] = plan_reps[i] / direct_reps[i] - 1.0;
    }
    return median(ratios);
  }
};

template <typename DirectFn>
CaseResult run_case(const MatrixSampler& plan_sampler, DirectFn&& direct,
                    const Graph& graph, const SamplerConfig& cfg,
                    const std::vector<std::vector<index_t>>& batches, int reps,
                    int inner) {
  std::vector<index_t> ids(batches.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<index_t>(i);
  Workspace direct_ws;
  CaseResult r;
  r.bit_identical = true;
  // One warm-up epoch per path populates both workspaces, then alternating
  // paired measurements summarized by medians (pairing cancels drift
  // between the paths, the median discards outlier reps). `inner` epochs
  // per measurement keep each sample long enough for the clock to resolve
  // the small LADIES workload.
  (void)direct(graph, cfg, batches, ids, 0, direct_ws);
  (void)plan_sampler.sample_bulk(batches, ids, 0);
  for (int rep = 1; rep <= reps; ++rep) {
    // Correctness first, outside the timed region.
    const auto check_seed = static_cast<std::uint64_t>(rep);
    r.bit_identical =
        r.bit_identical &&
        identical(direct(graph, cfg, batches, ids, check_seed, direct_ws),
                  plan_sampler.sample_bulk(batches, ids, check_seed));
    Timer td;
    for (int e = 0; e < inner; ++e) {
      (void)direct(graph, cfg, batches, ids,
                   static_cast<std::uint64_t>(rep * inner + e), direct_ws);
    }
    r.direct_reps.push_back(td.seconds());
    Timer tp;
    for (int e = 0; e < inner; ++e) {
      (void)plan_sampler.sample_bulk(
          batches, ids, static_cast<std::uint64_t>(rep * inner + e));
    }
    r.plan_reps.push_back(tp.seconds());
  }
  return r;
}

// --- optimizer: optimized vs unoptimized execution of the same plan --------

/// Reuses CaseResult with direct_reps = the unoptimized plan and plan_reps =
/// the optimized one, so overhead() is the optimizer's cost (negative = the
/// optimizer wins).
CaseResult run_opt_case(const SamplePlan& plan, const Graph& graph,
                        const SamplerConfig& cfg,
                        const std::vector<std::vector<index_t>>& batches,
                        int reps, int inner,
                        const std::vector<value_t>* weights) {
  std::vector<index_t> ids(batches.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<index_t>(i);
  const PlanExecutor unopt(plan, cfg, {/*optimize=*/false});
  const PlanExecutor opt(plan, cfg);
  PlanRunState state_u, state_o;
  CaseResult r;
  r.bit_identical = true;
  (void)unopt.run(graph, batches, ids, 0, state_u, weights);
  (void)opt.run(graph, batches, ids, 0, state_o, weights);
  for (int rep = 1; rep <= reps; ++rep) {
    const auto check_seed = static_cast<std::uint64_t>(rep);
    r.bit_identical =
        r.bit_identical &&
        identical(unopt.run(graph, batches, ids, check_seed, state_u, weights),
                  opt.run(graph, batches, ids, check_seed, state_o, weights));
    Timer tu;
    for (int e = 0; e < inner; ++e) {
      (void)unopt.run(graph, batches, ids,
                      static_cast<std::uint64_t>(rep * inner + e), state_u, weights);
    }
    r.direct_reps.push_back(tu.seconds());
    Timer to;
    for (int e = 0; e < inner; ++e) {
      (void)opt.run(graph, batches, ids,
                    static_cast<std::uint64_t>(rep * inner + e), state_o, weights);
    }
    r.plan_reps.push_back(to.seconds());
  }
  return r;
}

std::size_t op_count(const SamplePlan& p) {
  return p.body.size() + p.epilogue.size();
}

// --- --dump-plan: listings and optimize() diffs for the builtin plans ------

int dump_plans() {
  const std::vector<std::pair<const char*, SamplePlan>> plans = {
      {"sage", build_sage_plan()},
      {"ladies", build_ladies_plan()},
      {"fastgcn", build_fastgcn_plan()},
      {"labor", build_labor_plan()},
      {"saint_rw", build_saint_plan(3, 2)},
      {"node2vec", build_node2vec_plan(3, 2, 0.5, 2.0)},
      {"ladies (lowered)", lower_to_dist(build_ladies_plan())},
  };
  for (const auto& [name, plan] : plans) {
    const SamplePlan after = optimize(plan);
    std::printf("=== %s: %zu ops -> %zu ops ===\n%s", name, op_count(plan),
                op_count(after), describe(plan).c_str());
    std::printf("--- optimize() diff ---\n%s\n",
                describe_diff(plan, after).c_str());
  }
  return 0;
}

int run(bool smoke, const std::string& json_path) {
  const Dataset& ds = bench::dataset("products");
  const int reps = smoke ? 7 : 11;
  auto batches = make_epoch_batches(ds.train_idx, bench::arch().sage_batch, 1);
  batches.resize(std::min<std::size_t>(batches.size(), smoke ? 16 : 64));

  const SamplerConfig sage_cfg{bench::arch().sage_fanout, 1};
  const SamplerConfig ladies_cfg{{bench::arch().ladies_s}, 1};
  PlanSampler sage(ds.graph, build_sage_plan(), sage_cfg);
  PlanSampler ladies(ds.graph, build_ladies_plan(), ladies_cfg);

  // LADIES epochs are milliseconds at bench scale; loop them so each timed
  // sample is long enough for a stable min.
  const CaseResult sage_r =
      run_case(sage, direct_sage, ds.graph, sage_cfg, batches, reps, 1);
  const CaseResult ladies_r =
      run_case(ladies, direct_ladies, ds.graph, ladies_cfg, batches, reps, 24);

  std::printf("Plan-executor overhead vs direct kernel calls (%s, %zu "
              "minibatches, median of %d paired reps):\n",
              ds.name.c_str(), batches.size(), reps);
  std::printf("  %-8s direct %.4fs  plan %.4fs  overhead %+.2f%%  bits %s\n",
              "sage", sage_r.direct_s(), sage_r.plan_s(), 100.0 * sage_r.overhead(),
              sage_r.bit_identical ? "identical" : "DIFFER");
  std::printf("  %-8s direct %.4fs  plan %.4fs  overhead %+.2f%%  bits %s\n",
              "ladies", ladies_r.direct_s(), ladies_r.plan_s(),
              100.0 * ladies_r.overhead(),
              ladies_r.bit_identical ? "identical" : "DIFFER");

  // The gate is the combined workload: per-case numbers on millisecond
  // epochs swing a few percent with allocator/cache state, but the summed
  // min-of-reps is stable and is what a training epoch actually pays.
  const double combined =
      (sage_r.plan_s() + ladies_r.plan_s()) /
          (sage_r.direct_s() + ladies_r.direct_s()) -
      1.0;
  std::printf("  combined overhead %+.2f%%\n", 100.0 * combined);

  // Optimized vs unoptimized plans (the DESIGN.md §12 rewrites). sage and
  // LABOR are where normalize fusion pays (the SpGEMM engine's parallel
  // per-block epilogue replaces a serial pass over the product); LADIES
  // fuses the same normalize into a one-row-per-batch product; FastGCN has
  // nothing to fuse, so it measures the optimizer's no-op cost. LADIES and
  // FastGCN epochs are milliseconds, so each sample loops 24 of them.
  const std::vector<value_t> fg_weights = fastgcn_importance_prefix(ds.graph);
  struct OptCase {
    const char* name;
    SamplePlan plan;
    const SamplerConfig& cfg;
    int inner;
    const std::vector<value_t>* weights;
  };
  const OptCase opt_cases[] = {
      {"sage", build_sage_plan(), sage_cfg, 1, nullptr},
      {"labor", build_labor_plan(), sage_cfg, 1, nullptr},
      {"ladies", build_ladies_plan(), ladies_cfg, 24, nullptr},
      {"fastgcn", build_fastgcn_plan(), ladies_cfg, 24, &fg_weights},
  };
  std::vector<CaseResult> opt_results;
  for (const OptCase& c : opt_cases) {
    opt_results.push_back(run_opt_case(c.plan, ds.graph, c.cfg, batches, reps,
                                       c.inner, c.weights));
  }
  double opt_unopt_s = 0.0, opt_opt_s = 0.0;
  bool opt_identical = true;
  double opt_worst_case = -1.0;
  for (const CaseResult& r : opt_results) {
    opt_unopt_s += r.direct_s();
    opt_opt_s += r.plan_s();
    opt_identical = opt_identical && r.bit_identical;
    opt_worst_case = std::max(opt_worst_case, r.overhead());
  }
  const double opt_combined = opt_opt_s / opt_unopt_s - 1.0;

  // What the optimizer must fuse: LADIES' normalize (7 -> 6 body ops), and
  // each walk body into one kWalk op.
  const SamplePlan ladies_plan = build_ladies_plan();
  const std::size_t ladies_ops_saved =
      op_count(ladies_plan) - op_count(optimize(ladies_plan));
  bool walks_fused = true;
  for (const SamplePlan& walk :
       {build_saint_plan(3, 2), build_node2vec_plan(3, 2, 0.5, 2.0)}) {
    const SamplePlan after = optimize(walk);
    walks_fused = walks_fused && after.body.size() == 1 &&
                  after.body[0].kind == PlanOpKind::kWalk;
  }

  std::printf("Optimized vs unoptimized plan execution (median of %d paired "
              "reps):\n", reps);
  for (std::size_t i = 0; i < opt_results.size(); ++i) {
    const CaseResult& r = opt_results[i];
    std::printf("  %-8s unopt %.4fs  opt %.4fs  speedup %+.2f%%  bits %s\n",
                opt_cases[i].name, r.direct_s(), r.plan_s(),
                -100.0 * r.overhead(), r.bit_identical ? "identical" : "DIFFER");
  }
  std::printf("  combined speedup %+.2f%% (ladies body: %zu op fused away; "
              "walk bodies -> kWalk: %s)\n",
              -100.0 * opt_combined, ladies_ops_saved,
              walks_fused ? "yes" : "NO");

  if (!json_path.empty()) {
    bench::JsonWriter json(json_path, /*append=*/true);
    if (!json.ok()) {
      std::fprintf(stderr, "micro_plan: cannot open %s\n", json_path.c_str());
      return 1;
    }
    const std::string bench_id =
        std::string("micro_plan/overhead") + (smoke ? " (smoke)" : "");
    for (const auto& [name, r] :
         {std::pair<const char*, const CaseResult&>{"sage", sage_r},
          std::pair<const char*, const CaseResult&>{"ladies", ladies_r}}) {
      json.row({{"bench", bench_id},
                {"case", name},
                {"direct_s", r.direct_s()},
                {"plan_s", r.plan_s()},
                {"overhead_pct", 100.0 * r.overhead()},
                {"bit_identical", r.bit_identical ? "yes" : "no"}});
    }
    json.row({{"bench", bench_id},
              {"case", "combined"},
              {"direct_s", sage_r.direct_s() + ladies_r.direct_s()},
              {"plan_s", sage_r.plan_s() + ladies_r.plan_s()},
              {"overhead_pct", 100.0 * combined},
              {"bit_identical",
               sage_r.bit_identical && ladies_r.bit_identical ? "yes" : "no"}});
    const std::string opt_id =
        std::string("micro_plan/optimize") + (smoke ? " (smoke)" : "");
    for (std::size_t i = 0; i < opt_results.size(); ++i) {
      const CaseResult& r = opt_results[i];
      json.row({{"bench", opt_id},
                {"case", opt_cases[i].name},
                {"unopt_s", r.direct_s()},
                {"opt_s", r.plan_s()},
                {"speedup_pct", -100.0 * r.overhead()},
                {"bit_identical", r.bit_identical ? "yes" : "no"}});
    }
    json.row({{"bench", opt_id},
              {"case", "combined"},
              {"unopt_s", opt_unopt_s},
              {"opt_s", opt_opt_s},
              {"speedup_pct", -100.0 * opt_combined},
              {"bit_identical", opt_identical ? "yes" : "no"}});
    std::printf("JSON appended to %s\n", json_path.c_str());
  }

  if (smoke) {
    // The IR must stay free: combined overhead under 3%, and neither case
    // may regress badly on its own (the per-case numbers swing a few
    // percent with allocator/cache state on millisecond epochs, so the
    // per-case bound is looser — it catches structural regressions, not
    // noise, which the combined gate would otherwise hide behind the
    // larger SAGE workload).
    constexpr double kMaxCombined = 0.03;
    constexpr double kMaxPerCase = 0.10;
    if (!sage_r.bit_identical || !ladies_r.bit_identical) {
      std::fprintf(stderr, "FAIL: plan outputs diverge from direct outputs\n");
      return 1;
    }
    if (combined > kMaxCombined) {
      std::fprintf(stderr, "FAIL: combined executor overhead %.2f%% above %.0f%%\n",
                   100.0 * combined, 100.0 * kMaxCombined);
      return 1;
    }
    if (sage_r.overhead() > kMaxPerCase || ladies_r.overhead() > kMaxPerCase) {
      std::fprintf(stderr, "FAIL: per-case executor overhead above %.0f%%\n",
                   100.0 * kMaxPerCase);
      return 1;
    }
    // The optimizer must earn its keep: bit-identical always; it must fuse
    // exactly the ops it exists to fuse; and the optimized plans must not
    // lose to the unoptimized ones. Bounds mirror the executor gate above:
    // per-case numbers swing several percent with machine state (FastGCN's
    // optimized plan is structurally identical to its unoptimized one, so
    // its case is pure noise floor), while the combined number is stable; a
    // real regression shows up far past both.
    constexpr double kMaxOptRegress = 0.03;
    constexpr double kMaxOptRegressPerCase = 0.10;
    if (!opt_identical) {
      std::fprintf(stderr,
                   "FAIL: optimized plan outputs diverge from unoptimized\n");
      return 1;
    }
    if (ladies_ops_saved != 1) {
      std::fprintf(stderr, "FAIL: optimizer fused %zu LADIES ops, expected 1\n",
                   ladies_ops_saved);
      return 1;
    }
    if (!walks_fused) {
      std::fprintf(stderr,
                   "FAIL: a walk body did not rewrite to one kWalk op\n");
      return 1;
    }
    if (opt_worst_case > kMaxOptRegressPerCase || opt_combined > kMaxOptRegress) {
      std::fprintf(stderr,
                   "FAIL: optimized plans slower than unoptimized (worst "
                   "case %+.2f%%, combined %+.2f%%, allowed %.0f%% / %.0f%%)\n",
                   100.0 * opt_worst_case, 100.0 * opt_combined,
                   100.0 * kMaxOptRegressPerCase, 100.0 * kMaxOptRegress);
      return 1;
    }
    std::printf("SMOKE OK: bit-identical, combined overhead under %.0f%%, "
                "per-case under %.0f%%, optimized plans no worse than "
                "unoptimized\n",
                100.0 * kMaxCombined, 100.0 * kMaxPerCase);
  }
  return 0;
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
    } else if (arg == "--dump-plan") {
      return dms::dump_plans();
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    }
  }
  return dms::run(smoke, json_path);
}
