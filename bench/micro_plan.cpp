// Plan-executor overhead + optimizer microbench (plain main, no Google
// Benchmark). Two comparisons:
//  (a) plan executor vs a hand-rolled "direct" loop calling the kernels the
//      optimized GraphSAGE/LADIES plans run — the IR abstraction must stay
//      free;
//  (b) optimized vs unoptimized execution of the sage plan, the one
//      layer-wise plan a DESIGN.md §12 rewrite changes — the optimizer must
//      be bit-identical and must not lose to the unoptimized plan.
// --smoke exits nonzero if any output pair is not bit-identical, executor
// overhead exceeds 3%, the optimizer does not rewrite exactly what it should
// (each walk body -> one kWalk op, sage's product -> the in-place adjacency
// draw, LABOR, LADIES and FastGCN left unchanged, partitioned sage and
// LADIES samplers running their builder plans as built), or the optimized
// sage plan regresses past noise; --json=PATH appends rows to the
// BENCH_micro.json trajectory; --dump-plan prints each builtin plan's
// listing and its optimize() diff, then exits.
#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/frontier.hpp"
#include "core/graphsage.hpp"
#include "core/its.hpp"
#include "core/ladies.hpp"
#include "core/minibatch.hpp"
#include "core/plan_sampler.hpp"
#include "dist/dist_sampler.hpp"
#include "plan/builders.hpp"
#include "plan/executor.hpp"
#include "plan/optimize.hpp"
#include "sparse/spgemm_engine.hpp"

namespace dms {
namespace {

// --- direct references: the optimized plans' kernel calls, inlined ---------

/// The optimized sage plan draws every fanout from the adjacency in place
/// (its kBuildQ builds only the stack), so the reference stacks the
/// frontiers and calls the same draw, over a table built once like the
/// executor's.
std::vector<MinibatchSample> direct_sage(
    const AdjacencyDraw& draw, const SamplerConfig& cfg,
    const std::vector<std::vector<index_t>>& batches,
    const std::vector<index_t>& batch_ids, std::uint64_t epoch_seed,
    Workspace& ws) {
  const auto k = static_cast<index_t>(batches.size());
  std::vector<MinibatchSample> out(static_cast<std::size_t>(k));
  std::vector<std::vector<index_t>> frontier(static_cast<std::size_t>(k));
  for (index_t i = 0; i < k; ++i) {
    out[static_cast<std::size_t>(i)].batch_vertices = batches[static_cast<std::size_t>(i)];
    frontier[static_cast<std::size_t>(i)] = batches[static_cast<std::size_t>(i)];
  }
  for (index_t l = 0; l < cfg.num_layers(); ++l) {
    const index_t s = cfg.fanouts[static_cast<std::size_t>(l)];
    const FrontierStack stack = stack_frontiers(frontier);
    const CsrMatrix qs = draw.sample_rows(
        stack.vertices, s,
        row_seed_fn(&stack, batches.size(), batch_ids, 0,
                    static_cast<std::uint64_t>(l), SeedRowTerm::kLocalRow,
                    epoch_seed),
        &ws);
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
      SpgemmOptions mopts;
      mopts.workspace = &ws;
      const CsrMatrix a_s = spgemm_masked(graph.adjacency(), rows, sampled, mopts);
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

double mean(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

struct CaseResult {
  std::vector<double> direct_reps;  // seconds per rep (all its epochs)
  std::vector<double> plan_reps;
  bool bit_identical = false;
  double direct_s() const { return mean(direct_reps); }
  double plan_s() const { return mean(plan_reps); }
  /// Summed plan time over summed direct time, minus 1, over every timed
  /// epoch: what the plan path costs on average, so a cost that lands on
  /// one epoch in ten, or once per rep, counts in full. Interleaving the
  /// paths epoch by epoch cancels drift; the epoch count (not a robust
  /// statistic, which would discard such costs with the jitter) keeps
  /// host jitter small.
  double overhead() const { return combined_overhead({this}); }

  /// The same ratio over several cases' summed times (every case runs the
  /// same number of reps).
  static double combined_overhead(std::initializer_list<const CaseResult*> cases) {
    double direct = 0.0, plan = 0.0;
    for (const CaseResult* c : cases) {
      direct += c->direct_s();
      plan += c->plan_s();
    }
    return plan / direct - 1.0;
  }
};

/// Times two paths that must produce identical samples: `direct(seed)` and
/// `plan(seed)` each run one epoch. One warm-up epoch per path populates
/// the workspaces; then each rep checks bits on its own seed, outside the
/// clock, and times `inner` epochs of each path interleaved epoch by epoch,
/// flipping which path goes first, so host contention that outlasts an
/// epoch lands on both paths of the pair rather than on one.
template <typename DirectFn, typename PlanFn>
CaseResult measure_pair(DirectFn&& direct, PlanFn&& plan, int reps, int inner) {
  CaseResult r;
  r.bit_identical = true;
  (void)direct(0);
  (void)plan(0);
  for (int rep = 1; rep <= reps; ++rep) {
    const auto check_seed = static_cast<std::uint64_t>(rep);
    r.bit_identical = r.bit_identical && identical(direct(check_seed), plan(check_seed));
    double direct_s = 0.0, plan_s = 0.0;
    for (int e = 0; e < inner; ++e) {
      const auto seed = static_cast<std::uint64_t>(rep * inner + e);
      const bool direct_first = (rep + e) % 2 == 0;
      for (int k = 0; k < 2; ++k) {
        Timer t;
        if ((k == 0) == direct_first) {
          (void)direct(seed);
          direct_s += t.seconds();
        } else {
          (void)plan(seed);
          plan_s += t.seconds();
        }
      }
    }
    r.direct_reps.push_back(direct_s);
    r.plan_reps.push_back(plan_s);
  }
  return r;
}

template <typename DirectFn>
CaseResult run_case(const MatrixSampler& plan_sampler, DirectFn&& direct,
                    const Graph& graph, const SamplerConfig& cfg,
                    const std::vector<std::vector<index_t>>& batches, int reps,
                    int inner) {
  std::vector<index_t> ids(batches.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<index_t>(i);
  Workspace direct_ws;
  return measure_pair(
      [&](std::uint64_t seed) { return direct(graph, cfg, batches, ids, seed, direct_ws); },
      [&](std::uint64_t seed) { return plan_sampler.sample_bulk(batches, ids, seed); },
      reps, inner);
}

// --- optimizer: optimized vs unoptimized execution of the same plan --------

/// Reuses CaseResult with direct_reps = the unoptimized plan and plan_reps =
/// the optimized one, so overhead() is the optimizer's cost (negative = the
/// optimizer wins).
CaseResult run_opt_case(const SamplePlan& plan, const Graph& graph,
                        const SamplerConfig& cfg,
                        const std::vector<std::vector<index_t>>& batches,
                        int reps, int inner) {
  std::vector<index_t> ids(batches.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<index_t>(i);
  const PlanExecutor unopt(plan, cfg, {/*optimize=*/false});
  const PlanExecutor opt(plan, cfg);
  PlanRunState state_u, state_o;
  return measure_pair(
      [&](std::uint64_t seed) { return unopt.run(graph, batches, ids, seed, state_u); },
      [&](std::uint64_t seed) { return opt.run(graph, batches, ids, seed, state_o); },
      reps, inner);
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
  // 15 reps of ~0.4-0.7 s per path and case (in smoke runs, 480 sage and
  // 2,880 LADIES epoch pairs). A summed ratio keeps all of the host's
  // jitter, so it needs the time: at a quarter of it, its combined figure
  // spread ±2% between runs on a shared 4-vCPU host, two thirds of the 3%
  // margin.
  const int reps = 15;
  auto batches = make_epoch_batches(ds.train_idx, bench::arch().sage_batch, 1);
  batches.resize(std::min<std::size_t>(batches.size(), smoke ? 16 : 64));

  const SamplerConfig sage_cfg{bench::arch().sage_fanout, 1};
  const SamplerConfig ladies_cfg{{bench::arch().ladies_s}, 1};
  PlanSampler sage(ds.graph, build_sage_plan(), sage_cfg);
  PlanSampler ladies(ds.graph, build_ladies_plan(), ladies_cfg);

  const AdjacencyDraw sage_draw(ds.graph.adjacency());
  const auto direct_sage_fn = [&sage_draw](const Graph&, auto&&... args) {
    return direct_sage(sage_draw, args...);
  };
  // sage epochs are ~20 ms and LADIES epochs ~2-3 ms in smoke runs; loop
  // them so each timed sample is long enough to be stable. Full runs'
  // epochs are 4x longer (64 minibatches), so they loop a quarter as often.
  const int loops = smoke ? 4 : 1;
  const CaseResult sage_r =
      run_case(sage, direct_sage_fn, ds.graph, sage_cfg, batches, reps, 8 * loops);
  const CaseResult ladies_r = run_case(ladies, direct_ladies, ds.graph, ladies_cfg,
                                       batches, reps, 48 * loops);

  std::printf("Plan-executor overhead vs direct kernel calls (%s, %zu "
              "minibatches, %d reps; overhead = summed plan / summed direct):\n",
              ds.name.c_str(), batches.size(), reps);
  std::printf("  %-8s direct %.4fs  plan %.4fs  overhead %+.2f%%  bits %s\n",
              "sage", sage_r.direct_s(), sage_r.plan_s(), 100.0 * sage_r.overhead(),
              sage_r.bit_identical ? "identical" : "DIFFER");
  std::printf("  %-8s direct %.4fs  plan %.4fs  overhead %+.2f%%  bits %s\n",
              "ladies", ladies_r.direct_s(), ladies_r.plan_s(),
              100.0 * ladies_r.overhead(),
              ladies_r.bit_identical ? "identical" : "DIFFER");

  // The gate is the combined workload, what a training epoch actually pays:
  // both cases' summed plan time over their summed direct time.
  const double combined = CaseResult::combined_overhead({&sage_r, &ladies_r});
  std::printf("  combined overhead %+.2f%%\n", 100.0 * combined);

  // Optimized vs unoptimized sage plan (the DESIGN.md §12 in-place draw:
  // sage draws its fanout from the adjacency instead of building P, a
  // several-fold win). LABOR, LADIES and FastGCN optimize to themselves,
  // so their optimized and unoptimized runs are one program: they are
  // checked structurally below, not timed.
  const CaseResult opt_r =
      run_opt_case(build_sage_plan(), ds.graph, sage_cfg, batches, reps, 1);

  // What the optimizer must rewrite: each walk body into one kWalk op and
  // sage's product into the in-place adjacency draw — and nothing else.
  bool walks_fused = true;
  for (const SamplePlan& walk :
       {build_saint_plan(3, 2), build_node2vec_plan(3, 2, 0.5, 2.0)}) {
    const SamplePlan after = optimize(walk);
    walks_fused = walks_fused && after.body.size() == 1 &&
                  after.body[0].kind == PlanOpKind::kWalk;
  }
  bool sage_in_place = true;
  for (const PlanOp& op : optimize(build_sage_plan()).body) {
    sage_in_place = sage_in_place && op.kind != PlanOpKind::kSpgemm &&
                    (op.kind != PlanOpKind::kItsSample ||
                     op.source == SampleSource::kAdjacencyRows);
  }
  bool others_unchanged = true;
  for (const SamplePlan& p :
       {build_labor_plan(), build_ladies_plan(), build_fastgcn_plan()}) {
    others_unchanged =
        others_unchanged && plan_signature(optimize(p)) == plan_signature(p);
  }
  // Partitioned samplers run their builder plans as built: the run, not the
  // plan, picks the 1.5D collectives.
  const ProcessGrid grid(4, 2);
  const PartitionedSamplerBase part_sage(ds.graph, grid, build_sage_plan(), sage_cfg);
  const PartitionedSamplerBase part_ladies(ds.graph, grid, build_ladies_plan(),
                                           ladies_cfg);
  const bool partitioned_as_built =
      plan_signature(part_sage.plan()) == plan_signature(build_sage_plan()) &&
      plan_signature(part_ladies.plan()) == plan_signature(build_ladies_plan());

  std::printf("Optimized vs unoptimized plan execution (summed over %d "
              "epoch pairs):\n", reps);
  std::printf("  %-8s unopt %.4fs  opt %.4fs  speedup %+.2f%%  bits %s\n",
              "sage", opt_r.direct_s(), opt_r.plan_s(), -100.0 * opt_r.overhead(),
              opt_r.bit_identical ? "identical" : "DIFFER");
  std::printf("  walk bodies -> kWalk: %s; sage draws from the adjacency in "
              "place: %s; labor, ladies, fastgcn unchanged: %s; partitioned "
              "sage, ladies run as built: %s\n",
              walks_fused ? "yes" : "NO", sage_in_place ? "yes" : "NO",
              others_unchanged ? "yes" : "NO", partitioned_as_built ? "yes" : "NO");

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
    json.row({{"bench", opt_id},
              {"case", "sage"},
              {"unopt_s", opt_r.direct_s()},
              {"opt_s", opt_r.plan_s()},
              {"speedup_pct", -100.0 * opt_r.overhead()},
              {"bit_identical", opt_r.bit_identical ? "yes" : "no"}});
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
    // The optimizer must earn its keep: bit-identical always; it must
    // rewrite exactly the plans it exists to rewrite; and the optimized
    // sage plan must not lose to the unoptimized one. The bound mirrors the
    // executor's per-case gate above; a real regression shows up far past
    // it.
    constexpr double kMaxOptRegress = 0.10;
    if (!opt_r.bit_identical) {
      std::fprintf(stderr,
                   "FAIL: optimized plan outputs diverge from unoptimized\n");
      return 1;
    }
    if (!walks_fused) {
      std::fprintf(stderr,
                   "FAIL: a walk body did not rewrite to one kWalk op\n");
      return 1;
    }
    if (!sage_in_place) {
      std::fprintf(stderr,
                   "FAIL: the sage plan still builds its probability product\n");
      return 1;
    }
    if (!others_unchanged) {
      std::fprintf(stderr,
                   "FAIL: optimize() rewrote a LABOR, LADIES or FastGCN plan\n");
      return 1;
    }
    if (!partitioned_as_built) {
      std::fprintf(stderr,
                   "FAIL: a partitioned sampler does not run its builder plan\n");
      return 1;
    }
    if (opt_r.overhead() > kMaxOptRegress) {
      std::fprintf(stderr,
                   "FAIL: optimized sage plan slower than unoptimized "
                   "(%+.2f%%, allowed %.0f%%)\n",
                   100.0 * opt_r.overhead(), 100.0 * kMaxOptRegress);
      return 1;
    }
    std::printf("SMOKE OK: bit-identical, combined overhead under %.0f%%, "
                "per-case under %.0f%%, optimized sage plan no worse than "
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
