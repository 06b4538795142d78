// Ablation: staged-executor overlap × feature-cache policy × rank
// architecture (DESIGN.md §6, §14).
//
// Crosses the executor schedule {sync, overlap} and the feature-row cache
// {none, LRU, degree-pinned, pre-sample} with the rank architecture
// {colocated, disaggregated} on the Figure 4 SAGE workload, under two link
// scenarios:
//
//  - balanced:    the scaled-Perlmutter links of bench_util.hpp — sampling
//                 compute and feature movement are comparable (the regime of
//                 Figures 4-7). Colocation wins here: splitting the ranks
//                 into roles serializes sampling onto fewer ranks while the
//                 sampling phase still costs as much as training hides.
//  - fetch-bound: the same interconnect driving an accelerator generation
//                 whose bulk kernels are ~256x faster and whose launches
//                 are CUDA-graph-amortized (5us), so epoch time is bound by
//                 the feature all-to-allv — the asymptotic regime Figure
//                 4's trend points at and the one disaggregation targets
//                 (DESIGN.md §14): trainers spend their freed adjacency
//                 memory on a cache big enough to starve the fetch phase,
//                 and the sampler→trainer handoff ships compact sampled
//                 topology (fanout-bounded edges) instead of wide feature
//                 rows.
//
// Every disaggregated variant runs at the *same rank count and per-rank
// byte budget* as the colocated ones: the budget is the colocated
// footprint (full adjacency + feature block + cache + model), and the
// trainer cache capacity is whatever that budget buys once the adjacency
// is gone. The training arithmetic is identical in every variant — epoch
// losses must match bit-for-bit across schedules, policies, and
// architectures, and the harness exits nonzero if they diverge. The CI
// smoke gate (`--smoke`) additionally locks in that the pre-sample policy
// hits at least as often as the degree-pinned proxy, that the overlapped
// executor beats the synchronous one, and that the disaggregated split
// beats colocation on at least one swept scenario.
//
//   ./ablation_overlap_cache [--smoke] [--json=PATH]
//
// --smoke shrinks the dataset (seconds, CI-friendly); --json appends one
// row per (scenario, variant, epoch) to a BENCH_*.json trajectory file.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"

using namespace dms;
using namespace dms::bench;

namespace {

struct Variant {
  const char* name;
  DistMode mode;
  bool overlap;
  CachePolicy policy;
};

constexpr Variant kVariants[] = {
    {"sync/none", DistMode::kReplicated, false, CachePolicy::kNone},
    {"colo/none", DistMode::kReplicated, true, CachePolicy::kNone},
    {"colo/lru", DistMode::kReplicated, true, CachePolicy::kLru},
    {"colo/pinned", DistMode::kReplicated, true, CachePolicy::kDegreePinned},
    {"colo/presample", DistMode::kReplicated, true, CachePolicy::kPreSample},
    {"disagg/none", DistMode::kDisaggregated, true, CachePolicy::kNone},
    {"disagg/lru", DistMode::kDisaggregated, true, CachePolicy::kLru},
    {"disagg/pinned", DistMode::kDisaggregated, true, CachePolicy::kDegreePinned},
    {"disagg/presample", DistMode::kDisaggregated, true, CachePolicy::kPreSample},
};

struct Scenario {
  const char* name;
  LinkParams links;
};

/// Per-variant epoch-level results a scenario's gates compare.
struct VariantResult {
  std::string name;
  std::vector<double> loss;
  std::vector<double> total;
  std::size_t hits = 0;    // summed over epochs
  std::size_t misses = 0;
  std::size_t pinned_hits = 0;
};

LinkParams fetch_bound_links() {
  LinkParams l = perlmutter_links();
  l.compute_scale *= 1024.0;            // next-gen accelerator ...
  l.irregular_compute_scale *= 1024.0;  // ... same interconnect generation,
  l.launch_overhead = 5e-6;            // CUDA-graph-captured sampling plans
  return l;
}

const VariantResult& find(const std::vector<VariantResult>& rs, const char* name) {
  for (const auto& r : rs) {
    if (r.name == name) return r;
  }
  std::fprintf(stderr, "internal: variant %s missing\n", name);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json=PATH]\n", argv[0]);
      return 2;
    }
  }

  print_header(
      "Ablation: overlap x cache policy x rank architecture (SAGE, per-epoch)");
  StandInConfig dcfg;
  // papers100M at its real feature width (f=128, Table 3) rather than the
  // CPU-scaled arch().features: this ablation is about where feature bytes
  // go, so the fetch:handoff byte ratio should match the paper's.
  dcfg.feature_dim = 128;
  if (smoke) dcfg.scale_shift = -2;
  const Dataset ds = make_standin_by_name("papers", dcfg);
  std::fprintf(stderr, "[bench] generated %s\n", ds.graph.summary(ds.name).c_str());

  // One dedicated sampler rank (FGNN-style asymmetric provisioning at
  // p=8): the sampler holds the whole adjacency (a (1,1) sub-grid), so
  // sampling runs comm-free and the seven trainers split the freed bytes.
  const int p = 8, c = 2, samplers = 1;
  const index_t n = ds.num_vertices();
  const index_t nbatches = ds.num_batches(arch().sage_batch);
  const index_t bulk_k = std::max<index_t>(p, nbatches / 4);
  const index_t colo_cache_rows = n / 8;
  const std::size_t row_bytes =
      static_cast<std::size_t>(ds.feature_dim()) * sizeof(float);
  const int epochs = 2;

  const Scenario scenarios[] = {
      {"balanced", perlmutter_links()},
      {"fetch_bound", fetch_bound_links()},
  };

  auto make_cfg = [&](const Variant& v, index_t capacity) {
    PipelineConfig cfg;
    cfg.sampler = SamplerKind::kGraphSage;
    cfg.mode = v.mode;
    cfg.batch_size = arch().sage_batch;
    cfg.fanouts = arch().sage_fanout;
    cfg.hidden = arch().hidden;
    cfg.bulk_k = bulk_k;
    cfg.overlap = v.overlap;
    cfg.feature_cache = {v.policy, v.policy == CachePolicy::kNone ? 0 : capacity};
    cfg.presample_rounds = 4;
    cfg.disagg.sampler_ranks = samplers;
    return cfg;
  };

  JsonWriter json(json_path.empty() ? "/dev/null" : json_path, /*append=*/true);

  bool ok = true;
  bool disagg_won_somewhere = false;

  for (const Scenario& sc : scenarios) {
    // --- Per-rank byte budget: what one colocated rank holds (full
    // adjacency + feature block + cache + model). The disaggregated trainer
    // cache gets whatever the same budget buys once the adjacency is gone.
    std::size_t budget = 0;
    {
      Cluster probe_cl(ProcessGrid(p, c), CostModel(sc.links));
      Pipeline probe(probe_cl, ds,
                     make_cfg(kVariants[3] /*colo/pinned*/, colo_cache_rows));
      for (int r = 0; r < p; ++r) budget = std::max(budget, probe.per_rank_bytes(r));
    }
    std::size_t trainer_base = 0, sampler_peak = 0;
    {
      Cluster probe_cl(ProcessGrid(p, c), CostModel(sc.links));
      Pipeline probe(probe_cl, ds, make_cfg(kVariants[5] /*disagg/none*/, 0));
      for (int r = 0; r < p; ++r) {
        auto& peak = r < samplers ? sampler_peak : trainer_base;
        peak = std::max(peak, probe.per_rank_bytes(r));
      }
    }
    const index_t disagg_cache_rows = std::min<index_t>(
        n, budget > trainer_base
               ? static_cast<index_t>((budget - trainer_base) / row_bytes)
               : 0);

    print_header(std::string("scenario: ") + sc.name);
    std::printf(
        "p=%d c=%d (disagg: %d samplers / %d trainers), bulk k=%lld of %lld "
        "minibatches\nper-rank budget %.1f MB -> cache rows: colo %lld, "
        "disagg trainer %lld (of %lld total; sampler peak %.1f MB)\n\n",
        p, c, samplers, p - samplers, static_cast<long long>(bulk_k),
        static_cast<long long>(nbatches), static_cast<double>(budget) / 1e6,
        static_cast<long long>(colo_cache_rows),
        static_cast<long long>(disagg_cache_rows), static_cast<long long>(n),
        static_cast<double>(sampler_peak) / 1e6);
    print_row({"variant", "ep", "total_ms", "samp_ms", "fetch_ms", "prop_ms",
               "warm_ms", "saved_ms", "stall_ms", "hit%", "pinhit", "loss"},
              11);

    std::vector<VariantResult> results;
    for (const Variant& v : kVariants) {
      const bool disagg = v.mode == DistMode::kDisaggregated;
      const index_t capacity = disagg ? disagg_cache_rows : colo_cache_rows;
      Cluster cluster(ProcessGrid(p, c), CostModel(sc.links));
      Pipeline pipe(cluster, ds, make_cfg(v, capacity));
      VariantResult res;
      res.name = v.name;
      for (int e = 0; e < epochs; ++e) {
        const EpochStats s = pipe.run_epoch(e);
        res.loss.push_back(s.loss);
        res.total.push_back(s.total);
        res.hits += s.cache_hits;
        res.misses += s.cache_misses;
        res.pinned_hits += s.cache_pinned_hits;
        const double hit_pct = cache_hit_pct(s.cache_hits, s.cache_misses);
        print_row({v.name, std::to_string(e), fmt(s.total * 1e3),
                   fmt(s.sampling * 1e3), fmt(s.fetch * 1e3),
                   fmt(s.propagation * 1e3), fmt(s.warmup * 1e3),
                   fmt(s.overlap_saved * 1e3), fmt(s.stall * 1e3),
                   fmt(hit_pct, 1), std::to_string(s.cache_pinned_hits),
                   fmt(s.loss, 6)},
                  11);
        const std::string case_id = std::string(sc.name) + "/" + v.name;
        json.row({{"bench", "ablation_overlap_cache"},
                  {"case", case_id},
                  {"epoch", e},
                  {"p", p},
                  {"c", c},
                  {"samplers", disagg ? samplers : 0},
                  {"cache_rows", capacity},
                  {"total_sim_s", s.total},
                  {"sampling_sim_s", s.sampling},
                  {"fetch_sim_s", s.fetch},
                  {"prop_sim_s", s.propagation},
                  {"warmup_sim_s", s.warmup},
                  {"overlap_saved_sim_s", s.overlap_saved},
                  {"stall_sim_s", s.stall},
                  {"cache_hit_pct", hit_pct},
                  {"pinned_hits", static_cast<index_t>(s.cache_pinned_hits)},
                  {"fetch_bytes", static_cast<index_t>(s.fetch_bytes)},
                  {"loss", s.loss}});
      }
      results.push_back(std::move(res));
    }

    // --- Gate 1: bit-identical losses across every variant, every epoch.
    for (const VariantResult& r : results) {
      for (int e = 0; e < epochs; ++e) {
        if (r.loss[static_cast<std::size_t>(e)] !=
            results[0].loss[static_cast<std::size_t>(e)]) {
          std::fprintf(stderr,
                       "FAIL(%s): epoch %d loss of %s diverges from %s "
                       "(%.17g vs %.17g)\n",
                       sc.name, e, r.name.c_str(), results[0].name.c_str(),
                       r.loss[static_cast<std::size_t>(e)],
                       results[0].loss[static_cast<std::size_t>(e)]);
          ok = false;
        }
      }
    }

    // --- Gate 2: the pre-sample pins hit at least as often as the
    // degree-pinned proxy (same requested rows, same local set — comparing
    // raw hit counts compares hit rates).
    for (const char* a : {"colo", "disagg"}) {
      const VariantResult& pre = find(results, (std::string(a) + "/presample").c_str());
      const VariantResult& deg = find(results, (std::string(a) + "/pinned").c_str());
      if (pre.hits < deg.hits) {
        std::fprintf(stderr,
                     "FAIL(%s): %s presample hits %zu < degree-pinned %zu\n",
                     sc.name, a, pre.hits, deg.hits);
        ok = false;
      }
    }

    // --- Gate 3: the overlapped executor beats the synchronous schedule.
    const double sync_total = find(results, "sync/none").total[0] +
                              find(results, "sync/none").total[1];
    const double ovl_total = find(results, "colo/none").total[0] +
                             find(results, "colo/none").total[1];
    if (ovl_total >= sync_total) {
      std::fprintf(stderr, "FAIL(%s): overlap (%.4g s) did not beat sync (%.4g s)\n",
                   sc.name, ovl_total, sync_total);
      ok = false;
    }

    // --- Disagg vs colo, warm epoch (steady state; epoch 0 carries the
    // one-time warmup/cold-cache costs). The gate only requires a win on
    // >= 1 scenario: "balanced" is expected to favor colocation.
    double best_colo = 1e300, best_disagg = 1e300;
    std::string colo_name, disagg_name;
    for (const VariantResult& r : results) {
      const bool disagg = r.name.rfind("disagg/", 0) == 0;
      if (r.name == "sync/none") continue;
      auto& best = disagg ? best_disagg : best_colo;
      auto& name = disagg ? disagg_name : colo_name;
      if (r.total[1] < best) {
        best = r.total[1];
        name = r.name;
      }
    }
    const double gain = 1.0 - best_disagg / best_colo;
    std::printf(
        "\n%s: overlap vs sync %+.1f%%; best warm epoch: %s %.3f ms vs %s "
        "%.3f ms (disagg %+.1f%%)\n",
        sc.name, 100.0 * (1.0 - ovl_total / sync_total), disagg_name.c_str(),
        best_disagg * 1e3, colo_name.c_str(), best_colo * 1e3, 100.0 * gain);
    if (best_disagg < best_colo) disagg_won_somewhere = true;
  }

  std::printf("\nlosses bit-identical across all %zu variants in every "
              "scenario: %s\n",
              std::size(kVariants), ok ? "yes" : "NO");
  if (!disagg_won_somewhere) {
    std::fprintf(stderr,
                 "FAIL: disaggregated ranks never beat colocated ranks on any "
                 "swept scenario\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
