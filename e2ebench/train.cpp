// Training workloads: closed-loop epochs through Pipeline (untraced), and the
// traced loop that repeats the same epochs call by call.
//
// Untraced run (--trace 0): three independent runs, each a fresh Cluster +
// Pipeline (the set-up), a warm-up of the first bulk round of epoch 0, then
// E timed epochs, and their per-epoch loss sequences must be bit-identical.
// E follows from --seconds and the workload's sized epoch time, never from
// this host's speed, so every commit runs and digests the same epochs.
//
// Traced run (--trace 1): one untraced reference run for the EpochStats and
// Cluster tables, then the same warm-up and epochs driven from this file
// through the public components — make_epoch_batches, plan_bulk_rounds,
// sample_bulk, FeatureStore::fetch_all, SageModel::train_step,
// Optimizer::step — with a span around each call. The loop follows
// StagedPipeline's batch placement and round schedule on a healthy cluster,
// so its losses must equal the reference run's bit for bit; that equality is
// what shows it did the same work. Once the program records spans itself,
// this loop should be deleted.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/minibatch.hpp"
#include "graph/dataset.hpp"
#include "graph/partition.hpp"
#include "plan/optimize.hpp"
#include "trace.hpp"
#include "train/pipeline.hpp"
#include "workloads.hpp"

namespace dms::e2e {
namespace {

struct TrainSpec {
  const char* name;
  const char* dataset;  ///< stand-in name for make_standin_by_name
  SamplerKind sampler;
  DistMode mode;
  index_t batch;
  std::vector<index_t> fanouts;
  int p;
  int c;
  bool lru_cache;  ///< LRU feature cache of n/8 rows per rank
  /// Host seconds of one epoch at DMS_THREADS=1 when the workload was sized
  /// (median of 60+ epochs, 4-core x86 host); sets the epochs per run.
  double sized_epoch_s;
};

// Why these three: train-sage-replicated is Fig. 4's "ours" point and is
// SpGEMM-bound; train-ladies-partitioned is the paper's distributed
// contribution (1.5D sampling, comm-bound on the simulated clock);
// train-node2vec-walk is the only path through the fused walk engine and the
// most balanced between sampling and training on the host.
const std::vector<TrainSpec>& specs() {
  static const std::vector<TrainSpec> s = {
      {"train-sage-replicated", "products", SamplerKind::kGraphSage,
       DistMode::kReplicated, 64, {8, 4, 4}, 8, 2, true, 3.2},
      {"train-ladies-partitioned", "papers", SamplerKind::kLadies,
       DistMode::kPartitioned, 32, {32, 32, 32}, 16, 4, false, 4.1},
      // Walk samplers read only the depth (3 model layers) from the fanouts.
      {"train-node2vec-walk", "protein", SamplerKind::kNode2Vec,
       DistMode::kReplicated, 64, {1, 1, 1}, 8, 2, true, 0.43},
  };
  return s;
}

const TrainSpec& find_spec(const std::string& name) {
  for (const TrainSpec& s : specs()) {
    if (name == s.name) return s;
  }
  throw DmsError("unknown training workload: " + name);
}

/// Independent set-ups (and loss-repeat runs) per untraced invocation.
constexpr int kRuns = 3;

/// Timed epochs per run: a third of --seconds at the sized epoch time.
int epochs_per_run(const TrainSpec& spec, double seconds) {
  return std::max(1, static_cast<int>(std::ceil(seconds / kRuns / spec.sized_epoch_s)));
}

/// Largest share of an epoch's host span the traced loop's own glue (epoch,
/// round and step bookkeeping outside any layer call) may take before the
/// traced run fails: beyond it the spans no longer explain the epoch.
constexpr double kUnaccountedTolerance = 0.05;

/// Plan ops reported per workload, as (op_time_breakdown key, metric name).
const std::vector<std::pair<const char*, const char*>>& reported_ops() {
  static const std::vector<std::pair<const char*, const char*>> ops = {
      {"sage/spgemm", "op.sage.spgemm_s"},
      {"sage/its_sample", "op.sage.its_sample_s"},
      {"sage/extract", "op.sage.extract_s"},
      {"ladies/spgemm", "op.ladies.spgemm_s"},
      {"ladies/masked_extract", "op.ladies.masked_extract_s"},
      {"ladies/its_sample", "op.ladies.its_sample_s"},
      {"node2vec/fused_walk", "op.node2vec.fused_walk_s"},
      {"node2vec/induced", "op.node2vec.induced_s"},
  };
  return ops;
}

const char* const kPhases[] = {"probability", "sampling", "extraction", "fetch",
                               "propagation"};

PipelineConfig pipeline_config(const TrainSpec& spec, const Dataset& ds,
                               std::uint64_t seed) {
  PipelineConfig cfg;
  cfg.sampler = spec.sampler;
  cfg.mode = spec.mode;
  cfg.batch_size = spec.batch;
  cfg.fanouts = spec.fanouts;
  cfg.bulk_k = 0;  // k = all, sliced into prefetch rounds by the overlap
  cfg.hidden = 32;
  cfg.seed = seed;
  cfg.overlap = true;
  cfg.part_opts.sparsity_aware = true;
  if (spec.lru_cache) {
    cfg.feature_cache = {CachePolicy::kLru, ds.num_vertices() / 8};
  }
  return cfg;
}

double loss_of(double loss_sum, index_t seen) {
  return seen > 0 ? loss_sum / static_cast<double>(seen) : 0.0;
}

bool all_finite(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(), [](double x) { return std::isfinite(x); });
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- untraced runs through Pipeline ----------------------------------------

struct EpochRecord {
  double host_s = 0.0;
  EpochStats stats;
  std::map<std::string, CommStats> comm;
};

struct PipelineRun {
  double ctor_s = 0.0;
  double warmup_s = 0.0;
  std::vector<double> losses;  ///< warm-up round, then each timed epoch
  std::vector<EpochRecord> epochs;
  std::size_t per_rank_bytes = 0;  ///< max over ranks
};

/// One untimed epoch on a throwaway pipeline, once per process before any
/// timed run; returns the process's peak RSS over it, in MiB. Without it the
/// process's first pipeline runs its first epochs 10-25% slower than every
/// later one (allocator and page state), which would make the first run an
/// outlier. It is also the memory measurement: a pipeline on a fresh heap,
/// set-up through one full epoch, above the generated dataset. Later
/// pipelines in the same process reach a peak up to 30% higher or not,
/// depending on how the earlier ones left the heap.
double warm_process(const Dataset& ds, const PipelineConfig& cfg, const ProcessGrid& grid) {
  reset_peak_rss();  // leave out the dataset generator's transient peak
  Cluster cluster(grid, CostModel(bench_links()));
  Pipeline pipe(cluster, ds, cfg);
  pipe.run_epoch(0);
  return peak_rss_mb();
}

/// One run: set-up, warm-up round, then `epochs` timed epochs.
PipelineRun run_pipeline(const Dataset& ds, const PipelineConfig& cfg,
                         const ProcessGrid& grid, int epochs) {
  PipelineRun run;
  // Every set-up starts cold, as a fresh process would: the plan optimizer
  // runs again instead of hitting the previous run's process-wide cache.
  PlanCache::global().clear();
  Timer ctor;
  Cluster cluster(grid, CostModel(bench_links()));
  Pipeline pipe(cluster, ds, cfg);
  run.ctor_s = ctor.seconds();

  Timer warm;
  const TrainCursor cursor = pipe.run_epoch_partial(0, 1);
  run.warmup_s = warm.seconds();
  run.losses.push_back(loss_of(cursor.loss_sum, cursor.seen));

  for (int e = 1; e <= epochs; ++e) {
    EpochRecord rec;
    Timer t;
    rec.stats = pipe.run_epoch(e);
    rec.host_s = t.seconds();
    rec.comm = cluster.comm_stats();  // reset at each epoch's start
    run.losses.push_back(rec.stats.loss);
    run.epochs.push_back(std::move(rec));
  }
  for (int r = 0; r < grid.size(); ++r) {
    run.per_rank_bytes = std::max(run.per_rank_bytes, pipe.per_rank_bytes(r));
  }
  return run;
}

// --- traced loop --------------------------------------------------------------

/// Per-epoch layer totals of the traced loop.
struct LayerEpoch {
  double epoch_s = 0.0;
  double sample_s = 0.0, fetch_s = 0.0, train_s = 0.0, opt_s = 0.0;
  double glue_s = 0.0;  ///< self time of the epoch / round / step spans
  double sample_calls = 0.0, sample_mb = 0.0, sample_edges = 0.0;
};

/// The staged executor's epoch, driven call by call. Owns the same
/// components Pipeline builds, from the same config and seeds.
class TracedTrainer {
 public:
  TracedTrainer(const Dataset& ds, const PipelineConfig& cfg,
                const ProcessGrid& grid, Tracer& tracer)
      : ds_(ds),
        cfg_(cfg),
        tracer_(tracer),
        cluster_(grid, CostModel(bench_links())),
        store_(grid, ds.features, store_options(cfg)),
        model_(model_config(ds, cfg)),
        optimizer_(cfg.lr) {
    SamplerContext ctx;
    ctx.config = SamplerConfig{cfg.fanouts, cfg.seed};
    ctx.grid = &cluster_.grid();
    ctx.part_opts = cfg.part_opts;
    ctx.cluster = &cluster_;
    sampler_ = make_sampler(cfg.sampler, cfg.mode, ds.graph, ctx);
    if (cfg.mode == DistMode::kPartitioned) partitioned_ = &as_partitioned(*sampler_);
  }

  /// Trains rounds [0, end_round) of `epoch` (end_round < 0: all of it);
  /// returns the epoch's loss.
  double run(int epoch, index_t end_round, LayerEpoch* layers);

  std::size_t workspace_bytes() const {
    const Workspace* ws = sampler_->scratch_workspace();
    return ws != nullptr ? ws->bytes_held() : 0;
  }

 private:
  struct Placement {
    int rank = -1;
    index_t step = -1;
  };

  static FeatureStoreOptions store_options(const PipelineConfig& cfg) {
    FeatureStoreOptions opts;
    opts.cache = cfg.feature_cache;
    return opts;
  }

  // Mirrors Pipeline's model construction (train/pipeline.cpp).
  static ModelConfig model_config(const Dataset& ds, const PipelineConfig& cfg) {
    ModelConfig mc;
    mc.in_dim = ds.feature_dim();
    mc.hidden = cfg.hidden;
    mc.num_classes = ds.num_classes;
    mc.num_layers = static_cast<index_t>(cfg.fanouts.size());
    mc.seed = derive_seed(cfg.seed, 0x0de1ULL);
    return mc;
  }

  void place_batches(index_t k);
  void sample_round(const BulkRound& round, std::uint64_t epoch_seed,
                    LayerEpoch* layers);
  void step(index_t t);

  const Dataset& ds_;
  PipelineConfig cfg_;
  Tracer& tracer_;
  Cluster cluster_;
  FeatureStore store_;
  SageModel model_;
  Adam optimizer_;
  std::unique_ptr<MatrixSampler> sampler_;
  PartitionedSamplerBase* partitioned_ = nullptr;

  std::vector<std::vector<index_t>> batches_;
  std::vector<Placement> placement_;
  std::vector<std::vector<index_t>> step_batches_;  ///< [rank][step] → id
  std::vector<std::vector<MinibatchSample>> queues_;
  index_t steps_ = 0;
  double loss_sum_ = 0.0;
  index_t seen_ = 0;
};

// StagedPipeline::assign_batches with every rank alive: contiguous blocks per
// rank (replicated), or per process row with the row's replicas taking
// turns (partitioned).
void TracedTrainer::place_batches(index_t k) {
  const ProcessGrid& grid = cluster_.grid();
  const int p = grid.size();
  placement_.assign(static_cast<std::size_t>(k), Placement{});
  steps_ = 0;
  if (cfg_.mode == DistMode::kReplicated) {
    const BlockPartition bp(k, p);
    for (int a = 0; a < p; ++a) {
      for (index_t m = bp.begin(a); m < bp.end(a); ++m) {
        placement_[static_cast<std::size_t>(m)] = {a, m - bp.begin(a)};
      }
      steps_ = std::max(steps_, bp.size(a));
    }
  } else {
    const int rows = grid.rows();
    const int c = grid.replication();
    const BlockPartition bp(k, rows);
    for (int i = 0; i < rows; ++i) {
      for (index_t m = bp.begin(i); m < bp.end(i); ++m) {
        const index_t local = m - bp.begin(i);
        placement_[static_cast<std::size_t>(m)] = {
            grid.rank_of(i, static_cast<int>(local % c)), local / c};
      }
      if (bp.size(i) > 0) steps_ = std::max(steps_, ceil_div(bp.size(i), c));
    }
  }
  step_batches_.assign(static_cast<std::size_t>(p),
                       std::vector<index_t>(static_cast<std::size_t>(steps_), -1));
  for (std::size_t b = 0; b < placement_.size(); ++b) {
    const Placement& pl = placement_[b];
    step_batches_[static_cast<std::size_t>(pl.rank)][static_cast<std::size_t>(pl.step)] =
        static_cast<index_t>(b);
  }
  queues_.assign(static_cast<std::size_t>(p),
                 std::vector<MinibatchSample>(static_cast<std::size_t>(steps_)));
}

void TracedTrainer::sample_round(const BulkRound& round, std::uint64_t epoch_seed,
                                 LayerEpoch* layers) {
  const ProcessGrid& grid = cluster_.grid();
  auto place = [&](std::vector<MinibatchSample>& samples,
                   const std::vector<index_t>& ids) {
    layers->sample_calls += 1.0;
    layers->sample_mb += static_cast<double>(ids.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
      for (const LayerSample& l : samples[i].layers) {
        layers->sample_edges += static_cast<double>(l.adj.nnz());
      }
      const Placement& pl = placement_[static_cast<std::size_t>(ids[i])];
      queues_[static_cast<std::size_t>(pl.rank)][static_cast<std::size_t>(pl.step)] =
          std::move(samples[i]);
    }
  };

  if (partitioned_ == nullptr) {
    // Each rank bulk-samples its slice of the round.
    for (int r = 0; r < grid.size(); ++r) {
      std::vector<std::vector<index_t>> chunk;
      std::vector<index_t> ids;
      for (index_t t = round.step_begin; t < round.step_end; ++t) {
        const index_t b =
            step_batches_[static_cast<std::size_t>(r)][static_cast<std::size_t>(t)];
        if (b < 0) continue;
        chunk.push_back(batches_[static_cast<std::size_t>(b)]);
        ids.push_back(b);
      }
      if (ids.empty()) continue;
      std::vector<MinibatchSample> samples;
      {
        ScopedSpan s(&tracer_, "sample_bulk", r);
        samples = sampler_->sample_bulk(chunk, ids, epoch_seed);
      }
      place(samples, ids);
    }
    return;
  }
  // One 1.5D bulk over every process row, batches in (row, step, replica)
  // order.
  std::vector<std::vector<index_t>> sub_batches;
  std::vector<index_t> sub_ids;
  for (int i = 0; i < grid.rows(); ++i) {
    for (index_t t = round.step_begin; t < round.step_end; ++t) {
      for (int j = 0; j < grid.replication(); ++j) {
        const index_t b = step_batches_[static_cast<std::size_t>(grid.rank_of(i, j))]
                                       [static_cast<std::size_t>(t)];
        if (b < 0) continue;
        sub_batches.push_back(batches_[static_cast<std::size_t>(b)]);
        sub_ids.push_back(b);
      }
    }
  }
  if (sub_ids.empty()) return;
  std::vector<std::vector<MinibatchSample>> per_row;
  {
    ScopedSpan s(&tracer_, "sample_bulk", round.step_begin);
    per_row = partitioned_->sample_bulk(cluster_, sub_batches, sub_ids, epoch_seed);
  }
  std::vector<MinibatchSample> flat;
  for (auto& row : per_row) {
    for (auto& ms : row) flat.push_back(std::move(ms));
  }
  place(flat, sub_ids);
}

void TracedTrainer::step(index_t t) {
  const int p = cluster_.grid().size();
  std::vector<std::vector<index_t>> wanted(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const MinibatchSample& s =
        queues_[static_cast<std::size_t>(r)][static_cast<std::size_t>(t)];
    if (!s.batch_vertices.empty()) wanted[static_cast<std::size_t>(r)] = s.input_vertices();
  }
  std::vector<DenseF> gathered;
  {
    ScopedSpan s(&tracer_, "fetch_all", t);
    gathered = store_.fetch_all(cluster_, wanted, "fetch");
  }
  int active = 0;
  for (int r = 0; r < p; ++r) {
    MinibatchSample& sample =
        queues_[static_cast<std::size_t>(r)][static_cast<std::size_t>(t)];
    if (sample.batch_vertices.empty()) continue;
    std::vector<int> labels(sample.batch_vertices.size());
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = ds_.labels[static_cast<std::size_t>(sample.batch_vertices[i])];
    }
    LossResult res;
    {
      ScopedSpan s(&tracer_, "train_step", r);
      res = model_.train_step(sample, gathered[static_cast<std::size_t>(r)], labels);
    }
    loss_sum_ += res.loss * static_cast<double>(labels.size());
    seen_ += static_cast<index_t>(labels.size());
    ++active;
    sample = MinibatchSample{};
  }
  if (active > 0) {
    ScopedSpan s(&tracer_, "optimizer", t);
    model_.scale_grads(1.0f / static_cast<float>(active));
    optimizer_.step(model_.params());
    model_.zero_grads();
  }
}

double TracedTrainer::run(int epoch, index_t end_round, LayerEpoch* layers) {
  const std::size_t first_span = tracer_.spans().size();
  cluster_.reset_clock();
  loss_sum_ = 0.0;
  seen_ = 0;
  {
    ScopedSpan epoch_span(&tracer_, "epoch", epoch);
    const std::uint64_t epoch_seed =
        derive_seed(cfg_.seed, 0xe90c, static_cast<std::uint64_t>(epoch));
    std::vector<BulkRound> rounds;
    {
      ScopedSpan s(&tracer_, "schedule", epoch);
      batches_ = make_epoch_batches(ds_.train_idx, cfg_.batch_size, epoch_seed);
      place_batches(static_cast<index_t>(batches_.size()));
      // k = all under overlap: prefetch_rounds slices (StagedPipeline).
      const index_t bulk_steps =
          cfg_.overlap && cfg_.prefetch_rounds > 1 && steps_ > 0
              ? std::max<index_t>(1, ceil_div(steps_, cfg_.prefetch_rounds))
              : 0;
      rounds = plan_bulk_rounds(steps_, bulk_steps);
    }
    for (std::size_t g = 0; g < rounds.size(); ++g) {
      if (end_round >= 0 && static_cast<index_t>(g) >= end_round) break;
      ScopedSpan round_span(&tracer_, "round", static_cast<std::int64_t>(g));
      sample_round(rounds[g], epoch_seed, layers);
      for (index_t t = rounds[g].step_begin; t < rounds[g].step_end; ++t) {
        ScopedSpan step_span(&tracer_, "step", t);
        step(t);
      }
    }
  }

  const std::vector<Span>& spans = tracer_.spans();
  for (std::size_t i = first_span; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name == "epoch") layers->epoch_s += s.seconds();
    if (s.name == "sample_bulk") layers->sample_s += s.seconds();
    if (s.name == "fetch_all") layers->fetch_s += s.seconds();
    if (s.name == "train_step") layers->train_s += s.seconds();
    if (s.name == "optimizer") layers->opt_s += s.seconds();
    if (s.name == "epoch" || s.name == "round" || s.name == "step") {
      layers->glue_s += tracer_.self_seconds(static_cast<int>(i));
    }
  }
  return loss_of(loss_sum_, seen_);
}

// --- reporting ----------------------------------------------------------------

template <typename T, typename F>
double median_of(const std::vector<T>& epochs, F f) {
  std::vector<double> v;
  for (const T& e : epochs) v.push_back(f(e));
  return median(std::move(v));
}

double mb_per_s(const TrainSpec& spec, const Dataset& ds, double seconds) {
  return static_cast<double>(ds.num_batches(spec.batch)) / seconds;
}

void check_losses(Report& report, const std::string& what,
                  const std::vector<double>& losses) {
  report.check(all_finite(losses), what + ": every loss is finite");
}

void report_untraced(const TrainSpec& spec, const Dataset& ds,
                     const std::vector<PipelineRun>& runs, double rss_mb,
                     Report& report) {
  std::vector<double> setup, rates, sims;
  std::string epoch_s;
  for (const PipelineRun& run : runs) {
    setup.push_back(run.ctor_s + run.warmup_s);
    for (const EpochRecord& e : run.epochs) {
      rates.push_back(mb_per_s(spec, ds, e.host_s));
      sims.push_back(e.stats.total);
      epoch_s += ' ';
      epoch_s += std::to_string(e.host_s);
    }
  }
  report.set("setup_s", median(setup), "s", Clock::kHost);
  report.set("host_mb_per_s", median(rates), "1/s", Clock::kHost);
  report.set("sim_epoch_s", median(sims), "s", Clock::kSim);
  report.set("peak_rss_mb", rss_mb, "MB");
  report.note("epoch host seconds:" + epoch_s);
  report.note("timed epochs per run " + std::to_string(runs[0].epochs.size()) +
              " x " + std::to_string(runs.size()) + " runs, " +
              std::to_string(ds.num_batches(spec.batch)) + " minibatches per epoch");
}

}  // namespace

bool is_training_workload(const std::string& name) {
  for (const TrainSpec& s : specs()) {
    if (name == s.name) return true;
  }
  return false;
}

void run_training(const Options& opt, Report& report) {
  const TrainSpec& spec = find_spec(opt.workload);
  const Seeds seeds = derive_seeds(opt.seed);
  StandInConfig sc;
  sc.feature_dim = kFeatureDim;
  sc.seed = kDatasetSeed;
  Timer gen;
  const Dataset ds = make_standin_by_name(spec.dataset, sc);
  const double gen_s = gen.seconds();
  const PipelineConfig cfg = pipeline_config(spec, ds, seeds.model);
  const ProcessGrid grid(spec.p, spec.c);
  const auto mb = ds.num_batches(spec.batch);
  report.note(ds.graph.summary(ds.name) + ", p=" + std::to_string(spec.p) +
              " c=" + std::to_string(spec.c));

  const int epochs = epochs_per_run(spec, opt.seconds);
  const double rss_mb = warm_process(ds, cfg, grid);
  if (!opt.trace) {
    std::vector<PipelineRun> runs;
    for (int r = 0; r < kRuns; ++r) runs.push_back(run_pipeline(ds, cfg, grid, epochs));
    for (const PipelineRun& run : runs) {
      report.ops(static_cast<std::int64_t>(run.epochs.size()) * mb);
      check_losses(report, "run", run.losses);
    }
    for (int r = 1; r < kRuns; ++r) {
      report.check(runs[static_cast<std::size_t>(r)].losses == runs[0].losses,
                   "run " + std::to_string(r) +
                       " repeats run 0's per-epoch losses bit for bit");
    }
    report.note("loss digest " + hex(bits_digest(runs[0].losses)) + " over " +
                std::to_string(runs[0].losses.size()) +
                " epochs (warm-up round first)");
    report_untraced(spec, ds, runs, rss_mb, report);
    return;
  }

  // Traced run: the untraced reference, the traced loop, the p=1 baseline.
  report.set("gen.dataset_s", gen_s, "s", Clock::kHost);
  const PipelineRun ref = run_pipeline(ds, cfg, grid, epochs);
  report.ops(static_cast<std::int64_t>(epochs) * mb);
  check_losses(report, "reference run", ref.losses);

  Tracer tracer;
  TracedTrainer traced(ds, cfg, grid, tracer);
  std::vector<double> traced_losses;
  LayerEpoch warm_layers;
  traced_losses.push_back(traced.run(0, 1, &warm_layers));
  std::vector<LayerEpoch> layers(static_cast<std::size_t>(epochs));
  for (int e = 1; e <= epochs; ++e) {
    traced_losses.push_back(
        traced.run(e, -1, &layers[static_cast<std::size_t>(e - 1)]));
  }
  report.ops(static_cast<std::int64_t>(epochs) * mb);
  report.check(traced_losses == ref.losses,
               "traced loop's per-epoch losses equal Pipeline::run_epoch's "
               "bit for bit (digest " + hex(bits_digest(traced_losses)) + ")");

  double span_total = 0.0, glue_total = 0.0;
  for (const LayerEpoch& l : layers) {
    span_total += l.epoch_s;
    glue_total += l.glue_s;
  }
  const double unaccounted = span_total > 0.0 ? glue_total / span_total : 0.0;
  char tol[160];
  std::snprintf(tol, sizeof(tol),
                "layer spans cover the epoch spans: unaccounted %.4f <= "
                "tolerance %.2f",
                unaccounted, kUnaccountedTolerance);
  report.check(unaccounted <= kUnaccountedTolerance, tol);

  if (!opt.trace_out.empty()) {
    report.check(tracer.write_chrome_json(opt.trace_out),
                 "Chrome trace written to " + opt.trace_out + " (" +
                     std::to_string(tracer.spans().size()) + " spans)");
  }

  // Host time of the layer calls: medians over the traced epochs.
  auto per_epoch = [&](const char* name, double LayerEpoch::*field, const char* unit,
                       Clock clock) {
    report.set(name, median_of(layers, [&](const LayerEpoch& l) { return l.*field; }),
               unit, clock);
  };
  per_epoch("sample.host_s", &LayerEpoch::sample_s, "s", Clock::kHost);
  per_epoch("sample.calls", &LayerEpoch::sample_calls, "count", Clock::kNone);
  per_epoch("sample.mb", &LayerEpoch::sample_mb, "count", Clock::kNone);
  per_epoch("sample.edges", &LayerEpoch::sample_edges, "count", Clock::kNone);
  per_epoch("fetch.host_s", &LayerEpoch::fetch_s, "s", Clock::kHost);
  per_epoch("nn.train_step_s", &LayerEpoch::train_s, "s", Clock::kHost);
  per_epoch("nn.optimizer_s", &LayerEpoch::opt_s, "s", Clock::kHost);

  // Counters the untraced run's EpochStats export: medians over its epochs.
  auto ref_median = [&](auto f) {
    return median_of(ref.epochs, [&](const EpochRecord& e) { return f(e.stats); });
  };
  auto count = [](std::size_t v) { return static_cast<double>(v); };
  for (const auto& [key, metric] : reported_ops()) {
    const std::string op = key;
    report.set(metric, ref_median([&](const EpochStats& st) {
                 const auto it = st.sampler_ops.find(op);
                 return it == st.sampler_ops.end() ? 0.0 : it->second;
               }),
               "s", Clock::kHost);
  }
  report.set("fetch.rows", ref_median([&](const EpochStats& st) {
               return count(st.cache_hits + st.cache_misses + st.cache_local);
             }),
             "count");
  report.set("cache.hits", ref_median([&](const EpochStats& st) { return count(st.cache_hits); }),
             "count");
  report.set("cache.misses",
             ref_median([&](const EpochStats& st) { return count(st.cache_misses); }), "count");
  report.set("cache.local",
             ref_median([&](const EpochStats& st) { return count(st.cache_local); }), "count");
  report.set("cache.hit_ratio", ref_median([&](const EpochStats& st) {
               const std::size_t classified = st.cache_hits + st.cache_misses;
               return classified > 0 ? count(st.cache_hits) / count(classified) : 0.0;
             }),
             "ratio");
  report.set("fetch.bytes",
             ref_median([&](const EpochStats& st) { return count(st.fetch_bytes); }), "bytes");
  report.set("fetch.bytes_saved",
             ref_median([&](const EpochStats& st) { return count(st.fetch_bytes_saved); }),
             "bytes");

  // Simulated clock: EpochStats and Cluster tables of the reference run.
  auto sim_phase = [&](const char* name, double EpochStats::*field) {
    report.set(name, ref_median([&](const EpochStats& st) { return st.*field; }), "s",
               Clock::kSim);
  };
  sim_phase("sim.sampling_s", &EpochStats::sampling);
  sim_phase("sim.fetch_s", &EpochStats::fetch);
  sim_phase("sim.propagation_s", &EpochStats::propagation);
  sim_phase("sim.overlap_saved_s", &EpochStats::overlap_saved);
  sim_phase("sim.stall_s", &EpochStats::stall);
  for (const char* phase : kPhases) {
    const std::string ph = phase;
    auto comm = [&](const EpochRecord& e) {
      const auto it = e.comm.find(ph);
      return it == e.comm.end() ? CommStats{} : it->second;
    };
    report.set("comm." + ph + ".bytes", median_of(ref.epochs, [&](const EpochRecord& e) {
                 return static_cast<double>(comm(e).bytes);
               }),
               "bytes");
    report.set("comm." + ph + ".msgs", median_of(ref.epochs, [&](const EpochRecord& e) {
                 return static_cast<double>(comm(e).messages);
               }),
               "count");
    report.set("comm." + ph + ".sim_s",
               median_of(ref.epochs, [&](const EpochRecord& e) { return comm(e).seconds; }),
               "s", Clock::kSim);
    report.set("sim.compute." + ph + "_s", median_of(ref.epochs, [&](const EpochRecord& e) {
                 const auto it = e.stats.compute_phases.find(ph);
                 return it == e.stats.compute_phases.end() ? 0.0 : it->second;
               }),
               "s", Clock::kSim);
  }

  report.set("setup.ctor_s", ref.ctor_s, "s", Clock::kHost);
  report.set("setup.warmup_s", ref.warmup_s, "s", Clock::kHost);
  report.set("mem.per_rank_bytes", static_cast<double>(ref.per_rank_bytes), "bytes");
  report.set("mem.workspace_bytes", static_cast<double>(traced.workspace_bytes()), "bytes");

  const double untraced_rate =
      median_of(ref.epochs, [&](const EpochRecord& e) { return mb_per_s(spec, ds, e.host_s); });
  const double traced_rate =
      median_of(layers, [&](const LayerEpoch& l) { return mb_per_s(spec, ds, l.epoch_s); });
  report.set("trace.overhead_frac", 1.0 - traced_rate / untraced_rate, "ratio");
  report.set("trace.unaccounted_frac", unaccounted, "ratio");
  report.note("untraced " + std::to_string(untraced_rate) + " mb/s, traced " +
              std::to_string(traced_rate) + " mb/s over " + std::to_string(epochs) +
              " epochs");

  // Single-worker baseline of Fig. 4's point: the same task at p=1. Its
  // losses differ from p=8 by design (per-step gradient averaging changes),
  // so only the finite and repeat checks apply.
  if (spec.sampler == SamplerKind::kGraphSage) {
    const ProcessGrid one(1, 1);
    const PipelineRun a = run_pipeline(ds, cfg, one, epochs);
    const PipelineRun b = run_pipeline(ds, cfg, one, epochs);
    report.ops(2 * static_cast<std::int64_t>(epochs) * mb);
    check_losses(report, "p=1 baseline", a.losses);
    report.check(a.losses == b.losses, "p=1 baseline repeats its losses bit for bit");
    std::vector<EpochRecord> both = a.epochs;
    both.insert(both.end(), b.epochs.begin(), b.epochs.end());
    const double p1_sim = median_of(both, [](const EpochRecord& e) { return e.stats.total; });
    const double p8_sim =
        median_of(ref.epochs, [](const EpochRecord& e) { return e.stats.total; });
    report.set("sim.speedup_vs_p1", p1_sim / p8_sim, "ratio", Clock::kSim);
    report.set("p1.host_mb_per_s",
               median_of(both, [&](const EpochRecord& e) { return mb_per_s(spec, ds, e.host_s); }),
               "1/s", Clock::kHost);
  }
}

}  // namespace dms::e2e
