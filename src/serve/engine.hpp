// Online inference engine (DESIGN.md §10): executes coalesced request
// batches through the bulk sampling machinery and de-multiplexes per-request
// predictions back out.
//
// One coalesced batch = one stacked-frontier bulk: the N requests' seed sets
// become the N per-batch frontiers of a single sample_bulk call (Eq. 1
// stacks them regardless of size), with each request's global id seeding its
// randomness exactly as a global batch id does in training. The determinism
// contract therefore guarantees the serving identity this subsystem is
// built on: a request's prediction is bit-identical whether it was served
// alone or coalesced with any other requests — batching is purely a
// throughput decision, never a results decision (test_serve locks this
// across SamplerKind × DistMode × thread counts).
//
// Steady-state contract: the engine owns its sampler (and thereby the
// sampler's Workspace arena) plus a reusable feature-gather buffer. warmup()
// drives representative requests through the full path to grow every scratch
// buffer to its high-water mark, then freezes the arena — from then on,
// request handling allocates only results (samples, logits), and debug
// builds assert the frozen arena never grows (Workspace::check_steady after
// every batch).
//
// Accounting: each batch's sampling / fetch / inference phases are
// host-wall-clock timed (the plan executor's convention) into a ServeStats
// ledger holding per-request queue-wait + service records; the sampler's
// per-op table is surfaced unchanged through op_time_breakdown().
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/sampler.hpp"
#include "dist/sampler_factory.hpp"
#include "serve/coalescer.hpp"
#include "serve/stats.hpp"
#include "sparse/dense.hpp"
#include "train/feature_store.hpp"

namespace dms {

class SageModel;

struct ServeEngineConfig {
  SamplerKind sampler = SamplerKind::kGraphSage;
  DistMode mode = DistMode::kReplicated;
  /// Per-layer sample counts, sampling order (must match the model depth).
  std::vector<index_t> fanouts = {10, 5};
  /// Sampler construction seed.
  std::uint64_t sampler_seed = 1;
  /// Serve-time epoch seed: request randomness derives from
  /// (serve_seed, request id, round, row) — requests are reproducible
  /// across runs and independent of batching.
  std::uint64_t serve_seed = 0x5e12e;
  /// Partitioned mode options (grid comes through the constructor).
  PartitionedSamplerOptions part_opts;
};

/// One served batch: per-request logits (request order preserved) plus the
/// batch's phase timing.
struct ServeBatchResult {
  std::vector<DenseF> logits;
  BatchRecord timing;
};

class ServeEngine {
 public:
  /// graph, features and model must outlive the engine. `grid` is required
  /// for DistMode::kPartitioned (the sampler's process grid); `cluster`
  /// optionally binds partitioned sampling's phase accounting to a
  /// long-lived cluster (ephemeral otherwise).
  ServeEngine(const Graph& graph, FeatureStore& features, const SageModel& model,
              ServeEngineConfig config, const ProcessGrid* grid = nullptr,
              Cluster* cluster = nullptr);

  /// Serves one coalesced batch: bulk-samples all requests' neighborhoods in
  /// one stacked plan execution, gathers each request's input features
  /// through the store, runs the forward pass, and de-multiplexes logits
  /// back per request (logits[i](r, c) = class-c score of requests[i]'s r-th
  /// seed vertex). Records per-request latency into stats() using
  /// batch.formed_at as the service start.
  ServeBatchResult serve(const CoalescedBatch& batch);

  /// Convenience: a batch of one request formed the instant it arrived
  /// (zero queue wait) — the sequential-serving reference path.
  DenseF serve_one(const ServeRequest& request);

  /// Drives `seed_sets` through the full path twice (stats suppressed),
  /// then freezes the workspace arena: subsequent requests whose scratch
  /// needs stay within the warmed high-water mark are handled
  /// allocation-free (debug-asserted). Call once before serving traffic,
  /// with seed sets at least as large as the expected worst case — or
  /// replay a representative trace through serve() and call freeze()
  /// directly, which bounds the mark by the trace's exact demands.
  void warmup(const std::vector<std::vector<index_t>>& seed_sets);

  /// Enters steady state at the arena's current high-water mark (the
  /// trace-replay warmup path; warmup() is "representative pass + freeze()").
  void freeze();

  bool warmed() const { return warmed_; }

  /// Whether this engine's sampler reused an already-optimized plan from the
  /// process-wide PlanCache (replica engines and engines sharing a sampler
  /// shape with training hit; the first engine of a shape misses and pays
  /// the one-time optimization). Replicated engines only: partitioned
  /// samplers run their plans as built and never consult the cache.
  bool plan_cache_hit() const { return plan_cache_hit_; }

  const ServeStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

  /// The sampler's cumulative per-op table ("<plan>/<label>", §9).
  std::map<std::string, double> op_time_breakdown() const {
    return sampler_->op_time_breakdown();
  }

  /// The engine-owned scratch arena (steady-state observability: its
  /// bytes_held must not grow past frozen_bytes after warmup).
  const Workspace* workspace() const { return sampler_->scratch_workspace(); }

  const ServeEngineConfig& config() const { return cfg_; }

 private:
  const Graph& graph_;
  FeatureStore& features_;
  const SageModel& model_;
  ServeEngineConfig cfg_;
  std::unique_ptr<MatrixSampler> sampler_;
  ServeStats stats_;
  /// Reusable per-request feature gather buffer (capacity persists across
  /// requests; steady-state requests re-fill it without allocating).
  DenseF h_input_;
  /// Reusable request-shape scratch for serve() (seed lists + ids).
  std::vector<std::vector<index_t>> batch_seeds_;
  std::vector<index_t> batch_ids_;
  bool warmed_ = false;
  bool plan_cache_hit_ = false;
};

}  // namespace dms
