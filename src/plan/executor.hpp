// The accounted plan executor (DESIGN.md §9): binds a SamplePlan's symbolic
// slots to concrete CSR/frontier buffers and runs its ops through the
// existing kernel machinery — the adaptive SpGEMM engine, its_sample_rows,
// the adjacency draw, the walk engine and the Workspace arena in replicated
// mode; in partitioned mode, the 1.5D collectives for kSpgemm and
// kMaskedExtract and per-process-row local kernels for every other op. The
// run, not the plan, picks the mode. It is a plain op interpreter: every
// fusion (walk, normalize, in-place draw) is an op the optimizer wrote into
// plan(), so what runs is exactly what describe(plan()) lists.
//
// Accounting: every op is wall-clock timed into a per-op table (keyed
// "<plan>/<label>"; surfaced through MatrixSampler::op_time_breakdown and
// EpochStats::sampler_ops), and in partitioned mode its time additionally
// reaches the Cluster under the op's canonical phase tag — max over process
// rows for row-local ops, via the 1.5D collective's own compute/comm
// recording for kSpgemm/kMaskedExtract. The canonical phases keep
// EpochStats and the Figure 7 breakdowns identical to the pre-IR samplers.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "common/workspace.hpp"
#include "core/its.hpp"
#include "core/sampler.hpp"
#include "dist/spgemm_15d.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "plan/plan.hpp"

namespace dms {

/// Construction-time knobs. By default the plan is run through the optimizer
/// (plan/optimize.hpp) via the process-wide PlanCache, so executors over the
/// same plan shape share one optimized plan. {.optimize = false}
/// runs the plan as given, op by op: the unfused reference path for every
/// fusion, walk fusion included.
struct PlanExecOptions {
  bool optimize = true;
};

/// Everything a run mutates, owned by the caller (one per sampler) and
/// passed to every run: the scratch arena, the per-op table, the walk-step
/// counter, and the adjacency draw. Because runs never modify a
/// PlanExecutor (or the PlanCache plan it shares), concurrent callers need
/// only bring their own state. One run at a time per state (the Workspace
/// contract).
struct PlanRunState {
  /// Scratch arena reused across layers, bulks, and epochs (DESIGN.md §7).
  Workspace ws;
  /// Cumulative host wall-clock seconds per op, keyed "<plan>/<label>".
  std::map<std::string, double> op_seconds;
  /// Walk steps (surviving walker × round) advanced, on both the fused and
  /// the matrix path — the edges/s numerator of bench/micro_walk.
  std::uint64_t walk_steps = 0;
  /// The in-place adjacency draw behind kWalk and kItsSample/kAdjacencyRows.
  /// Its per-degree prefix table is built once, when it is constructed, so
  /// it is cached keyed on the bound adjacency and rebuilt only when the
  /// graph changes.
  std::unique_ptr<const AdjacencyDraw> draw;

  void reset_stats() {
    op_seconds.clear();
    walk_steps = 0;
  }
};

class PlanExecutor {
 public:
  /// Validates the plan and the fanouts (non-empty, every entry > 0), then
  /// (unless opts.optimize is off) swaps the plan for the cached optimized
  /// form. `config` supplies the per-round fanouts (it is copied).
  PlanExecutor(SamplePlan plan, SamplerConfig config, PlanExecOptions opts = {});

  /// The plan actually executed (the optimized form by default — possibly
  /// shared with other executors through PlanCache).
  const SamplePlan& plan() const { return *plan_; }
  const SamplerConfig& config() const { return config_; }

  /// Replicated / single-node execution: runs the plan against `graph`'s
  /// adjacency. `global_weights` binds the prefix-sum
  /// distribution of kItsSample/kGlobalWeights plans (FastGCN).
  std::vector<MinibatchSample> run(
      const Graph& graph, const std::vector<std::vector<index_t>>& batches,
      const std::vector<index_t>& batch_ids, std::uint64_t epoch_seed,
      PlanRunState& state,
      const std::vector<value_t>* global_weights = nullptr) const;

  /// Partitioned execution: batches are pre-assigned to process rows by
  /// `assign`; ops run per process row with row-local time recorded
  /// max-over-rows on `cluster`, except kSpgemm and kMaskedExtract, which
  /// run as spgemm_15d and masked_extract_15d with the default engine
  /// options over the run's workspace. The replicated-only ops optimize()
  /// emits (kWalk, kItsSample/kAdjacencyRows) throw DmsError naming the op,
  /// so partitioned samplers run their plans unoptimized. Returns
  /// per-process-row samples (concatenation restores global batch order).
  std::vector<std::vector<MinibatchSample>> run_partitioned(
      Cluster& cluster, const DistBlockRowMatrix& adj, const BlockPartition& assign,
      const std::vector<std::vector<index_t>>& batches,
      const std::vector<index_t>& batch_ids, std::uint64_t epoch_seed,
      PlanRunState& state, bool sparsity_aware,
      const std::vector<value_t>* global_weights = nullptr) const;

 private:
  std::shared_ptr<const SamplePlan> plan_;
  SamplerConfig config_;
};

}  // namespace dms
