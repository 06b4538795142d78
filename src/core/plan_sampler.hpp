// The one sampler class (DESIGN.md §9): every algorithm is a SamplePlan
// (plan/builders.hpp) run by one PlanExecutor, so the sampler around it is
// the same for all of them — the paper's "different matrix constructions"
// under one framework. make_sampler (dist/sampler_factory) picks the plan
// and config per SamplerKind; custom plans construct PlanSampler directly.
// The Graph Partitioned form (dist/dist_sampler) runs the same plan, as
// built.
#pragma once

#include <cstdint>
#include <memory>

#include "core/sampler.hpp"
#include "plan/executor.hpp"

namespace dms {

class PlanSampler : public MatrixSampler {
 public:
  /// Borrows `graph`, which must outlive the sampler (topology stays where
  /// it is, mirroring the on-device adjacency of the replicated algorithm).
  /// The executor validates the plan and the fanouts; plans that need
  /// global weights (FastGCN) get fastgcn_importance_prefix(graph) bound.
  /// {.optimize = false} runs the plan unfused — the bit-identical
  /// reference path that tests, micro_walk and node2vec_walks compare with.
  PlanSampler(const Graph& graph, SamplePlan plan, SamplerConfig config,
              PlanExecOptions opts = {});
  /// Owns `graph` — a graph derived for sampling, like PinSAGE's importance
  /// graph.
  PlanSampler(std::unique_ptr<const Graph> graph, SamplePlan plan,
              SamplerConfig config, PlanExecOptions opts = {});

  std::vector<MinibatchSample> sample_bulk(
      const std::vector<std::vector<index_t>>& batches,
      const std::vector<index_t>& batch_ids,
      std::uint64_t epoch_seed) const override;

  const SamplerConfig& config() const override { return exec_.config(); }
  std::map<std::string, double> op_time_breakdown() const override {
    return state_.op_seconds;
  }
  Workspace* scratch_workspace() const override { return &state_.ws; }

  /// The plan the executor runs (optimized by default; the partitioned form
  /// runs the plan as built).
  const SamplePlan& plan() const { return exec_.plan(); }

  /// Walk steps advanced since construction / reset_stats.
  std::uint64_t walk_steps() const { return state_.walk_steps; }
  /// Clears op_time_breakdown() and walk_steps().
  void reset_stats() { state_.reset_stats(); }

 protected:
  /// The graph the plan samples (the owned one, if any).
  const Graph& graph() const { return graph_; }
  const PlanExecutor& executor() const { return exec_; }
  /// The per-run state. Samplers are driven sequentially (the Workspace
  /// contract), so const sample_bulk may mutate it.
  PlanRunState& run_state() const { return state_; }
  /// Bound ITS weights for kGlobalWeights plans (nullptr otherwise).
  const std::vector<value_t>* global_weights() const {
    return weights_.empty() ? nullptr : &weights_;
  }

 private:
  std::unique_ptr<const Graph> owned_graph_;
  const Graph& graph_;
  PlanExecutor exec_;
  std::vector<value_t> weights_;
  mutable PlanRunState state_;
};

}  // namespace dms
