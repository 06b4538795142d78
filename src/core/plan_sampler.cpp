#include "core/plan_sampler.hpp"

#include "core/fastgcn.hpp"  // fastgcn_importance_prefix (global weights)

namespace dms {

PlanSampler::PlanSampler(const Graph& graph, SamplePlan plan,
                         SamplerConfig config, PlanExecOptions opts)
    : graph_(graph), exec_(std::move(plan), std::move(config), opts) {
  if (exec_.plan().needs_global_weights) {
    weights_ = fastgcn_importance_prefix(graph_);
  }
}

PlanSampler::PlanSampler(std::unique_ptr<const Graph> graph, SamplePlan plan,
                         SamplerConfig config, PlanExecOptions opts)
    : PlanSampler(*graph, std::move(plan), std::move(config), opts) {
  owned_graph_ = std::move(graph);  // the heap object graph_ already names
}

std::vector<MinibatchSample> PlanSampler::sample_bulk(
    const std::vector<std::vector<index_t>>& batches,
    const std::vector<index_t>& batch_ids, std::uint64_t epoch_seed) const {
  return exec_.run(graph_, batches, batch_ids, epoch_seed, state_,
                   global_weights());
}

}  // namespace dms
