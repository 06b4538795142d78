// The FastGCN global importance (Chen et al. 2018): the batch-independent
// distribution q_v ∝ in_deg(v)² whose prefix sum PlanSampler binds as the
// executor's global weights. The algorithm itself is build_fastgcn_plan
// (plan/builders.hpp).
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace dms {

/// The global FastGCN importance q_v ∝ in_deg(v)² (unnormalized).
std::vector<value_t> fastgcn_importance(const Graph& graph);

/// Prefix sum of an importance vector (size n+1), the ITS input shared by
/// every execution mode.
std::vector<value_t> fastgcn_importance_prefix(const std::vector<value_t>& importance);

/// Convenience: prefix sum of fastgcn_importance(graph).
std::vector<value_t> fastgcn_importance_prefix(const Graph& graph);

}  // namespace dms
