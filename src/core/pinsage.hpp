// PinSAGE-style importance sampling (Ying et al. 2018) as a pure plan.
//
// PinSAGE defines a vertex's neighborhood not by adjacency but by visit
// importance: short random walks from v score every vertex they touch, and
// the top-T visited vertices become v's (weighted) neighbors. Here that is
// a *construction-time* transform — pinsage_importance_graph simulates the
// walks once and emits a weighted adjacency whose row v holds the top-T
// visited vertices with weights proportional to visit counts — and
// make_sampler(kPinSage) is then literally the GraphSAGE plan
// (build_pinsage_plan) run against that graph: the probability SpGEMM reads
// the importance weights, NORM turns them into a distribution, and ITS draws
// the weighted fanout. No new op kinds, so the plan lowers to the 1.5D
// collectives unchanged and the partitioned form exists for free.
//
// Each Q row has a single nonzero, so every probability entry is a
// single-term product — no reduction-order sensitivity, and the partitioned
// run is bit-identical to the replicated one (the determinism contract).
#pragma once

#include <cstdint>

#include "graph/graph.hpp"

namespace dms {

struct PinSageConfig {
  index_t walk_length = 2;  ///< steps per simulated walk
  std::uint64_t seed = 1;
};

/// The walk-derived importance graph: row v holds the top-T (T = 8)
/// vertices by visit count (ties broken by ascending id, v itself excluded)
/// over 16 simulated walks of walk_length uniform steps from v, with
/// weights count / total over the kept set, columns ascending. Rows whose
/// walks visit nothing (isolated vertices) are empty. Deterministic in
/// cfg.seed; throws DmsError unless walk_length >= 1.
Graph pinsage_importance_graph(const Graph& graph, const PinSageConfig& cfg);

}  // namespace dms
