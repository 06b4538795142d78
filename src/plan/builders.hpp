// The built-in sampler plans (DESIGN.md §9): each sampling algorithm is a
// ~20-line plan definition over the shared op vocabulary, and the two walk
// samplers (GraphSAINT-RW, node2vec) share one walk-plan builder. The same
// plan serves every execution mode — PlanSampler and the partitioned
// sampler run the same plan — which is what makes both modes bit-identical
// by construction. make_sampler (dist/sampler_factory) picks the builder
// per SamplerKind.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "core/sampler.hpp"
#include "plan/plan.hpp"

namespace dms {

/// GraphSAGE (§4.1): stack → Q·A → NORM → ITS(s per vertex) → extract.
///
/// Per layer (Algorithm 1 with the GraphSAGE constructions):
///   Q     one nonzero per row, column = frontier vertex id        (§4.1.1)
///   P     ← Q·A (SpGEMM), then NORM = row normalization → 1/|N(v)|
///   Qˡ⁻¹  ← SAMPLE(P, s) via ITS, s distinct neighbors per vertex (§4.1.2)
///   Aˡ    ← per-batch extraction (remove empty columns / renumber) (§4.1.3)
/// Bulk sampling stacks the per-batch blocks vertically (Eq. 1) and runs the
/// identical matrix operations on the stacked matrices (§4.1.4).
SamplePlan build_sage_plan();

/// LADIES (§4.2) — the paper's layer-wise example and, distributed, the
/// first fully distributed LADIES implementation (§1): indicator Q → Q·A →
/// NORM(e²) → ITS(s per batch) → masked extraction A[R, S] → union
/// assembly.
///
/// Per layer (Algorithm 1 with the LADIES constructions):
///   Q     one row per batch with |S| nonzeros (indicator of the batch /
///         current layer set), §4.2.1
///   P     ← Q·A; NORM squares each entry and row-normalizes, giving
///         p_v = e_v² / Σ_u e_u²  (Zou et al. 2019)
///   Qˡ⁻¹  ← SAMPLE(P, s): s vertices per batch via ITS, §4.2.2
///   Aˡ    ← the masked extraction A[R, S] = Q_R·A·Q_C, rows R read in
///         place (spgemm_masked), §4.2.3/§8.2.2
SamplePlan build_ladies_plan();

/// FastGCN (Chen et al. 2018) — the simplest layer-wise algorithm (§2.2.2),
/// included as the framework extension the paper's conclusion calls for:
/// batch-independent global-importance ITS → masked extraction → union
/// assembly.
///
/// FastGCN samples s vertices per layer from a *batch-independent*
/// distribution q_v ∝ ‖A(:,v)‖² (squared in-degree for a 0/1 adjacency);
/// edges between consecutive layers are kept via the same masked extraction
/// as LADIES. Because every row of P is the same distribution, the plan
/// samples from one shared prefix sum bound as the executor's global
/// weights (fastgcn_importance_prefix, bound by PlanSampler whenever
/// plan.needs_global_weights) instead of materializing the k×n P matrix (an
/// optimization the matrix framework permits; semantics are identical).
/// The plan has no probability kSpgemm; run partitioned, the sampling stays
/// row-local and only the masked extraction runs as a 1.5D collective —
/// which is why the partitioned FastGCN comes for free.
SamplePlan build_fastgcn_plan();

/// LABOR (Balin & Çatalyürek 2023, "Layer-Neighbor Sampling — Defusing
/// Neighborhood Explosion in GNNs"), the first sampler defined purely as a
/// plan: stack → Q·A → NORM → per-vertex Poisson thinning with batch-shared
/// randoms → extract. fanouts[l] is the expected per-vertex sample count of
/// layer l (the Poisson rate).
///
/// LABOR-0 semantics: per layer, vertex u enters the sample of frontier
/// vertex v iff r_u < s / deg(v), where r_u ~ U[0,1) is drawn once per
/// (batch, layer, vertex) and shared by every v of the batch. Per vertex
/// the expected sample size matches GraphSAGE's fanout s (each neighbor is
/// kept with probability min(1, s/deg)), but because the r_u are shared, a
/// vertex admitted by one row is admitted by every row that reaches it —
/// the union frontier (and hence the feature-fetch volume) shrinks relative
/// to independent per-row sampling.
///
/// Determinism: r_u = uniform(derive_seed(epoch, global batch id, layer,
/// u)) depends only on logical coordinates, so LABOR obeys the same
/// bit-identity contract as every other plan — replicated and partitioned
/// runs agree for every grid shape and thread count.
SamplePlan build_labor_plan();

/// GraphSAINT-RW (Zeng et al. 2020) — a *graph-wise* sampling algorithm
/// (the third taxonomy of §2.2, which the paper leaves to future work):
/// walk_length rounds of stack → Q·A → NORM → ITS(1) → walk advance, then
/// an induced-subgraph epilogue emitting model_layers identical layers.
///
/// GraphSAINT builds each minibatch as the subgraph induced by the union of
/// short random walks from the batch roots. In the plan IR every step is an
/// existing op:
///   walk round:    kBuildQ → kSpgemm → kNormalize → kItsSample(s=1)
///                  → kWalkAdvance (dead walks drop out, visited grows)
///   epilogue:      kInducedLayers — V_s = ∪ visited, A_s = A[V_s, V_s]
///                  (row extraction + masked column extraction, §4.2.3)
/// batches[i] holds the walk roots of minibatch i, and the sample's
/// batch_vertices are the full induced vertex set V_s (GraphSAINT trains on
/// every labeled vertex of the subgraph). An L-layer model trains on the
/// same induced adjacency at every layer, so the epilogue emits A_s L times
/// with rows == columns == V_s (consistent with the frontier convention of
/// core/sampler.hpp). The walk length is the plan's explicit round count —
/// independent of the model depth. Runs partitioned as built (the
/// partitioned kInducedLayers assembles rows from the owner blocks); on the
/// replicated path optimize() rewrites the walk rounds into one fused kWalk
/// op (src/walk).
SamplePlan build_saint_plan(index_t walk_length, index_t model_layers);

/// node2vec (Grover & Leskovec 2016): the GraphSAINT walk shape with a
/// second-order transition kernel. Before normalization, each candidate
/// next-vertex is reweighted by 1/p when it is the walker's previous vertex
/// (return), 1 when it neighbors the previous vertex (BFS-like), and 1/q
/// otherwise (DFS-like). In the plan IR that is one extra op — kWalkBias
/// between the probability SpGEMM and NORM — plus a persistent prev slot
/// that kWalkAdvance maintains, and both are emitted only for a biased
/// walk (p ≠ 1 or q ≠ 1). At p = q = 1 every bias factor is exactly 1.0:
/// the plan is the saint_rw body named "node2vec", and its walks are
/// GraphSAINT's bit for bit. Everything else (seeding, ITS with s = 1, the
/// induced-subgraph epilogue) is the saint_rw machinery. Replicated runs
/// fuse into one kWalk op like saint_rw; partitioned runs execute the plan
/// as built (the kWalkBias membership test fetches prev rows from their
/// owner blocks). Throws DmsError unless p, q > 0.
SamplePlan build_node2vec_plan(index_t walk_length, index_t model_layers,
                               value_t p, value_t q);

/// The SamplerConfig a walk plan runs with: one unit fanout per model layer
/// (the walk length is the plan's explicit round count, not a fanout).
SamplerConfig walk_adapter_config(index_t model_layers, std::uint64_t seed);

/// PinSAGE-style importance sampling (Ying et al. 2018): the GraphSAGE plan
/// shape run against a walk-derived weighted adjacency — short simulated
/// walks per vertex score its neighborhood, the top-T visited vertices
/// become weighted edges (core/pinsage.hpp builds that graph), and the
/// plan's NORM → ITS then draws a weighted fanout per row. Pure plan: the
/// probability SpGEMM reads the weights, so the op program needs nothing
/// new and lowers to the 1.5D collectives unchanged.
SamplePlan build_pinsage_plan();

}  // namespace dms
