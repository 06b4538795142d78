// The LADIES building blocks (§4.2) shared verbatim by every execution mode
// of the plan executor. The algorithm itself is build_ladies_plan
// (plan/builders.hpp).
#pragma once

#include "core/sampler.hpp"

namespace dms {

// Deterministic LADIES building blocks, shared verbatim with the plan
// executor so every execution mode produces bit-identical minibatches (the
// determinism contract of the dist tests).

/// The LADIES Q matrix: one row per batch, indicator of that batch's current
/// vertex set (§4.2.1).
CsrMatrix ladies_indicator_rows(index_t n,
                                const std::vector<std::vector<index_t>>& sets);

/// NORM for LADIES: square every value, then row-normalize (p_v ∝ e_v²).
void ladies_norm(CsrMatrix& p);

/// Column-extraction matrix Q_C ∈ {0,1}^{n×s}: one nonzero per column at the
/// row index of each vertex to extract (§4.2.3).
CsrMatrix ladies_column_extractor(index_t n, const std::vector<index_t>& sampled);

/// Assembles the LayerSample for one batch from the extracted A_S (rows =
/// current set, columns = sampled order). The kFrontierUnion/kSampledSets
/// op of the plan executor (also FastGCN's assembly).
LayerSample ladies_assemble_layer(const std::vector<index_t>& rows,
                                  const std::vector<index_t>& sampled,
                                  const CsrMatrix& a_s);

/// The LADIES probability vector for one batch over all n vertices:
/// p_v = e_v² / Σ e_u² where e_v = |N(v) ∩ batch| (the distribution of
/// Figure 1's example).
std::vector<value_t> ladies_probability_vector(const Graph& graph,
                                               const std::vector<index_t>& batch);

}  // namespace dms
