// The GraphSAGE building blocks (§4.1) shared verbatim by every execution
// mode of the plan executor: the per-row ITS seeds and the per-batch
// EXTRACT. The algorithm itself is build_sage_plan (plan/builders.hpp).
#pragma once

#include <cstdint>

#include "core/frontier.hpp"
#include "core/its.hpp"
#include "core/sampler.hpp"

namespace dms {

/// Row-seed function for ITS over a stacked P (shared verbatim with the
/// plan executor so every execution mode samples bit-identically):
/// maps a stacked row back to (batch, local row) and derives the (epoch,
/// global batch id, layer, local row) seed. `first_batch` is the global
/// index of the stack's first batch within `batch_ids` (0 single-node; the
/// process row's block start distributed). Inputs are copied into the
/// returned closure, so it may outlive them.
RowSeedFn sage_row_seed_fn(const FrontierStack& stack,
                           const std::vector<index_t>& batch_ids,
                           index_t first_batch, index_t layer,
                           std::uint64_t epoch_seed);

/// EXTRACT for one batch of a stacked SAGE sample (§4.1.3): renumbers the
/// sampled columns of stacked rows [offsets[b], offsets[b+1]) of qs, read in
/// place, into a LayerSample over `frontier_b` (the batch's current
/// frontier). The kFrontierUnion/kNeighborRows op of the plan executor.
LayerSample sage_extract_layer(const CsrMatrix& qs, const FrontierStack& stack,
                               std::size_t b,
                               const std::vector<index_t>& frontier_b);

}  // namespace dms
