// The GraphSAGE building blocks (§4.1) shared verbatim by every execution
// mode of the plan executor: the per-row ITS seeds and the per-batch
// EXTRACT. The algorithm itself is build_sage_plan (plan/builders.hpp).
#pragma once

#include <cstdint>

#include "core/frontier.hpp"
#include "core/its.hpp"
#include "core/sampler.hpp"
#include "plan/plan.hpp"  // SeedRowTerm

namespace dms {

/// The one derivation of a sampling op's per-row seeds (the determinism
/// contract, shared by every execution mode): row r of batch b gets
/// derive_seed(epoch_seed, batch_ids[first_batch + b], round_term, t), t
/// being r's row within its batch (SeedRowTerm::kLocalRow) or the fixed 0
/// or 1. A stack maps rows to batches by its offsets; without one (null),
/// row b is batch b of `batches`. `first_batch` is 0 single-node and the
/// process row's block start distributed. The seeds are copied into the
/// returned closure, so it may outlive the inputs.
RowSeedFn row_seed_fn(const FrontierStack* stack, std::size_t batches,
                      const std::vector<index_t>& batch_ids,
                      index_t first_batch, std::uint64_t round_term,
                      SeedRowTerm term, std::uint64_t epoch_seed);

/// EXTRACT for one batch of a stacked SAGE sample (§4.1.3): renumbers the
/// sampled columns of stacked rows [offsets[b], offsets[b+1]) of qs, read in
/// place, into a LayerSample over `frontier_b` (the batch's current
/// frontier). The kFrontierUnion/kNeighborRows op of the plan executor.
LayerSample sage_extract_layer(const CsrMatrix& qs, const FrontierStack& stack,
                               std::size_t b,
                               const std::vector<index_t>& frontier_b);

}  // namespace dms
