#include "core/graphsage.hpp"

#include "common/rng.hpp"

namespace dms {

RowSeedFn row_seed_fn(const FrontierStack* stack, std::size_t batches,
                      const std::vector<index_t>& batch_ids,
                      index_t first_batch, std::uint64_t round_term,
                      SeedRowTerm term, std::uint64_t epoch_seed) {
  // Row -> seed, precomputed so the closure owns its state (no borrowed
  // references — the caller may store the function).
  std::vector<std::uint64_t> row_seed(stack != nullptr ? stack->vertices.size()
                                                       : batches);
  const std::uint64_t fixed = term == SeedRowTerm::kOne ? 1u : 0u;
  for (std::size_t b = 0; b < batches; ++b) {
    const auto id = static_cast<std::uint64_t>(
        batch_ids[static_cast<std::size_t>(first_batch) + b]);
    const auto r0 = static_cast<std::size_t>(stack != nullptr ? stack->offsets[b] : b);
    const auto r1 = stack != nullptr ? static_cast<std::size_t>(stack->offsets[b + 1])
                                     : b + 1;
    for (std::size_t r = r0; r < r1; ++r) {
      row_seed[r] = derive_seed(epoch_seed, id, round_term,
                                term == SeedRowTerm::kLocalRow ? r - r0 : fixed);
    }
  }
  return [row_seed = std::move(row_seed)](index_t row) {
    return row_seed[static_cast<std::size_t>(row)];
  };
}

LayerSample sage_extract_layer(const CsrMatrix& qs, const FrontierStack& stack,
                               std::size_t b,
                               const std::vector<index_t>& frontier_b) {
  const auto r0 = static_cast<std::size_t>(stack.offsets[b]);
  const auto r1 = static_cast<std::size_t>(stack.offsets[b + 1]);
  return build_layer_sample(
      frontier_b, std::span<const nnz_t>(qs.rowptr()).subspan(r0, r1 - r0 + 1),
      qs.colidx());
}

}  // namespace dms
