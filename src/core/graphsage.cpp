#include "core/graphsage.hpp"

#include "common/rng.hpp"

namespace dms {

RowSeedFn sage_row_seed_fn(const FrontierStack& stack,
                           const std::vector<index_t>& batch_ids,
                           index_t first_batch, index_t layer,
                           std::uint64_t epoch_seed) {
  // Stacked row -> per-row seed, precomputed so the closure owns its state
  // (no borrowed references — the caller may store the function).
  std::vector<std::uint64_t> row_seed(stack.vertices.size());
  for (std::size_t b = 0; b + 1 < stack.offsets.size(); ++b) {
    const index_t g = first_batch + static_cast<index_t>(b);
    const auto id = static_cast<std::uint64_t>(batch_ids[static_cast<std::size_t>(g)]);
    for (index_t r = stack.offsets[b]; r < stack.offsets[b + 1]; ++r) {
      row_seed[static_cast<std::size_t>(r)] =
          derive_seed(epoch_seed, id, static_cast<std::uint64_t>(layer),
                      static_cast<std::uint64_t>(r - stack.offsets[b]));
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
