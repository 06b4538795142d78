#include "baselines/classic_sage.hpp"

#include <unordered_set>

#include "common/rng.hpp"
#include "core/frontier.hpp"

namespace dms {

namespace {

/// Floyd's algorithm: sample `s` distinct indices from [0, m) uniformly.
void sample_distinct(index_t m, index_t s, Pcg32& rng, std::vector<index_t>* out) {
  out->clear();
  if (m <= s) {
    for (index_t i = 0; i < m; ++i) out->push_back(i);
    return;
  }
  std::unordered_set<index_t> chosen;
  for (index_t j = m - s; j < m; ++j) {
    const index_t t = rng.bounded64(j + 1);
    if (chosen.insert(t).second) {
      out->push_back(t);
    } else {
      chosen.insert(j);
      out->push_back(j);
    }
  }
}

}  // namespace

MinibatchSample classic_sage_sample(const Graph& graph,
                                    const std::vector<index_t>& batch,
                                    const std::vector<index_t>& fanouts,
                                    index_t batch_id, std::uint64_t epoch_seed) {
  MinibatchSample out;
  out.batch_vertices = batch;
  std::vector<index_t> frontier = batch;
  std::vector<index_t> picks;
  for (std::size_t l = 0; l < fanouts.size(); ++l) {
    const index_t s = fanouts[l];
    // Row i's sampled neighbors, in Floyd draw order.
    std::vector<nnz_t> rowptr{0};
    std::vector<index_t> sampled;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const index_t v = frontier[i];
      const auto neigh = graph.adjacency().row_cols(v);
      Pcg32 rng(derive_seed(epoch_seed, static_cast<std::uint64_t>(batch_id),
                            static_cast<std::uint64_t>(l), static_cast<std::uint64_t>(i)),
                0xc1a);
      sample_distinct(static_cast<index_t>(neigh.size()), s, rng, &picks);
      for (const index_t idx : picks) {
        sampled.push_back(neigh[static_cast<std::size_t>(idx)]);
      }
      rowptr.push_back(static_cast<nnz_t>(sampled.size()));
    }
    LayerSample layer = build_layer_sample(frontier, rowptr, sampled);
    frontier = layer.col_vertices;
    out.layers.push_back(std::move(layer));
  }
  return out;
}

}  // namespace dms
