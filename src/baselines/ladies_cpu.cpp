#include "baselines/ladies_cpu.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/its.hpp"
#include "sparse/coo.hpp"
#include "sparse/spgemm_engine.hpp"

namespace dms {

LadiesCpuResult ladies_cpu_reference(const Graph& graph,
                                     const std::vector<std::vector<index_t>>& batches,
                                     index_t s, std::uint64_t seed) {
  const index_t n = graph.num_vertices();
  LadiesCpuResult result;
  result.samples.reserve(batches.size());
  Timer total;

  std::vector<value_t> counts(static_cast<std::size_t>(n), 0.0);
  std::vector<index_t> touched;
  // Per-batch ITS scratch hoisted out of the loop (prefix, picked locals).
  std::vector<value_t> prefix;
  std::vector<index_t> picked_local;
  Workspace ws;  // masked-extraction scratch, reused across batches
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const auto& batch = batches[b];

    // e_v = |N(v) ∩ batch| accumulated by walking batch rows.
    touched.clear();
    for (const index_t u : batch) {
      for (const index_t v : graph.adjacency().row_cols(u)) {
        if (counts[static_cast<std::size_t>(v)] == 0.0) touched.push_back(v);
        counts[static_cast<std::size_t>(v)] += 1.0;
      }
    }

    // p_v ∝ e_v², ITS over the touched vertices.
    prefix.assign(1, 0.0);
    prefix.reserve(touched.size() + 1);
    for (const index_t v : touched) {
      const value_t e = counts[static_cast<std::size_t>(v)];
      prefix.push_back(prefix.back() + e * e);
    }
    its_sample_one(prefix, s, derive_seed(seed, static_cast<std::uint64_t>(b), 0, 0),
                   &picked_local);
    std::vector<index_t> sampled;
    sampled.reserve(picked_local.size());
    for (const index_t idx : picked_local) {
      sampled.push_back(touched[static_cast<std::size_t>(idx)]);
    }
    for (const index_t v : touched) counts[static_cast<std::size_t>(v)] = 0.0;

    // Collect batch→sampled edges. The frontier numbering stays loop-built
    // (batch first, then sampled in pick order), but the edge gather rides
    // the engine's masked extraction A[batch, sorted(sampled)] — the same
    // kernel the matrix samplers use, reading the batch rows in place —
    // instead of a second adjacency walk. The edge set, and hence the
    // output, is unchanged.
    LayerSample layer;
    layer.row_vertices = batch;
    layer.col_vertices = batch;
    std::unordered_map<index_t, index_t> pos;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      pos.emplace(batch[i], static_cast<index_t>(i));
    }
    std::unordered_map<index_t, index_t> sampled_pos;
    for (const index_t v : sampled) {
      auto [it, inserted] = pos.emplace(v, static_cast<index_t>(layer.col_vertices.size()));
      if (inserted) layer.col_vertices.push_back(v);
      sampled_pos.emplace(v, it->second);
    }
    std::vector<index_t> mask = sampled;  // distinct; sort for the mask contract
    std::sort(mask.begin(), mask.end());
    SpgemmOptions mopts;
    mopts.workspace = &ws;
    const CsrMatrix a_s = spgemm_masked(graph.adjacency(), batch, mask, mopts);
    CooMatrix coo(static_cast<index_t>(batch.size()),
                  static_cast<index_t>(layer.col_vertices.size()));
    for (index_t r = 0; r < a_s.rows(); ++r) {
      for (const index_t c : a_s.row_cols(r)) {
        coo.push(r, sampled_pos.at(mask[static_cast<std::size_t>(c)]), 1.0);
      }
    }
    layer.adj = CsrMatrix::from_coo(coo);
    for (auto& v : layer.adj.mutable_vals()) v = 1.0;

    MinibatchSample ms;
    ms.batch_vertices = batch;
    ms.layers.push_back(std::move(layer));
    result.samples.push_back(std::move(ms));
  }
  result.seconds = total.seconds();
  return result;
}

}  // namespace dms
