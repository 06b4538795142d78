#include "core/ladies.hpp"

#include <unordered_map>

#include "sparse/coo.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm_engine.hpp"

namespace dms {

CsrMatrix ladies_indicator_rows(index_t n,
                                const std::vector<std::vector<index_t>>& sets) {
  CooMatrix coo(static_cast<index_t>(sets.size()), n);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    for (const index_t v : sets[i]) coo.push(static_cast<index_t>(i), v, 1.0);
  }
  return CsrMatrix::from_coo(coo);
}

void ladies_norm(CsrMatrix& p) {
  for (auto& v : p.mutable_vals()) v = v * v;
  normalize_rows(p);
}

CsrMatrix ladies_column_extractor(index_t n, const std::vector<index_t>& sampled) {
  CooMatrix coo(n, static_cast<index_t>(sampled.size()));
  for (std::size_t j = 0; j < sampled.size(); ++j) {
    coo.push(sampled[j], static_cast<index_t>(j), 1.0);
  }
  return CsrMatrix::from_coo(coo);
}

LayerSample ladies_assemble_layer(const std::vector<index_t>& rows,
                                  const std::vector<index_t>& sampled,
                                  const CsrMatrix& a_s) {
  LayerSample layer;
  layer.row_vertices = rows;
  layer.col_vertices = rows;
  std::unordered_map<index_t, index_t> pos;
  pos.reserve(rows.size() + sampled.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    pos.emplace(rows[i], static_cast<index_t>(i));
  }
  std::vector<index_t> col_map(sampled.size());
  for (std::size_t j = 0; j < sampled.size(); ++j) {
    auto [it, inserted] =
        pos.emplace(sampled[j], static_cast<index_t>(layer.col_vertices.size()));
    if (inserted) layer.col_vertices.push_back(sampled[j]);
    col_map[j] = it->second;
  }
  CooMatrix coo(a_s.rows(), static_cast<index_t>(layer.col_vertices.size()));
  for (index_t r = 0; r < a_s.rows(); ++r) {
    for (const index_t c : a_s.row_cols(r)) {
      coo.push(r, col_map[static_cast<std::size_t>(c)], 1.0);
    }
  }
  layer.adj = CsrMatrix::from_coo(coo);
  for (auto& v : layer.adj.mutable_vals()) v = 1.0;
  return layer;
}

std::vector<value_t> ladies_probability_vector(const Graph& graph,
                                               const std::vector<index_t>& batch) {
  const index_t n = graph.num_vertices();
  const CsrMatrix q = ladies_indicator_rows(n, {batch});
  CsrMatrix p = spgemm(q, graph.adjacency());
  ladies_norm(p);
  std::vector<value_t> dense(static_cast<std::size_t>(n), 0.0);
  for (index_t i = 0; i < p.row_nnz(0); ++i) {
    dense[static_cast<std::size_t>(p.colidx()[static_cast<std::size_t>(i)])] =
        p.vals()[static_cast<std::size_t>(i)];
  }
  return dense;
}

}  // namespace dms
