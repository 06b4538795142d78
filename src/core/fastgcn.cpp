#include "core/fastgcn.hpp"

namespace dms {

std::vector<value_t> fastgcn_importance(const Graph& graph) {
  std::vector<value_t> importance(
      static_cast<std::size_t>(graph.num_vertices()), 0.0);
  for (const index_t c : graph.adjacency().colidx()) {
    importance[static_cast<std::size_t>(c)] += 1.0;
  }
  for (auto& v : importance) v = v * v;
  return importance;
}

std::vector<value_t> fastgcn_importance_prefix(
    const std::vector<value_t>& importance) {
  std::vector<value_t> prefix(1, 0.0);
  prefix.reserve(importance.size() + 1);
  for (const value_t v : importance) prefix.push_back(prefix.back() + v);
  return prefix;
}

std::vector<value_t> fastgcn_importance_prefix(const Graph& graph) {
  return fastgcn_importance_prefix(fastgcn_importance(graph));
}

}  // namespace dms
