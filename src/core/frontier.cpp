#include "core/frontier.hpp"

#include <algorithm>
#include <unordered_map>

namespace dms {

LayerSample build_layer_sample(const std::vector<index_t>& row_vertices,
                               std::span<const nnz_t> rowptr,
                               std::span<const index_t> sampled) {
  check(rowptr.size() == row_vertices.size() + 1,
        "build_layer_sample: row count mismatch");
  for (std::size_t r = 0; r + 1 < rowptr.size(); ++r) {
    check(rowptr[r] <= rowptr[r + 1], "build_layer_sample: rowptr decreases");
  }
  check(rowptr.front() >= 0 && static_cast<std::size_t>(rowptr.back()) <= sampled.size(),
        "build_layer_sample: rowptr outside the sampled columns");
  LayerSample out;
  out.row_vertices = row_vertices;
  out.col_vertices = row_vertices;  // frontier leads with the row vertices
  std::unordered_map<index_t, index_t> pos;
  pos.reserve(row_vertices.size() * 2);
  for (std::size_t i = 0; i < row_vertices.size(); ++i) {
    pos.emplace(row_vertices[i], static_cast<index_t>(i));
  }
  const auto base = static_cast<std::size_t>(rowptr.front());
  std::vector<index_t> cols(static_cast<std::size_t>(rowptr.back()) - base);
  for (std::size_t k = 0; k < cols.size(); ++k) {
    const index_t v = sampled[base + k];
    auto [it, inserted] = pos.emplace(v, static_cast<index_t>(out.col_vertices.size()));
    if (inserted) out.col_vertices.push_back(v);
    cols[k] = it->second;
  }
  // Sort each row's local ids and drop repeats, compacting in place (the
  // write index never passes the read index).
  std::vector<nnz_t> ptr(rowptr.size(), 0);
  std::size_t kept = 0;
  for (std::size_t r = 0; r + 1 < rowptr.size(); ++r) {
    const auto first = cols.begin() + static_cast<std::ptrdiff_t>(rowptr[r] - rowptr.front());
    const auto last = cols.begin() + static_cast<std::ptrdiff_t>(rowptr[r + 1] - rowptr.front());
    std::sort(first, last);
    const auto end = std::unique(first, last);
    for (auto it = first; it != end; ++it) cols[kept++] = *it;
    ptr[r + 1] = static_cast<nnz_t>(kept);
  }
  cols.resize(kept);
  std::vector<value_t> vals(kept, 1.0);  // pattern matrix
  out.adj = CsrMatrix(static_cast<index_t>(row_vertices.size()),
                      static_cast<index_t>(out.col_vertices.size()), std::move(ptr),
                      std::move(cols), std::move(vals));
  return out;
}

FrontierStack stack_frontiers(const std::vector<std::vector<index_t>>& frontiers) {
  FrontierStack stack;
  stack.offsets.reserve(frontiers.size() + 1);
  stack.offsets.push_back(0);
  for (const auto& f : frontiers) {
    stack.vertices.insert(stack.vertices.end(), f.begin(), f.end());
    stack.offsets.push_back(static_cast<index_t>(stack.vertices.size()));
  }
  return stack;
}

}  // namespace dms
