#include "core/pinsage.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace dms {

namespace {

constexpr index_t kNumWalks = 16;     ///< simulated walks per vertex
constexpr index_t kTopNeighbors = 8;  ///< T: visited vertices kept per row

}  // namespace

Graph pinsage_importance_graph(const Graph& graph, const PinSageConfig& cfg) {
  check(cfg.walk_length >= 1,
        "pinsage_importance_graph: walk_length must be >= 1");
  const CsrMatrix& adj = graph.adjacency();
  const index_t n = adj.rows();
  std::vector<nnz_t> rowptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> cols;
  std::vector<value_t> vals;
  std::vector<index_t> count(static_cast<std::size_t>(n), 0);
  std::vector<index_t> touched;
  for (index_t v = 0; v < n; ++v) {
    touched.clear();
    for (index_t w = 0; w < kNumWalks; ++w) {
      // One independent uniform walk per (v, w), seeded like every other
      // sampler (never from the layout), so the graph is reproducible.
      Pcg32 rng(derive_seed(cfg.seed, static_cast<std::uint64_t>(v),
                            static_cast<std::uint64_t>(w), 0x9157),
                0x915);
      index_t cur = v;
      for (index_t s = 0; s < cfg.walk_length; ++s) {
        const auto deg = static_cast<index_t>(adj.row_nnz(cur));
        if (deg == 0) break;  // sink: the walk terminates
        cur = adj.row_cols(cur)[static_cast<std::size_t>(rng.bounded64(deg))];
        if (cur == v) continue;  // importance of v to itself is implicit
        if (count[static_cast<std::size_t>(cur)]++ == 0) touched.push_back(cur);
      }
    }
    // Top-T by (visit count desc, id asc) — the deterministic tie-break.
    std::sort(touched.begin(), touched.end(), [&](index_t a, index_t b) {
      const index_t ca = count[static_cast<std::size_t>(a)];
      const index_t cb = count[static_cast<std::size_t>(b)];
      return ca != cb ? ca > cb : a < b;
    });
    const std::size_t keep = std::min(
        touched.size(), static_cast<std::size_t>(kTopNeighbors));
    value_t total = 0.0;
    for (std::size_t i = 0; i < keep; ++i) {
      total += static_cast<value_t>(count[static_cast<std::size_t>(touched[i])]);
    }
    std::sort(touched.begin(), touched.begin() + static_cast<std::ptrdiff_t>(keep));
    for (std::size_t i = 0; i < keep; ++i) {
      cols.push_back(touched[i]);
      vals.push_back(
          static_cast<value_t>(count[static_cast<std::size_t>(touched[i])]) /
          total);
    }
    rowptr[static_cast<std::size_t>(v) + 1] = static_cast<nnz_t>(cols.size());
    for (const index_t t : touched) count[static_cast<std::size_t>(t)] = 0;
  }
  return Graph(CsrMatrix(n, n, std::move(rowptr), std::move(cols),
                         std::move(vals)));
}

}  // namespace dms
