#include "graph/generators.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "sparse/coo.hpp"

namespace dms {

Graph generate_rmat(const RmatParams& params) {
  check(params.scale >= 1 && params.scale < 31, "rmat: scale out of range");
  check(params.a > 0 && params.b >= 0 && params.c >= 0 &&
            params.a + params.b + params.c < 1.0 + 1e-12,
        "rmat: invalid quadrant probabilities");
  const index_t n = index_t{1} << params.scale;
  const auto target_edges =
      static_cast<nnz_t>(params.edge_factor * static_cast<double>(n));
  Pcg32 rng(params.seed, 0x7d5a);

  CooMatrix coo(n, n);
  coo.reserve(target_edges);
  for (nnz_t e = 0; e < target_edges; ++e) {
    index_t r = 0, c = 0;
    for (int level = 0; level < params.scale; ++level) {
      const double u = rng.uniform();
      r <<= 1;
      c <<= 1;
      if (u < params.a) {
        // top-left quadrant
      } else if (u < params.a + params.b) {
        c |= 1;
      } else if (u < params.a + params.b + params.c) {
        r |= 1;
      } else {
        r |= 1;
        c |= 1;
      }
    }
    if (r == c) continue;
    coo.push(r, c, 1.0);
  }
  CsrMatrix adj = CsrMatrix::from_coo(coo);
  // Duplicate edges were summed; clamp pattern values back to 1.
  for (auto& v : adj.mutable_vals()) v = 1.0;
  return Graph(std::move(adj));
}

Graph generate_erdos_renyi(index_t n, double avg_degree, std::uint64_t seed) {
  check(n > 0 && avg_degree >= 0, "erdos_renyi: bad parameters");
  const auto target_edges = static_cast<nnz_t>(avg_degree * static_cast<double>(n));
  Pcg32 rng(seed, 0x1c3f);
  CooMatrix coo(n, n);
  coo.reserve(target_edges);
  for (nnz_t e = 0; e < target_edges; ++e) {
    const index_t r = rng.bounded64(n);
    const index_t c = rng.bounded64(n);
    if (r == c) continue;
    coo.push(r, c, 1.0);
  }
  CsrMatrix adj = CsrMatrix::from_coo(coo);
  for (auto& v : adj.mutable_vals()) v = 1.0;
  return Graph(std::move(adj));
}

Graph generate_planted_partition(index_t n, int num_classes, double avg_degree,
                                 double p_intra, std::uint64_t seed) {
  check(n > 0 && num_classes > 0 && num_classes <= n, "planted_partition: bad sizes");
  check(p_intra >= 0.0 && p_intra <= 1.0, "planted_partition: p_intra out of [0,1]");
  Pcg32 rng(seed, 0x33aa);
  const index_t block = ceil_div(n, num_classes);
  CooMatrix coo(n, n);
  coo.reserve(static_cast<nnz_t>(avg_degree * static_cast<double>(n)));
  for (index_t v = 0; v < n; ++v) {
    const index_t my_class = v / block;
    const index_t class_lo = my_class * block;
    const index_t class_hi = std::min<index_t>(n, class_lo + block);
    const auto degree = static_cast<index_t>(avg_degree);
    for (index_t d = 0; d < degree; ++d) {
      index_t u;
      if (rng.uniform() < p_intra) {
        u = class_lo + rng.bounded64(class_hi - class_lo);
      } else {
        u = rng.bounded64(n);
      }
      if (u == v) continue;
      coo.push(v, u, 1.0);
      coo.push(u, v, 1.0);  // symmetric: message passing sees both directions
    }
  }
  CsrMatrix adj = CsrMatrix::from_coo(coo);
  for (auto& v : adj.mutable_vals()) v = 1.0;
  return Graph(std::move(adj));
}

}  // namespace dms
