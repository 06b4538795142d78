// Synthetic graph generators used to stand in for the paper's datasets
// (Table 3). R-MAT reproduces the skewed degree distributions of real
// web/citation/protein graphs; planted-partition provides labeled structure
// for the accuracy experiments (§8.1.3).
#pragma once

#include <cstdint>

#include "graph/graph.hpp"

namespace dms {

/// R-MAT (recursive matrix) generator parameters.
struct RmatParams {
  int scale = 14;              ///< n = 2^scale vertices
  double edge_factor = 16.0;   ///< directed edges per vertex (before dedup)
  double a = 0.57, b = 0.19, c = 0.19;  ///< quadrant probabilities (d = 1-a-b-c)
  std::uint64_t seed = 1;
};

/// Generates an R-MAT graph. Self-loops are dropped and duplicate edges are
/// combined, so the realized average degree is slightly below edge_factor
/// on skewed settings.
Graph generate_rmat(const RmatParams& params);

/// Erdős–Rényi G(n, m) with m ≈ n*avg_degree directed edges.
Graph generate_erdos_renyi(index_t n, double avg_degree, std::uint64_t seed);

/// Planted-partition (stochastic block model) graph: n vertices split evenly
/// into num_classes blocks; each vertex draws ~avg_degree neighbors, a
/// fraction p_intra of them inside its own block. Labels are recoverable
/// from structure, so a GNN can be trained to high accuracy.
Graph generate_planted_partition(index_t n, int num_classes, double avg_degree,
                                 double p_intra, std::uint64_t seed);

}  // namespace dms
