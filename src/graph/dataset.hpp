// Node-classification datasets: graph + features + labels + splits, plus a
// registry of scaled-down stand-ins for the paper's Table 3 datasets.
//
// Paper datasets:        Products (2.4M V, 126M E, 196 batches, f=100)
//                        Protein  (8.7M V, 1.3B E, 1024 batches, f=128)
//                        Papers   (111M V, 1.6B E, 1172 batches, f=128)
// The stand-ins match each dataset's *average degree* (the property §8.1.1
// attributes performance differences to: Protein 241 ≫ Products 53 ≫
// Papers 29) and the *relative* batch counts, at CPU-feasible scale.
// Protein's features were random in the paper too (§7.1).
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sparse/dense.hpp"

namespace dms {

struct Dataset {
  std::string name;
  Graph graph;
  DenseF features;              ///< n × f, fp32
  std::vector<int> labels;      ///< n entries; class id or -1 (unlabeled)
  int num_classes = 0;
  std::vector<index_t> train_idx;
  std::vector<index_t> val_idx;
  std::vector<index_t> test_idx;

  index_t num_vertices() const { return graph.num_vertices(); }
  index_t feature_dim() const { return features.cols(); }

  /// Number of size-b minibatches in one training epoch.
  index_t num_batches(index_t batch_size) const {
    return ceil_div(static_cast<index_t>(train_idx.size()), batch_size);
  }
};

/// Parameters for the synthetic performance stand-ins. `scale_shift`
/// shrinks (negative) or grows (positive) the vertex count by powers of two
/// so examples/tests can run tiny versions of the same dataset.
struct StandInConfig {
  int scale_shift = 0;
  int feature_dim = 32;       ///< paper: 100-128; scaled for CPU
  std::uint64_t seed = 42;
};

/// OGB products stand-in: R-MAT, avg degree ≈ 50, moderately skewed.
Dataset make_products_sim(const StandInConfig& cfg = {});

/// OGB papers100M stand-in: R-MAT, avg degree ≈ 28, many vertices (the
/// "high vertex count, low density" regime of §8.1.1).
Dataset make_papers_sim(const StandInConfig& cfg = {});

/// HipMCL protein stand-in: R-MAT, avg degree ≈ 120 (densest of the three,
/// like the paper's Protein at 241), random features.
Dataset make_protein_sim(const StandInConfig& cfg = {});

/// Planted-partition dataset with class-correlated Gaussian features for the
/// accuracy experiments (§8.1.3): a GNN must reach high test accuracy.
Dataset make_planted_dataset(index_t n, int num_classes, int feature_dim,
                             double avg_degree, double p_intra,
                             std::uint64_t seed);

/// Lookup by name ("products", "papers", "protein"); throws on unknown name.
Dataset make_standin_by_name(const std::string& name, const StandInConfig& cfg = {});

}  // namespace dms
