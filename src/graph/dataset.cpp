#include "graph/dataset.hpp"

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"
#include "graph/generators.hpp"

namespace dms {

namespace {

/// Each stand-in scales this to track the paper's batch counts.
constexpr double kTrainFraction = 0.10;

/// Random fp32 features in [-1, 1] (performance datasets; Protein's features
/// were random in the paper as well).
DenseF random_features(index_t n, int f, std::uint64_t seed) {
  DenseF feats(n, f);
  Pcg32 rng(seed, 0x5ee);
  for (index_t i = 0; i < n; ++i) {
    float* row = feats.row(i);
    for (int j = 0; j < f; ++j) row[j] = static_cast<float>(2.0 * rng.uniform() - 1.0);
  }
  return feats;
}

/// Random labels + split for performance datasets (accuracy not meaningful).
void finish_performance_dataset(Dataset& ds, int num_classes, double train_fraction,
                                std::uint64_t seed) {
  const index_t n = ds.num_vertices();
  ds.num_classes = num_classes;
  ds.labels.resize(static_cast<std::size_t>(n));
  Pcg32 rng(seed, 0xab1);
  for (index_t i = 0; i < n; ++i) {
    ds.labels[static_cast<std::size_t>(i)] = static_cast<int>(rng.bounded(num_classes));
  }
  std::vector<index_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), index_t{0});
  for (index_t i = n - 1; i > 0; --i) {
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[static_cast<std::size_t>(rng.bounded64(i + 1))]);
  }
  const auto train_n = static_cast<index_t>(train_fraction * static_cast<double>(n));
  const index_t val_n = train_n / 4;
  ds.train_idx.assign(perm.begin(), perm.begin() + train_n);
  ds.val_idx.assign(perm.begin() + train_n, perm.begin() + train_n + val_n);
  ds.test_idx.assign(perm.begin() + train_n + val_n, perm.end());
  std::sort(ds.train_idx.begin(), ds.train_idx.end());
  std::sort(ds.val_idx.begin(), ds.val_idx.end());
  std::sort(ds.test_idx.begin(), ds.test_idx.end());
}

}  // namespace

Dataset make_products_sim(const StandInConfig& cfg) {
  RmatParams p;
  p.scale = 15 + cfg.scale_shift;  // 32768 vertices by default
  p.edge_factor = 53.0;            // paper: avg degree 53
  p.a = 0.55; p.b = 0.2; p.c = 0.2;
  p.seed = cfg.seed;
  Dataset ds;
  ds.name = "products-sim";
  ds.graph = generate_rmat(p);
  ds.features = random_features(ds.num_vertices(), cfg.feature_dim,
                                derive_seed(cfg.seed, 1));
  // Train fraction chosen so the minibatch count tracks the paper's 196
  // batches (relative to Papers' 1172 and Protein's 1024).
  finish_performance_dataset(ds, 47, 2.0 * kTrainFraction, derive_seed(cfg.seed, 2));
  return ds;
}

Dataset make_papers_sim(const StandInConfig& cfg) {
  RmatParams p;
  p.scale = 16 + cfg.scale_shift;  // 65536 vertices by default
  p.edge_factor = 29.0;            // paper: avg degree 29
  p.a = 0.57; p.b = 0.19; p.c = 0.19;
  p.seed = derive_seed(cfg.seed, 10);
  Dataset ds;
  ds.name = "papers-sim";
  ds.graph = generate_rmat(p);
  ds.features = random_features(ds.num_vertices(), cfg.feature_dim,
                                derive_seed(cfg.seed, 11));
  // ~2x Products' batch count at the default scale shift (paper: 1172 vs 196,
  // tempered by CPU feasibility).
  finish_performance_dataset(ds, 172, 2.0 * kTrainFraction, derive_seed(cfg.seed, 12));
  return ds;
}

Dataset make_protein_sim(const StandInConfig& cfg) {
  RmatParams p;
  p.scale = 14 + cfg.scale_shift;  // 16384 vertices by default
  p.edge_factor = 120.0;           // densest dataset (paper: 241)
  p.a = 0.5; p.b = 0.22; p.c = 0.22;
  p.seed = derive_seed(cfg.seed, 20);
  Dataset ds;
  ds.name = "protein-sim";
  ds.graph = generate_rmat(p);
  ds.features = random_features(ds.num_vertices(), cfg.feature_dim,
                                derive_seed(cfg.seed, 21));
  // Protein has few vertices but the paper's second-highest batch count
  // (1024): use half the vertex set as training vertices.
  finish_performance_dataset(ds, 16, 5.0 * kTrainFraction, derive_seed(cfg.seed, 22));
  return ds;
}

Dataset make_planted_dataset(index_t n, int num_classes, int feature_dim,
                             double avg_degree, double p_intra, std::uint64_t seed) {
  Dataset ds;
  ds.name = "planted";
  ds.graph = generate_planted_partition(n, num_classes, avg_degree, p_intra, seed);
  ds.num_classes = num_classes;
  const index_t block = ceil_div(n, num_classes);

  // Class-correlated features: per-class Gaussian centroid + noise.
  Pcg32 rng(derive_seed(seed, 100), 0xfe1);
  DenseF centroids(num_classes, feature_dim);
  for (int cls = 0; cls < num_classes; ++cls) {
    float* row = centroids.row(cls);
    for (int j = 0; j < feature_dim; ++j) row[j] = static_cast<float>(rng.normal());
  }
  ds.features = DenseF(n, feature_dim);
  ds.labels.resize(static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v) {
    const auto cls = static_cast<int>(std::min<index_t>(v / block, num_classes - 1));
    ds.labels[static_cast<std::size_t>(v)] = cls;
    float* row = ds.features.row(v);
    const float* cen = centroids.row(cls);
    for (int j = 0; j < feature_dim; ++j) {
      row[j] = cen[j] + static_cast<float>(0.8 * rng.normal());
    }
  }

  // 50/25/25 split, stratified by construction (vertices are class-ordered,
  // and we stride so every class appears in every split).
  for (index_t v = 0; v < n; ++v) {
    switch (v % 4) {
      case 0:
      case 1: ds.train_idx.push_back(v); break;
      case 2: ds.val_idx.push_back(v); break;
      default: ds.test_idx.push_back(v); break;
    }
  }
  return ds;
}

Dataset make_standin_by_name(const std::string& name, const StandInConfig& cfg) {
  if (name == "products") return make_products_sim(cfg);
  if (name == "papers") return make_papers_sim(cfg);
  if (name == "protein") return make_protein_sim(cfg);
  throw DmsError("unknown dataset stand-in: " + name);
}

}  // namespace dms
