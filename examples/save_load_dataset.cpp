// Dataset persistence: generate a Table-3 stand-in once, save it in the
// binary format, reload, and verify that sampling on the reloaded dataset
// is bit-identical — the preprocessing workflow of production systems
// (DistDGL/Quiver ship partitioned binary formats for the same reason).
#include <cstdio>
#include <filesystem>

#include "dist/sampler_factory.hpp"
#include "graph/dataset.hpp"
#include "graph/io.hpp"

using namespace dms;

int main() {
  StandInConfig cfg;
  cfg.scale_shift = -3;  // small products-sim for a fast example
  const Dataset original = make_products_sim(cfg);
  std::printf("generated: %s\n", original.graph.summary(original.name).c_str());

  const std::string path =
      (std::filesystem::temp_directory_path() / "dms_example_products.bin").string();
  save_dataset(original, path);
  std::printf("saved to %s (%ju bytes)\n", path.c_str(),
              static_cast<std::uintmax_t>(std::filesystem::file_size(path)));

  const Dataset loaded = load_dataset(path);
  std::printf("loaded:    %s\n", loaded.graph.summary(loaded.name).c_str());

  // Same seeds on the same topology -> identical samples.
  const auto s1 = make_sampler(SamplerKind::kGraphSage, original.graph, {{4, 4}, 1});
  const auto s2 = make_sampler(SamplerKind::kGraphSage, loaded.graph, {{4, 4}, 1});
  const std::vector<index_t> batch(original.train_idx.begin(),
                                   original.train_idx.begin() + 32);
  const auto a = s1->sample_one(batch, 0, 99);
  const auto b = s2->sample_one(batch, 0, 99);
  bool identical = a.layers.size() == b.layers.size();
  for (std::size_t l = 0; identical && l < a.layers.size(); ++l) {
    identical = a.layers[l].adj == b.layers[l].adj &&
                a.layers[l].col_vertices == b.layers[l].col_vertices;
  }
  std::printf("sampling on reloaded dataset bit-identical: %s\n",
              identical ? "yes" : "NO");

  // MatrixMarket export of a sampled minibatch adjacency for inspection.
  const std::string mm =
      (std::filesystem::temp_directory_path() / "dms_example_sample.mtx").string();
  write_matrix_market(a.layers[0].adj, mm);
  std::printf("wrote sampled adjacency pattern to %s\n", mm.c_str());

  std::filesystem::remove(path);
  std::filesystem::remove(mm);
  return identical ? 0 : 1;
}
