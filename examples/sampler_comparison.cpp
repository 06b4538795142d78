// Compares the three sampling algorithms expressed in the matrix framework
// (GraphSAGE node-wise, LADIES layer-wise, FastGCN layer-wise) on the same
// minibatches: frontier growth, edges kept, and sampling time — the §2.2
// taxonomy, quantified.
#include <cstdio>

#include "common/timer.hpp"
#include "core/minibatch.hpp"
#include "dist/sampler_factory.hpp"
#include "graph/dataset.hpp"

using namespace dms;

namespace {

void report(const char* name, const MatrixSampler& sampler,
            const std::vector<std::vector<index_t>>& batches) {
  std::vector<index_t> ids(batches.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<index_t>(i);
  Timer t;
  const auto samples = sampler.sample_bulk(batches, ids, /*epoch_seed=*/9);
  const double sec = t.seconds();

  double frontier = 0.0, edges = 0.0, input = 0.0;
  for (const auto& ms : samples) {
    input += static_cast<double>(ms.input_vertices().size());
    for (const auto& layer : ms.layers) {
      frontier += static_cast<double>(layer.col_vertices.size());
      edges += static_cast<double>(layer.adj.nnz());
    }
  }
  const auto k = static_cast<double>(samples.size());
  std::printf("%-10s %-8zu %-14.1f %-12.1f %-14.1f %-10.4f\n", name,
              sampler.config().fanouts.size(), frontier / k, edges / k, input / k, sec);
}

}  // namespace

int main() {
  StandInConfig dcfg;
  dcfg.scale_shift = -1;
  const Dataset ds = make_products_sim(dcfg);
  std::printf("%s\n\n", ds.graph.summary(ds.name).c_str());

  auto batches = make_epoch_batches(ds.train_idx, 64, 1);
  batches.resize(32);  // 32 minibatches is plenty for averages

  std::printf("%-10s %-8s %-14s %-12s %-14s %-10s\n", "sampler", "layers",
              "frontier/bat", "edges/bat", "inputs/bat", "time(s)");
  report("SAGE", *make_sampler(SamplerKind::kGraphSage, ds.graph, {{8, 4, 4}, 1}),
         batches);
  report("LADIES", *make_sampler(SamplerKind::kLadies, ds.graph, {{64}, 1}), batches);
  report("FastGCN", *make_sampler(SamplerKind::kFastGcn, ds.graph, {{64}, 1}), batches);
  report("LABOR", *make_sampler(SamplerKind::kLabor, ds.graph, {{8, 4, 4}, 1}),
         batches);
  SamplerContext saint;
  saint.config = {{1, 1, 1}, 1};  // walk kinds read only the layer count
  saint.walk.walk_length = 3;
  report("SAINT-RW",
         *make_sampler(SamplerKind::kGraphSaint, DistMode::kReplicated,
                       ds.graph, saint),
         batches);

  std::printf("\nNode-wise SAGE grows the frontier multiplicatively per layer\n"
              "(neighborhood explosion, capped by fanout); layer-wise LADIES and\n"
              "FastGCN bound every layer at s vertices; graph-wise SAINT-RW trains\n"
              "on one induced subgraph reused across layers. LABOR matches SAGE's\n"
              "expected fanout but shares per-vertex randomness within a batch, so\n"
              "its input frontier (the feature-fetch volume) is smaller. LADIES\n"
              "restricts samples to the aggregated neighborhood; FastGCN may sample\n"
              "disconnected vertices (the accuracy trade-off of §2.2.2).\n");
  return 0;
}
