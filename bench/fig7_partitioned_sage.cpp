// Figure 7 (top): Graph Partitioned GraphSAGE — bulk sampling time
// broken into probability generation / sampling / extraction, and into
// computation vs communication, across p with the paper's per-p best c.
//
// The paper's shape (§8.2.1): the sparsity-aware 1.5D SpGEMM probability
// step dominates and the total falls with p, 1.75x from 16 to 64 ranks on
// Protein and 1.43x on Papers; communication scales when c grows and
// stalls when c is fixed; computation scales with p.
//
// This reproduction's shape: probability generation dominates, and its
// communication is the block rounds plus the row exchange, which sends
// each batch's partial-product rows only to the replica that keeps (and
// trains) the batch. Before the exchange, Algorithm 2's row all-reduce
// shipped the whole folded P to every replica and the total *rose* with p.
// Total (s, simulated), all-reduce → exchange, one run each on a shared
// 4-vCPU host:
//   papers  (16,1) 1.136 → 1.134   (32,2) 1.213 → 1.042   (64,4) 1.232 → 0.923
//   protein (16,2) 1.194 → 0.786   (32,4) 1.430 → 0.739   (64,4) 1.282 → 0.961
// Papers now speeds up with p (1.23x from 16 to 64 ranks). Protein does
// not: at (64,4) the block rounds cost more than at (32,4), because the
// generator puts the hubs at low vertex ids and contiguous blocks leave
// column chunk 0 with most of the nonzeros, so the round max over columns
// barely falls (DESIGN.md §3.2 gives the terms per point).
#include "bench_util.hpp"
#include "core/minibatch.hpp"
#include "dist/sampler_factory.hpp"

using namespace dms;
using namespace dms::bench;

namespace {

struct Point {
  int p, c;
};

}  // namespace

int main() {
  print_header("Figure 7 (top): Graph Partitioned GraphSAGE sampling time (s, simulated)");
  const LinkParams links = perlmutter_links();

  const std::map<std::string, std::vector<Point>> points = {
      {"protein", {{16, 2}, {32, 4}, {64, 4}}},
      {"papers", {{16, 1}, {32, 2}, {64, 4}}},
  };

  for (const auto& [name, pts] : points) {
    const Dataset& ds = dataset(name);
    const auto batches =
        make_epoch_batches(ds.train_idx, arch().sage_batch, /*epoch_seed=*/1);
    std::vector<index_t> ids(batches.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<index_t>(i);

    std::printf("\n--- %s (%zu minibatches, all sampled in one bulk) ---\n",
                ds.name.c_str(), batches.size());
    print_row({"p", "c", "total", "probability", "sampling", "extraction",
               "comp", "comm"},
              12);
    for (const Point& pt : pts) {
      Cluster cluster(ProcessGrid(pt.p, pt.c), CostModel(links));
      SamplerContext ctx;
      ctx.config = SamplerConfig{arch().sage_fanout, 1};
      ctx.grid = &cluster.grid();
      const auto sampler =
          make_sampler(SamplerKind::kGraphSage, DistMode::kPartitioned, ds.graph, ctx);
      as_partitioned(*sampler).sample_bulk(cluster, batches, ids, /*epoch_seed=*/7);
      print_row({std::to_string(pt.p), std::to_string(pt.c),
                 fmt(cluster.total_time()),
                 fmt(cluster.phase_time(kPhaseProbability)),
                 fmt(cluster.phase_time(kPhaseSampling)),
                 fmt(cluster.phase_time(kPhaseExtraction)),
                 fmt(cluster.total_compute()), fmt(cluster.total_comm())},
                12);
    }
  }
  std::printf("\nPaper reference: Protein 1.75x speedup 16->64, Papers 1.43x; time\n"
              "dominated by the sparsity-aware 1.5D SpGEMM probability step.\n");
  return 0;
}
