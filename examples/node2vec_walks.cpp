// node2vec sampling through the fused walk engine (DESIGN.md §11).
//
// The node2vec sampler compiles to a walk-shaped plan — GraphSAINT-RW plus
// one kWalkBias op applying the second-order p/q reweighting — and the plan
// optimizer rewrites that body into one kWalk op that runs every round
// fused: one pass over each walker's adjacency row instead of
// materializing per-round sparse matrices. The fusion is an execution
// detail, not a semantic one: this example runs the same epoch unoptimized
// (PlanExecOptions{.optimize = false}, the op-by-op matrix path) and
// optimized (one kWalk op over the graph's own adjacency), prints both
// listings, and exits nonzero if the minibatches are not bit-identical.
#include <cstdio>

#include "core/plan_sampler.hpp"
#include "graph/dataset.hpp"
#include "plan/builders.hpp"

using namespace dms;

namespace {

bool identical(const std::vector<MinibatchSample>& a,
               const std::vector<MinibatchSample>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].batch_vertices != b[i].batch_vertices) return false;
    if (a[i].layers.size() != b[i].layers.size()) return false;
    for (std::size_t l = 0; l < a[i].layers.size(); ++l) {
      if (!(a[i].layers[l].adj == b[i].layers[l].adj)) return false;
      if (a[i].layers[l].row_vertices != b[i].layers[l].row_vertices ||
          a[i].layers[l].col_vertices != b[i].layers[l].col_vertices) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  StandInConfig dcfg;
  dcfg.scale_shift = -2;
  const Dataset ds = make_products_sim(dcfg);
  std::printf("%s\n", ds.graph.summary(ds.name).c_str());

  // p = 0.5 discourages backtracking; q = 2.0 favors staying near the
  // previous vertex (BFS-like).
  const SamplePlan plan = build_node2vec_plan(/*walk_length=*/6,
                                              /*model_layers=*/2, /*p=*/0.5,
                                              /*q=*/2.0);
  const SamplerConfig cfg = walk_adapter_config(/*model_layers=*/2, /*seed=*/1);
  const PlanSampler sampler(ds.graph, plan, cfg);
  std::printf("\n%s\n", describe(plan).c_str());
  std::printf("optimized:\n%s\n", describe(sampler.plan()).c_str());

  std::vector<std::vector<index_t>> batches = {{0, 1, 2, 3, 4, 5},
                                               {6, 7, 8, 9, 10, 11}};
  const std::vector<index_t> ids = {0, 1};

  // Matrix path: the same plan unoptimized — every round builds Q,
  // multiplies, biases, normalizes, and ITS-samples as sparse-matrix ops.
  const PlanSampler reference(ds.graph, plan, cfg, {.optimize = false});
  const auto matrix = reference.sample_bulk(batches, ids, /*epoch_seed=*/3);

  // Fused path (the default): per-walker advance over the graph's CSR
  // adjacency rows, read in place.
  const auto fused = sampler.sample_bulk(batches, ids, /*epoch_seed=*/3);

  for (std::size_t i = 0; i < fused.size(); ++i) {
    std::printf("batch %zu: %zu induced walk vertices, %lld sampled edges\n",
                i, fused[i].batch_vertices.size(),
                static_cast<long long>(fused[i].layers[0].adj.nnz()));
  }
  const bool ok = identical(matrix, fused);
  std::printf("fused engine bit-identical to matrix path: %s\n",
              ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
