// A custom sampler defined purely as a plan (DESIGN.md §9): a "two-hop"
// layer sampler — per layer, each frontier vertex samples s vertices
// proportional to the number of 2-paths reaching them (P = Q·A·A, NORM,
// ITS). No sampler class, no distributed code: the plan is ~25 lines,
// PlanSampler runs it as-is, and PartitionedSamplerBase runs the same plan
// on a 1.5D grid, each kSpgemm as the 1.5D collective — both modes
// bit-identical.
#include <cstdio>

#include "dist/dist_sampler.hpp"
#include "graph/dataset.hpp"

using namespace dms;

namespace {

/// The entire algorithm: one plan.
SamplePlan two_hop_plan() {
  SamplePlan p;
  p.name = "two_hop";
  const SlotId frontier = p.frontier_slot = p.add_slot();
  const SlotId q = p.add_slot();
  const SlotId stack = p.add_slot();
  const SlotId hop1 = p.add_slot();
  const SlotId hop2 = p.add_slot();
  const SlotId qs = p.add_slot();

  PlanOp build;
  build.kind = PlanOpKind::kBuildQ;
  build.label = "build_q";
  build.phase = kPhaseProbability;
  build.qmode = QMode::kOnePerVertex;
  build.in = frontier;
  build.out = q;
  build.out2 = stack;
  p.body.push_back(build);

  PlanOp first_hop;
  first_hop.kind = PlanOpKind::kSpgemm;
  first_hop.label = "spgemm_hop1";
  first_hop.phase = kPhaseProbability;
  first_hop.in = q;
  first_hop.out = hop1;
  p.body.push_back(first_hop);

  PlanOp second_hop = first_hop;  // P(v, u) = number of 2-paths v → u
  second_hop.label = "spgemm_hop2";
  second_hop.in = hop1;
  second_hop.out = hop2;
  p.body.push_back(second_hop);

  PlanOp norm;
  norm.kind = PlanOpKind::kNormalize;
  norm.label = "normalize";
  norm.phase = kPhaseProbability;
  norm.norm = NormMode::kRow;
  norm.in = hop2;
  p.body.push_back(norm);

  PlanOp its;
  its.kind = PlanOpKind::kItsSample;
  its.label = "its_sample";
  its.phase = kPhaseSampling;
  its.in = hop2;
  its.in2 = stack;
  its.out = qs;
  its.seed = {/*layer_salt=*/0x2409, SeedRowTerm::kLocalRow};
  p.body.push_back(its);

  PlanOp extract;
  extract.kind = PlanOpKind::kFrontierUnion;
  extract.label = "extract";
  extract.phase = kPhaseExtraction;
  extract.assemble = AssembleMode::kNeighborRows;
  extract.in = qs;
  extract.in2 = stack;
  p.body.push_back(extract);
  return p;
}

std::size_t total_edges(const std::vector<MinibatchSample>& samples) {
  std::size_t edges = 0;
  for (const auto& ms : samples) {
    for (const auto& layer : ms.layers) {
      edges += static_cast<std::size_t>(layer.adj.nnz());
    }
  }
  return edges;
}

}  // namespace

int main() {
  StandInConfig dcfg;
  dcfg.scale_shift = -2;
  const Dataset ds = make_products_sim(dcfg);
  std::printf("%s\n", ds.graph.summary(ds.name).c_str());

  const SamplePlan plan = two_hop_plan();
  std::printf("\n%s\n", describe(plan).c_str());

  const SamplerConfig cfg{{6, 4}, /*seed=*/1};
  std::vector<std::vector<index_t>> batches = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  const std::vector<index_t> ids = {0, 1};

  // Replicated: the plan as written.
  const PlanSampler rep(ds.graph, plan, cfg);
  const auto replicated = rep.sample_bulk(batches, ids, /*epoch_seed=*/7);
  std::printf("replicated:  %zu minibatches, %zu sampled edges\n",
              replicated.size(), total_edges(replicated));

  // Partitioned: the same plan, run by PartitionedSamplerBase on a 4×2
  // process grid, where the executor runs each kSpgemm as the 1.5D
  // collective. Bit-identical by the determinism contract.
  Cluster cluster(ProcessGrid(4, 2), CostModel(LinkParams{}));
  const PartitionedSamplerBase part(ds.graph, cluster.grid(), plan, cfg);
  const auto partitioned = part.sample_bulk(batches, ids, /*epoch_seed=*/7);
  std::printf("partitioned: %zu minibatches, %zu sampled edges\n",
              partitioned.size(), total_edges(partitioned));

  bool identical = replicated.size() == partitioned.size();
  for (std::size_t i = 0; identical && i < replicated.size(); ++i) {
    identical = replicated[i].batch_vertices == partitioned[i].batch_vertices &&
                replicated[i].layers.size() == partitioned[i].layers.size();
    for (std::size_t l = 0; identical && l < replicated[i].layers.size(); ++l) {
      identical =
          replicated[i].layers[l].adj == partitioned[i].layers[l].adj &&
          replicated[i].layers[l].col_vertices ==
              partitioned[i].layers[l].col_vertices;
    }
  }
  std::printf("bit-identical across modes: %s\n", identical ? "yes" : "NO");
  return identical ? 0 : 1;
}
