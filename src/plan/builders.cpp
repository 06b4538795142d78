#include "plan/builders.hpp"

namespace dms {

namespace {

PlanOp op(PlanOpKind kind, const char* label, const char* phase) {
  PlanOp o;
  o.kind = kind;
  o.label = label;
  o.phase = phase;
  return o;
}

}  // namespace

SamplePlan build_sage_plan() {
  SamplePlan p;
  p.name = "sage";
  const SlotId frontier = p.frontier_slot = p.add_slot();
  const SlotId q = p.add_slot();
  const SlotId stack = p.add_slot();
  const SlotId prob = p.add_slot();
  const SlotId qs = p.add_slot();

  PlanOp build = op(PlanOpKind::kBuildQ, "build_q", kPhaseProbability);
  build.qmode = QMode::kOnePerVertex;
  build.in = frontier;
  build.out = q;
  build.out2 = stack;
  p.body.push_back(build);

  PlanOp mul = op(PlanOpKind::kSpgemm, "spgemm", kPhaseProbability);
  mul.in = q;
  mul.out = prob;
  p.body.push_back(mul);

  PlanOp norm = op(PlanOpKind::kNormalize, "normalize", kPhaseProbability);
  norm.norm = NormMode::kRow;
  norm.in = prob;
  p.body.push_back(norm);

  PlanOp its = op(PlanOpKind::kItsSample, "its_sample", kPhaseSampling);
  its.in = prob;
  its.in2 = stack;
  its.out = qs;
  its.seed = {0, SeedRowTerm::kLocalRow};
  p.body.push_back(its);

  PlanOp extract = op(PlanOpKind::kFrontierUnion, "extract", kPhaseExtraction);
  extract.assemble = AssembleMode::kNeighborRows;
  extract.in = qs;
  extract.in2 = stack;
  p.body.push_back(extract);
  return p;
}

SamplePlan build_ladies_plan() {
  SamplePlan p;
  p.name = "ladies";
  const SlotId frontier = p.frontier_slot = p.add_slot();
  const SlotId q = p.add_slot();
  const SlotId prob = p.add_slot();
  const SlotId qs = p.add_slot();
  const SlotId sampled = p.add_slot();
  const SlotId a_s = p.add_slot();

  PlanOp build = op(PlanOpKind::kBuildQ, "build_q", kPhaseProbability);
  build.qmode = QMode::kIndicator;
  build.in = frontier;
  build.out = q;
  p.body.push_back(build);

  PlanOp mul = op(PlanOpKind::kSpgemm, "spgemm", kPhaseProbability);
  mul.in = q;
  mul.out = prob;
  p.body.push_back(mul);

  PlanOp norm = op(PlanOpKind::kNormalize, "normalize", kPhaseProbability);
  norm.norm = NormMode::kLadies;
  norm.in = prob;
  p.body.push_back(norm);

  PlanOp its = op(PlanOpKind::kItsSample, "its_sample", kPhaseSampling);
  its.in = prob;  // one row per batch: seeds keyed by batch id alone
  its.out = qs;
  its.seed = {0, SeedRowTerm::kZero};
  p.body.push_back(its);

  PlanOp slice = op(PlanOpKind::kSlice, "slice", kPhaseExtraction);
  slice.in = qs;
  slice.out = sampled;
  p.body.push_back(slice);

  PlanOp mask = op(PlanOpKind::kMaskedExtract, "masked_extract", kPhaseExtraction);
  mask.in = sampled;
  mask.out = a_s;
  p.body.push_back(mask);

  PlanOp assemble = op(PlanOpKind::kFrontierUnion, "assemble", kPhaseExtraction);
  assemble.assemble = AssembleMode::kSampledSets;
  assemble.in = a_s;
  assemble.in2 = sampled;
  p.body.push_back(assemble);
  return p;
}

SamplePlan build_fastgcn_plan() {
  SamplePlan p;
  p.name = "fastgcn";
  p.needs_global_weights = true;
  p.frontier_slot = p.add_slot();
  const SlotId sampled = p.add_slot();
  const SlotId a_s = p.add_slot();

  PlanOp its = op(PlanOpKind::kItsSample, "its_global", kPhaseSampling);
  its.source = SampleSource::kGlobalWeights;
  its.out = sampled;
  its.seed = {0, SeedRowTerm::kOne};
  p.body.push_back(its);

  PlanOp mask = op(PlanOpKind::kMaskedExtract, "masked_extract", kPhaseExtraction);
  mask.in = sampled;
  mask.out = a_s;
  p.body.push_back(mask);

  PlanOp assemble = op(PlanOpKind::kFrontierUnion, "assemble", kPhaseExtraction);
  assemble.assemble = AssembleMode::kSampledSets;
  assemble.in = a_s;
  assemble.in2 = sampled;
  p.body.push_back(assemble);
  return p;
}

SamplePlan build_labor_plan() {
  SamplePlan p;
  p.name = "labor";
  const SlotId frontier = p.frontier_slot = p.add_slot();
  const SlotId q = p.add_slot();
  const SlotId stack = p.add_slot();
  const SlotId prob = p.add_slot();
  const SlotId qs = p.add_slot();

  PlanOp build = op(PlanOpKind::kBuildQ, "build_q", kPhaseProbability);
  build.qmode = QMode::kOnePerVertex;
  build.in = frontier;
  build.out = q;
  build.out2 = stack;
  p.body.push_back(build);

  PlanOp mul = op(PlanOpKind::kSpgemm, "spgemm", kPhaseProbability);
  mul.in = q;
  mul.out = prob;
  p.body.push_back(mul);

  PlanOp norm = op(PlanOpKind::kNormalize, "normalize", kPhaseProbability);
  norm.norm = NormMode::kRow;  // P(v, u) = 1/deg(v): thin at rate s/deg(v)
  norm.in = prob;
  p.body.push_back(norm);

  PlanOp thin = op(PlanOpKind::kPoissonThin, "poisson_thin", kPhaseSampling);
  thin.in = prob;
  thin.in2 = stack;
  thin.out = qs;
  thin.seed = {0x1ab0, SeedRowTerm::kZero};  // r_u keyed (epoch, batch, round, u)
  p.body.push_back(thin);

  PlanOp extract = op(PlanOpKind::kFrontierUnion, "extract", kPhaseExtraction);
  extract.assemble = AssembleMode::kNeighborRows;
  extract.in = qs;
  extract.in2 = stack;
  p.body.push_back(extract);
  return p;
}

namespace {

/// The one walk-plan builder (DESIGN.md §11): walk_length rounds of
/// kBuildQ → kSpgemm → [kWalkBias] → kNormalize → kItsSample(s = 1) →
/// kWalkAdvance, then the induced-subgraph epilogue. The bias op and the
/// prev slot it reads are emitted only for a biased walk (p ≠ 1 or q ≠ 1):
/// at p = q = 1 every bias factor is exactly 1.0, so the first-order body
/// draws the same walks without the second-order membership tests.
SamplePlan build_walk_plan(const char* name, index_t walk_length,
                           index_t model_layers, value_t p_ret, value_t q_io) {
  const std::string where = std::string(name) + " walk plan: ";
  check(walk_length >= 1, where + "walk_length must be >= 1");
  check(model_layers >= 1, where + "model_layers must be >= 1");
  check(p_ret > 0.0 && q_io > 0.0, where + "p and q must be positive");
  const bool biased = p_ret != 1.0 || q_io != 1.0;
  SamplePlan p;
  p.name = name;
  p.rounds_from_fanouts = false;
  p.explicit_rounds = walk_length;
  p.stop_on_empty_frontier = true;
  const SlotId walker = p.frontier_slot = p.add_slot();
  p.visited_slot = p.add_slot();
  if (biased) p.prev_slot = p.add_slot();
  const SlotId q = p.add_slot();
  const SlotId stack = p.add_slot();
  const SlotId prob = p.add_slot();
  const SlotId qs = p.add_slot();

  PlanOp build = op(PlanOpKind::kBuildQ, "build_q", kPhaseProbability);
  build.qmode = QMode::kOnePerVertex;
  build.in = walker;
  build.out = q;
  build.out2 = stack;
  p.body.push_back(build);

  PlanOp mul = op(PlanOpKind::kSpgemm, "spgemm", kPhaseProbability);
  mul.in = q;
  mul.out = prob;
  p.body.push_back(mul);

  if (biased) {
    PlanOp bias = op(PlanOpKind::kWalkBias, "walk_bias", kPhaseProbability);
    bias.in = prob;
    bias.in2 = stack;
    bias.bias_p = p_ret;
    bias.bias_q = q_io;
    p.body.push_back(bias);
  }

  PlanOp norm = op(PlanOpKind::kNormalize, "normalize", kPhaseProbability);
  norm.norm = NormMode::kRow;
  norm.in = prob;
  p.body.push_back(norm);

  PlanOp its = op(PlanOpKind::kItsSample, "its_sample", kPhaseSampling);
  its.in = prob;
  its.in2 = stack;
  its.out = qs;
  its.fixed_s = 1;                            // one next vertex per walker
  its.seed = {0x5a17, SeedRowTerm::kLocalRow};  // the pre-IR walk seeds
  p.body.push_back(its);

  PlanOp advance = op(PlanOpKind::kWalkAdvance, "walk_advance", kPhaseExtraction);
  advance.in = qs;
  advance.in2 = stack;
  p.body.push_back(advance);

  PlanOp induced = op(PlanOpKind::kInducedLayers, "induced", kPhaseExtraction);
  induced.copies = model_layers;
  p.epilogue.push_back(induced);
  return p;
}

}  // namespace

SamplePlan build_saint_plan(index_t walk_length, index_t model_layers) {
  return build_walk_plan("saint_rw", walk_length, model_layers, 1.0, 1.0);
}

SamplePlan build_node2vec_plan(index_t walk_length, index_t model_layers,
                               value_t p_ret, value_t q_io) {
  return build_walk_plan("node2vec", walk_length, model_layers, p_ret, q_io);
}

SamplerConfig walk_adapter_config(index_t model_layers, std::uint64_t seed) {
  SamplerConfig cfg;
  cfg.fanouts.assign(static_cast<std::size_t>(model_layers), 1);
  cfg.seed = seed;
  return cfg;
}

SamplePlan build_pinsage_plan() {
  // The GraphSAGE op program verbatim — the PinSAGE semantics come entirely
  // from binding the walk-derived weighted adjacency (core/pinsage.hpp):
  // NORM turns the visit counts into importance probabilities and ITS draws
  // the weighted fanout.
  SamplePlan p = build_sage_plan();
  p.name = "pinsage";
  return p;
}

}  // namespace dms
