#include "plan/plan.hpp"

#include <set>
#include <sstream>

#include "common/types.hpp"  // DmsError / check

namespace dms {

namespace {

struct OpShape {
  bool needs_in = false;
  bool needs_in2 = false;
  bool needs_out = false;
  bool needs_out2 = false;
};

OpShape op_shape(const PlanOp& op) {
  switch (op.kind) {
    case PlanOpKind::kBuildQ:
      // kOnePerVertex's Q (out) is optional: the in-place adjacency draw
      // reads only the stack (out2).
      return {true, false, op.qmode != QMode::kOnePerVertex,
              op.qmode == QMode::kOnePerVertex};
    case PlanOpKind::kSpgemm:
      return {true, false, true, false};
    case PlanOpKind::kNormalize:
      return {true, false, false, false};
    case PlanOpKind::kItsSample:
      // kMatrixRows reads P (in) and optionally a stack (in2);
      // kAdjacencyRows reads only the stack; kGlobalWeights reads nothing
      // from the slot space.
      return {op.source == SampleSource::kMatrixRows,
              op.source == SampleSource::kAdjacencyRows, true, false};
    case PlanOpKind::kPoissonThin:
      return {true, true, true, false};
    case PlanOpKind::kSlice:
      return {true, false, true, false};
    case PlanOpKind::kMaskedExtract:
      return {true, false, true, false};  // in = sampled sets; rows = frontier
    case PlanOpKind::kFrontierUnion:
      return {true, true, false, false};
    case PlanOpKind::kWalkAdvance:
      return {true, true, false, false};
    case PlanOpKind::kWalkBias:
      return {true, true, false, false};  // in-place on `in`; reads prev slot
    case PlanOpKind::kInducedLayers:
      return {false, false, false, false};  // reads the visited slot
    case PlanOpKind::kWalk:
      return {false, false, false, false};  // the persistent walk slots
  }
  return {};
}

void validate_ops(const SamplePlan& plan, const std::vector<PlanOp>& ops,
                  std::set<SlotId>& defined, const char* section) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const PlanOp& op = ops[i];
    const std::string where = "SamplePlan '" + plan.name + "' " + section +
                              " op " + std::to_string(i) + " (" +
                              to_string(op.kind) + " '" + op.label + "')";
    check(op.phase != nullptr, where + ": missing phase tag");
    const OpShape shape = op_shape(op);
    auto check_slot = [&](SlotId s, const char* role, bool required) {
      if (s == kNoSlot) {
        check(!required, where + ": missing operand (" + role + ")");
        return;
      }
      check(s >= 0 && s < plan.num_slots,
            where + ": slot " + std::to_string(s) + " out of range");
    };
    check_slot(op.in, "in", shape.needs_in);
    check_slot(op.in2, "in2", shape.needs_in2);
    check_slot(op.out, "out", shape.needs_out);
    check_slot(op.out2, "out2", shape.needs_out2);
    for (const SlotId s : {op.in, op.in2}) {
      if (s == kNoSlot) continue;
      check(defined.count(s) > 0,
            where + ": unbound slot " + std::to_string(s) +
                " (read before any write)");
    }
    check(op.kind != PlanOpKind::kItsSample ||
              op.source != SampleSource::kAdjacencyRows || op.in == kNoSlot,
          where + ": the adjacency-rows source reads no in slot");
    const bool walks = op.kind == PlanOpKind::kWalkAdvance ||
                       op.kind == PlanOpKind::kWalk;
    if (op.kind == PlanOpKind::kFrontierUnion || walks) {
      check(plan.frontier_slot != kNoSlot, where + ": plan has no frontier slot");
    }
    if (walks || op.kind == PlanOpKind::kInducedLayers) {
      check(plan.visited_slot != kNoSlot, where + ": plan has no visited slot");
    }
    if (op.kind == PlanOpKind::kWalkBias) {
      check(plan.prev_slot != kNoSlot, where + ": plan has no prev slot");
    }
    if (op.kind == PlanOpKind::kWalkBias || op.kind == PlanOpKind::kWalk) {
      check(op.bias_p > 0.0 && op.bias_q > 0.0,
            where + ": bias parameters p and q must be positive");
    }
    if (op.kind == PlanOpKind::kWalk) {
      check(op.walk_length > 0, where + ": walk_length must be positive");
    }
    if (op.out != kNoSlot) defined.insert(op.out);
    if (op.out2 != kNoSlot) defined.insert(op.out2);
  }
}

}  // namespace

void validate_plan(const SamplePlan& plan) {
  check(!plan.name.empty(), "SamplePlan: missing name");
  check(plan.frontier_slot != kNoSlot || plan.body.empty(),
        "SamplePlan '" + plan.name + "': missing frontier slot");
  check(plan.rounds_from_fanouts || plan.explicit_rounds > 0,
        "SamplePlan '" + plan.name + "': explicit_rounds must be positive");
  auto check_bound = [&](SlotId s, const char* what) {
    if (s == kNoSlot) return;
    check(s >= 0 && s < plan.num_slots,
          "SamplePlan '" + plan.name + "': " + what + " slot out of range");
  };
  check_bound(plan.frontier_slot, "frontier");
  check_bound(plan.visited_slot, "visited");
  check_bound(plan.prev_slot, "prev");

  // Only the frontier / visited / prev slots persist across rounds; every
  // other slot must be written before it is read, in program order.
  std::set<SlotId> defined;
  if (plan.frontier_slot != kNoSlot) defined.insert(plan.frontier_slot);
  if (plan.visited_slot != kNoSlot) defined.insert(plan.visited_slot);
  if (plan.prev_slot != kNoSlot) defined.insert(plan.prev_slot);
  validate_ops(plan, plan.body, defined, "body");
  validate_ops(plan, plan.epilogue, defined, "epilogue");
}

std::string to_string(PlanOpKind kind) {
  switch (kind) {
    case PlanOpKind::kBuildQ: return "build_q";
    case PlanOpKind::kSpgemm: return "spgemm";
    case PlanOpKind::kNormalize: return "normalize";
    case PlanOpKind::kItsSample: return "its_sample";
    case PlanOpKind::kPoissonThin: return "poisson_thin";
    case PlanOpKind::kSlice: return "slice";
    case PlanOpKind::kMaskedExtract: return "masked_extract";
    case PlanOpKind::kFrontierUnion: return "frontier_union";
    case PlanOpKind::kWalkAdvance: return "walk_advance";
    case PlanOpKind::kWalkBias: return "walk_bias";
    case PlanOpKind::kInducedLayers: return "induced_layers";
    case PlanOpKind::kWalk: return "walk";
  }
  return "unknown";
}

int slot_readers(const SamplePlan& plan, SlotId s) {
  int readers = 0;
  for (const auto* ops : {&plan.body, &plan.epilogue}) {
    for (const PlanOp& other : *ops) {
      readers += (other.in == s) + (other.in2 == s);
    }
  }
  return readers;
}

bool sole_reader_of_input(const SamplePlan& plan, const PlanOp& op) {
  return slot_readers(plan, op.in) == 1;
}

std::string describe(const SamplePlan& plan) {
  std::ostringstream os;
  os << "plan " << plan.name << ": "
     << (plan.rounds_from_fanouts ? std::string("rounds=|fanouts|")
                                  : "rounds=" + std::to_string(plan.explicit_rounds))
     << ", slots=" << plan.num_slots << "\n";
  auto dump = [&](const std::vector<PlanOp>& ops, const char* section) {
    for (const PlanOp& op : ops) {
      os << "  [" << section << "] " << to_string(op.kind) << " '" << op.label
         << "' phase=" << op.phase;
      if (op.in != kNoSlot) os << " in=s" << op.in;
      if (op.in2 != kNoSlot) os << " in2=s" << op.in2;
      if (op.out != kNoSlot) os << " out=s" << op.out;
      if (op.out2 != kNoSlot) os << " out2=s" << op.out2;
      if (op.fixed_s >= 0) os << " s=" << op.fixed_s;
      if (op.kind == PlanOpKind::kWalk) os << " length=" << op.walk_length;
      if (op.kind == PlanOpKind::kItsSample &&
          op.source == SampleSource::kAdjacencyRows) {
        os << " source=adjacency";
      }
      os << "\n";
    }
  };
  dump(plan.body, "body");
  dump(plan.epilogue, "epi");
  return os.str();
}

}  // namespace dms
