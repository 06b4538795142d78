#include "plan/optimize.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <vector>

namespace dms {

namespace {

/// Rewrite 1's legality check: the body is exactly kBuildQ(kOnePerVertex)
/// → kSpgemm → [kWalkBias] → kNormalize(kRow) → kItsSample(kMatrixRows,
/// s = 1, kLocalRow, stacked) → kWalkAdvance with matching slot wiring, in
/// an explicit-round stop-on-empty plan. The bias op is present iff the
/// plan has a prev slot (the engine walks second-order exactly then), and
/// no epilogue op reads the round number, which the rewritten one-round
/// plan changes. Returns the kWalk op that replaces the body.
std::optional<PlanOp> match_walk_plan(const SamplePlan& plan) {
  if (plan.rounds_from_fanouts || !plan.stop_on_empty_frontier ||
      plan.visited_slot == kNoSlot) {
    return std::nullopt;
  }
  for (const PlanOp& op : plan.epilogue) {
    if (op.kind == PlanOpKind::kItsSample || op.kind == PlanOpKind::kPoissonThin) {
      return std::nullopt;
    }
  }
  const bool biased = plan.prev_slot != kNoSlot;
  const auto& ops = plan.body;
  if (ops.size() != (biased ? 6u : 5u)) return std::nullopt;
  std::size_t i = 0;
  const PlanOp& build = ops[i++];
  if (build.kind != PlanOpKind::kBuildQ || build.qmode != QMode::kOnePerVertex ||
      build.in != plan.frontier_slot) {
    return std::nullopt;
  }
  const PlanOp& mul = ops[i++];
  if (mul.kind != PlanOpKind::kSpgemm || mul.in != build.out) {
    return std::nullopt;
  }
  PlanOp walk;
  if (biased) {
    const PlanOp& bias = ops[i++];
    if (bias.kind != PlanOpKind::kWalkBias || bias.in != mul.out ||
        bias.in2 != build.out2) {
      return std::nullopt;
    }
    walk.bias_p = bias.bias_p;
    walk.bias_q = bias.bias_q;
  }
  const PlanOp& norm = ops[i++];
  if (norm.kind != PlanOpKind::kNormalize || norm.norm != NormMode::kRow ||
      norm.in != mul.out) {
    return std::nullopt;
  }
  const PlanOp& its = ops[i++];
  if (its.kind != PlanOpKind::kItsSample ||
      its.source != SampleSource::kMatrixRows || its.fixed_s != 1 ||
      its.seed.row != SeedRowTerm::kLocalRow || its.in != mul.out ||
      its.in2 != build.out2) {
    return std::nullopt;
  }
  const PlanOp& adv = ops[i++];
  if (adv.kind != PlanOpKind::kWalkAdvance || adv.in != its.out ||
      adv.in2 != build.out2) {
    return std::nullopt;
  }
  walk.kind = PlanOpKind::kWalk;
  walk.label = "fused_walk";
  walk.phase = kPhaseSampling;
  walk.seed = its.seed;
  walk.walk_length = plan.explicit_rounds;
  return walk;
}

/// Rewrite 2: the adjacent body window
/// kBuildQ(kOnePerVertex) → kSpgemm → kNormalize(kRow) →
/// kItsSample(kMatrixRows, in2 = that kBuildQ's stack) becomes kBuildQ →
/// kItsSample(kAdjacencyRows), which draws each stacked row from the
/// adjacency in place; the kSpgemm and the kNormalize are deleted. Legal
/// when the normalize and the sample are the only ops in the plan reading
/// the product (so nothing else observes P) and the spgemm the only one
/// reading Q. The kBuildQ stays for the stack it writes; its Q output is
/// cleared, so it no longer builds Q.
void draw_in_place(SamplePlan& plan) {
  std::vector<PlanOp>& ops = plan.body;
  for (std::size_t i = 0; i + 3 < ops.size(); ++i) {
    PlanOp& build = ops[i];
    const PlanOp& mul = ops[i + 1];
    const PlanOp& norm = ops[i + 2];
    PlanOp& its = ops[i + 3];
    if (build.kind != PlanOpKind::kBuildQ || build.qmode != QMode::kOnePerVertex ||
        mul.kind != PlanOpKind::kSpgemm || mul.in != build.out ||
        !sole_reader_of_input(plan, mul) || norm.kind != PlanOpKind::kNormalize ||
        norm.norm != NormMode::kRow || norm.in != mul.out ||
        its.kind != PlanOpKind::kItsSample ||
        its.source != SampleSource::kMatrixRows || its.in != mul.out ||
        its.in2 != build.out2 || slot_readers(plan, mul.out) != 2) {
      continue;
    }
    build.out = kNoSlot;
    its.source = SampleSource::kAdjacencyRows;
    its.in = kNoSlot;
    ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i) + 1,
              ops.begin() + static_cast<std::ptrdiff_t>(i) + 3);
  }
}

}  // namespace

SamplePlan optimize(const SamplePlan& plan) {
  validate_plan(plan);
  SamplePlan out = plan;
  if (std::optional<PlanOp> walk = match_walk_plan(out)) {
    out.body = {std::move(*walk)};
    out.explicit_rounds = 1;
  }
  draw_in_place(out);
  validate_plan(out);
  return out;
}

std::string plan_signature(const SamplePlan& plan) {
  std::ostringstream os;
  // Hexfloat writes every floating-point field exactly: two plans whose
  // p or q differ in the last bit must not share a cache entry.
  os << std::hexfloat << plan.name << '|' << plan.num_slots << '|'
     << plan.frontier_slot << '|' << plan.visited_slot << '|' << plan.prev_slot
     << '|' << plan.rounds_from_fanouts << '|' << plan.explicit_rounds << '|'
     << plan.stop_on_empty_frontier << '|' << plan.needs_global_weights;
  auto dump = [&](const std::vector<PlanOp>& ops) {
    for (const PlanOp& op : ops) {
      os << ';' << static_cast<int>(op.kind) << ',' << op.label << ','
         << op.phase << ',' << op.in << ',' << op.in2 << ',' << op.out << ','
         << op.out2 << ',' << static_cast<int>(op.qmode) << ','
         << static_cast<int>(op.norm) << ',' << static_cast<int>(op.source)
         << ',' << op.seed.layer_salt << ',' << static_cast<int>(op.seed.row)
         << ',' << static_cast<int>(op.assemble) << ',' << op.fixed_s << ','
         << op.copies << ',' << op.bias_p << ',' << op.bias_q << ','
         << op.walk_length;
    }
  };
  dump(plan.body);
  os << "|epi";
  dump(plan.epilogue);
  return os.str();
}

std::string describe_diff(const SamplePlan& before, const SamplePlan& after) {
  auto split = [](const std::string& s) {
    std::vector<std::string> lines;
    std::istringstream is(s);
    for (std::string line; std::getline(is, line);) lines.push_back(line);
    return lines;
  };
  const std::vector<std::string> a = split(describe(before));
  const std::vector<std::string> b = split(describe(after));
  // Longest common subsequence over listing lines (plans are tiny).
  const std::size_t n = a.size(), m = b.size();
  std::vector<std::vector<std::size_t>> lcs(n + 1, std::vector<std::size_t>(m + 1, 0));
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = m; j-- > 0;) {
      lcs[i][j] = a[i] == b[j] ? lcs[i + 1][j + 1] + 1
                               : std::max(lcs[i + 1][j], lcs[i][j + 1]);
    }
  }
  std::ostringstream os;
  std::size_t i = 0, j = 0;
  while (i < n || j < m) {
    if (i < n && j < m && a[i] == b[j]) {
      os << "  " << a[i] << "\n";
      ++i, ++j;
    } else if (j < m && (i == n || lcs[i][j + 1] >= lcs[i + 1][j])) {
      os << "+ " << b[j] << "\n";
      ++j;
    } else {
      os << "- " << a[i] << "\n";
      ++i;
    }
  }
  return os.str();
}

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

std::shared_ptr<const SamplePlan> PlanCache::get_or_optimize(
    const SamplePlan& plan) {
  const std::string k = plan_signature(plan);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.lookups;
    const auto it = map_.find(k);
    if (it != map_.end()) {
      ++stats_.hits;
      return it->second;
    }
  }
  // Optimize outside the lock (pure function of the inputs: a racing
  // constructor computes the same plan and the first insert wins).
  auto optimized = std::make_shared<const SamplePlan>(optimize(plan));
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = map_.emplace(k, std::move(optimized));
  stats_.entries = map_.size();
  return it->second;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  stats_ = Stats{};
}

}  // namespace dms
