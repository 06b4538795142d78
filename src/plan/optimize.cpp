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
/// an unlowered explicit-round stop-on-empty plan. The bias op is present
/// iff the plan has a prev slot (the engine walks second-order exactly
/// then), and no epilogue op reads the round number, which the rewritten
/// one-round plan changes. Returns the kWalk op that replaces the body.
std::optional<PlanOp> match_walk_plan(const SamplePlan& plan) {
  if (plan.distributed || plan.rounds_from_fanouts ||
      !plan.stop_on_empty_frontier || plan.visited_slot == kNoSlot) {
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

/// Rewrite 2: collapse adjacent kSpgemm → kNormalize (normalize.in == the
/// product slot) into one spgemm op with fused_norm. Adjacency is the
/// legality argument: no op observes the unnormalized product, so applying
/// the identical normalization inside the producing op reorders nothing.
void fuse_normalize(std::vector<PlanOp>& ops) {
  for (std::size_t i = 0; i + 1 < ops.size();) {
    PlanOp& op = ops[i];
    const PlanOp& next = ops[i + 1];
    const bool spgemm =
        op.kind == PlanOpKind::kSpgemm || op.kind == PlanOpKind::kSpgemm15d;
    if (spgemm && !op.fused_norm && next.kind == PlanOpKind::kNormalize &&
        next.in == op.out) {
      op.fused_norm = true;
      op.norm = next.norm;
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      continue;  // re-check i against its new successor
    }
    ++i;
  }
}

/// Rewrite 3: in an unlowered body, kBuildQ(kOnePerVertex) → kSpgemm
/// (fused kRow) → kItsSample(kMatrixRows, in2 = that kBuildQ's stack)
/// becomes one kItsSample(kAdjacencyRows) that draws each stacked row from
/// the adjacency in place, and the kSpgemm is deleted. Legal when the
/// kItsSample is the only op in the plan that reads the product slot (so
/// nothing else observes P) and the product and stack are the last writes
/// of their slots before it. The kBuildQ stays: its Q is written but no
/// longer read.
void draw_in_place(SamplePlan& plan) {
  if (plan.distributed) return;
  std::vector<PlanOp>& ops = plan.body;
  // Index of the last op before `end` writing slot s, or -1.
  const auto last_writer = [&](SlotId s, std::size_t end) {
    for (std::size_t j = end; j-- > 0;) {
      if (ops[j].out == s || ops[j].out2 == s) return static_cast<std::ptrdiff_t>(j);
    }
    return std::ptrdiff_t{-1};
  };
  for (std::size_t i = 0; i < ops.size(); ++i) {
    PlanOp& its = ops[i];
    if (its.kind != PlanOpKind::kItsSample ||
        its.source != SampleSource::kMatrixRows || its.in2 == kNoSlot ||
        !sole_reader_of_input(plan, its)) {
      continue;
    }
    const std::ptrdiff_t m = last_writer(its.in, i);
    if (m < 0) continue;
    const PlanOp& mul = ops[static_cast<std::size_t>(m)];
    if (mul.kind != PlanOpKind::kSpgemm || !mul.fused_norm ||
        mul.norm != NormMode::kRow) {
      continue;
    }
    const std::ptrdiff_t b = last_writer(mul.in, static_cast<std::size_t>(m));
    if (b < 0 || last_writer(its.in2, i) != b) continue;
    const PlanOp& build = ops[static_cast<std::size_t>(b)];
    if (build.kind != PlanOpKind::kBuildQ || build.qmode != QMode::kOnePerVertex ||
        build.out != mul.in || build.out2 != its.in2) {
      continue;
    }
    its.source = SampleSource::kAdjacencyRows;
    its.in = kNoSlot;
    ops.erase(ops.begin() + m);
    --i;  // the kItsSample moved down one; resume after it
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
  fuse_normalize(out.body);
  fuse_normalize(out.epilogue);
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
     << plan.stop_on_empty_frontier << '|' << plan.needs_global_weights << '|'
     << plan.distributed;
  auto dump = [&](const std::vector<PlanOp>& ops) {
    for (const PlanOp& op : ops) {
      os << ';' << static_cast<int>(op.kind) << ',' << op.label << ','
         << op.phase << ',' << op.in << ',' << op.in2 << ',' << op.out << ','
         << op.out2 << ',' << static_cast<int>(op.qmode) << ','
         << static_cast<int>(op.norm) << ',' << static_cast<int>(op.source)
         << ',' << op.seed.layer_salt << ',' << static_cast<int>(op.seed.row)
         << ',' << static_cast<int>(op.assemble) << ',' << op.fixed_s << ','
         << op.copies << ',' << op.bias_p << ',' << op.bias_q << ','
         << op.walk_length << ',' << op.fused_norm;
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
    const SamplePlan& plan, const SamplerConfig& config) {
  std::ostringstream key;
  key << plan_signature(plan) << "|fanouts=";
  for (const index_t f : config.fanouts) key << f << ',';
  const std::string k = key.str();
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
