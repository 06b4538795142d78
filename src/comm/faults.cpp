#include "comm/faults.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace dms {

namespace {

// Domain-separation tags for the fault-draw seed derivations.
constexpr std::uint64_t kStragglerTag = 0xfa57a661ULL;
constexpr std::uint64_t kLossTag = 0xfa10bb55ULL;

// RecoveryPolicy::backoff: the first retry waits kBaseBackoff seconds, each
// further one kBackoffFactor times longer, capped at kMaxBackoff.
constexpr double kBaseBackoff = 1e-4;
constexpr double kBackoffFactor = 2.0;
constexpr double kMaxBackoff = 1e-2;
static_assert(kBaseBackoff >= 0.0 && kMaxBackoff >= 0.0 && kBackoffFactor >= 1.0,
              "backoff must be non-negative and non-decreasing");

/// Uniform [0, 1) draw keyed purely by the event coordinates.
double fault_draw(std::uint64_t seed, std::uint64_t tag, std::uint64_t a,
                  std::uint64_t b) {
  return Pcg32(derive_seed(seed, tag, a, b)).uniform();
}

}  // namespace

double RecoveryPolicy::backoff(int attempt) const {
  double b = kBaseBackoff;
  for (int k = 0; k < attempt; ++k) b *= kBackoffFactor;
  return std::min(b, kMaxBackoff);
}

FaultStats operator-(const FaultStats& after, const FaultStats& before) {
  FaultStats d;
  d.straggler_seconds = after.straggler_seconds - before.straggler_seconds;
  d.retry_seconds = after.retry_seconds - before.retry_seconds;
  d.redistribution_seconds =
      after.redistribution_seconds - before.redistribution_seconds;
  d.retry_bytes = after.retry_bytes - before.retry_bytes;
  d.retry_messages = after.retry_messages - before.retry_messages;
  d.lost_messages = after.lost_messages - before.lost_messages;
  d.redistribution_bytes =
      after.redistribution_bytes - before.redistribution_bytes;
  d.crashed_ranks = after.crashed_ranks - before.crashed_ranks;
  return d;
}

FaultPlan::FaultPlan(FaultPlanConfig cfg) : cfg_(cfg) {
  check(cfg_.straggler_rate >= 0.0 && cfg_.straggler_rate <= 1.0,
        "FaultPlan: straggler_rate must be in [0, 1]");
  check(cfg_.loss_rate >= 0.0 && cfg_.loss_rate <= 1.0,
        "FaultPlan: loss_rate must be in [0, 1]");
  check(cfg_.straggler_factor >= 1.0,
        "FaultPlan: straggler_factor must be >= 1 (a slowdown)");
  for (const CrashEvent& e : cfg_.crashes) {
    check(e.rank >= 0, "FaultPlan: crash rank must be non-negative");
    check(e.superstep >= 0, "FaultPlan: crash superstep must be non-negative");
  }
}

double FaultPlan::slowdown(index_t superstep, int rank) const {
  if (cfg_.straggler_rate <= 0.0) return 1.0;
  const double u =
      fault_draw(cfg_.seed, kStragglerTag, static_cast<std::uint64_t>(superstep),
                 static_cast<std::uint64_t>(rank));
  return u < cfg_.straggler_rate ? cfg_.straggler_factor : 1.0;
}

bool FaultPlan::lost(std::uint64_t event, int attempt) const {
  if (cfg_.loss_rate <= 0.0) return false;
  const double u = fault_draw(cfg_.seed, kLossTag, event,
                              static_cast<std::uint64_t>(attempt));
  return u < cfg_.loss_rate;
}

std::vector<int> FaultPlan::crashes_at(index_t superstep) const {
  std::vector<int> ranks;
  for (const CrashEvent& e : cfg_.crashes) {
    if (e.superstep == superstep) ranks.push_back(e.rank);
  }
  std::sort(ranks.begin(), ranks.end());
  return ranks;
}

}  // namespace dms
