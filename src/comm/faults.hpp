// Deterministic fault injection for the simulated cluster (DESIGN.md §13).
//
// Production clusters straggle, drop messages, and lose ranks; the simulated
// Cluster makes those failures *replayable*: a FaultPlan is a pure function
// from a seed and deterministic event coordinates — the superstep counter
// for stragglers and crashes, a per-cluster communication-event counter for
// transient loss — to fault outcomes. Nothing is drawn from host timing or
// mutable RNG state, so the same plan against the same workload injects the
// same faults on every run, and tests can assert exact recovery behavior.
//
// Three fault classes, mirroring the real failure taxonomy:
//  - stragglers: a (superstep, rank) draw slows the rank's compute by a
//    constant factor; the BSP round is gated by its slowest member, so the
//    superstep-level multiplier is the max over alive ranks' draws;
//  - transient message loss: a communication event's attempt fails with
//    probability loss_rate; the Cluster retries under a bounded
//    exponential-backoff RecoveryPolicy, paying the retransmit plus the
//    backoff on the simulated clock (the final allowed attempt always
//    delivers, so delivery stays deterministic);
//  - permanent crashes: scheduled (rank, superstep) events; a crashed rank
//    never comes back, and the dist/train layers re-partition its work onto
//    the survivors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace dms {

/// A permanent rank failure: `rank` dies at the start of superstep
/// `superstep` (before that superstep's work is assigned).
struct CrashEvent {
  int rank = 0;
  index_t superstep = 0;
};

struct FaultPlanConfig {
  std::uint64_t seed = 0;
  /// Probability that a given (superstep, rank) pair straggles.
  double straggler_rate = 0.0;
  /// Compute-slowdown multiplier applied to a straggling rank (>= 1).
  double straggler_factor = 2.0;
  /// Probability that one attempt of a communication event is lost.
  double loss_rate = 0.0;
  /// Scheduled permanent crashes, replayed on the superstep clock.
  std::vector<CrashEvent> crashes;
};

/// Bounded exponential-backoff retry for transient faults. Attempt k (0-based)
/// that fails costs the retransmit plus backoff(k) of simulated wait; after
/// max_attempts the event is forced through (the transport's reliable-delivery
/// floor), so a FaultPlan can delay communication but never wedge it.
struct RecoveryPolicy {
  int max_attempts = 4;

  /// Simulated seconds of backoff after failed attempt k (0-based): 100 µs
  /// doubling per attempt, bounded by 10 ms (constants of faults.cpp).
  double backoff(int attempt) const;
};

/// Cumulative fault/recovery accounting on a Cluster (monotonic; callers
/// diff before/after snapshots for per-epoch deltas, like FeatureCacheStats).
struct FaultStats {
  double straggler_seconds = 0.0;      ///< extra compute time from slowdowns
  double retry_seconds = 0.0;          ///< retransmits + backoff waits
  double redistribution_seconds = 0.0; ///< survivor-fetch time after crashes
  std::size_t retry_bytes = 0;
  std::size_t retry_messages = 0;
  std::size_t lost_messages = 0;       ///< attempts the plan dropped
  std::size_t redistribution_bytes = 0;
  std::size_t crashed_ranks = 0;
};

/// Difference of two cumulative snapshots (after - before), for per-epoch
/// attribution in EpochStats.
FaultStats operator-(const FaultStats& after, const FaultStats& before);

class FaultPlan {
 public:
  explicit FaultPlan(FaultPlanConfig cfg);

  const FaultPlanConfig& config() const { return cfg_; }

  /// Compute-slowdown multiplier (>= 1) for `rank` during `superstep`.
  double slowdown(index_t superstep, int rank) const;

  /// Whether attempt `attempt` (0-based) of communication event `event` is
  /// lost. Independent draws per attempt, so retries can fail repeatedly.
  bool lost(std::uint64_t event, int attempt) const;

  /// Ranks scheduled to crash at exactly `superstep`.
  std::vector<int> crashes_at(index_t superstep) const;

  bool has_stragglers() const { return cfg_.straggler_rate > 0.0; }
  bool has_loss() const { return cfg_.loss_rate > 0.0; }

 private:
  FaultPlanConfig cfg_;
};

}  // namespace dms
