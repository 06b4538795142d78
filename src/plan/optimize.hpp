// The plan optimizer (DESIGN.md §12): the one place a plan is fused. It runs
// between plan construction and execution, by default for every
// PlanExecutor, and the executor then interprets whatever ops it emits.
//
// Three rewrites, in order, each kept because it measurably pays:
//  1. walk fusion — an unlowered walk-shaped body, kBuildQ → kSpgemm →
//     [kWalkBias] → kNormalize → kItsSample(s = 1) → kWalkAdvance, becomes
//     one kWalk op labelled "fused_walk" that runs every round through the
//     WalkEngine (§11) in one call; the plan's explicit_rounds becomes 1.
//     80-130x the matrix path's walk throughput (bench/micro_walk).
//  2. normalize fusion — an adjacent kSpgemm → kNormalize pair collapses
//     into one kSpgemm with fused_norm set. Replicated execution then runs
//     the normalization as the SpGEMM engine's per-block epilogue (in
//     parallel, on cache-resident rows) instead of a separate serial pass
//     over the stitched product; the 1.5D form normalizes after its
//     all-reduce. ~5% faster sage/LABOR sampling at 4 threads.
//  3. in-place adjacency draw — in an unlowered body, kBuildQ(kOnePerVertex)
//     → kSpgemm(fused kRow) → kItsSample(kMatrixRows, in2 = that kBuildQ's
//     stack), where the kItsSample is the only op reading the product,
//     becomes kBuildQ → kItsSample(kAdjacencyRows): GraphSAGE and PinSAGE
//     draw each fanout straight from the adjacency rows (AdjacencyDraw,
//     core/its.hpp) and never build P = Qˡ·A. ~3.8x the host training
//     throughput of train-sage-replicated (e2ebench).
//
// All three preserve results bit-for-bit: the walk engine and the adjacency
// draw replay the matrix path's float ops and RNG draws, and adjacency means
// nothing observes the unnormalized product. The golden-hash suite of
// tests/test_plan.cpp holds over optimized plans unchanged; PlanExecOptions
// {.optimize = false} runs the plan as given: the unfused reference.
//
// Cross-batch plan caching: PlanCache::global() keys the optimized form by
// the full structural signature of the input plan plus the fanouts, so
// every sampler/serving engine constructed over the same plan shape shares
// one immutable optimized plan — training epochs, coalesced serving
// batches, and replica engines pay the optimization once.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/sampler.hpp"  // SamplerConfig
#include "plan/plan.hpp"

namespace dms {

/// Runs the three rewrites over a validated plan and returns the optimized
/// (revalidated) copy. Deterministic: equal inputs yield equal outputs.
SamplePlan optimize(const SamplePlan& plan);

/// Exhaustive structural signature: every op field (floating-point fields
/// exactly) plus the plan's slot and loop structure. Two plans with equal
/// signatures execute identically, so the signature (plus fanouts) is the
/// PlanCache key.
std::string plan_signature(const SamplePlan& plan);

/// Unified-style listing diff of two plans' describe() output: unchanged
/// lines indented, removed lines prefixed "-", added lines "+". The
/// --dump-plan tool prints optimize() before/after through this.
std::string describe_diff(const SamplePlan& before, const SamplePlan& after);

/// Process-wide cache of optimized plans, keyed by plan signature +
/// fanouts. Values are immutable shared plans: a PlanExecutor holds the
/// shared_ptr, so two samplers with the same plan shape and fanouts
/// literally share one SamplePlan object.
class PlanCache {
 public:
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t entries = 0;
  };

  static PlanCache& global();

  /// Returns the cached optimized form of `plan` (optimizing and inserting
  /// on first sight). `plan` must already be validated. Thread-safe.
  std::shared_ptr<const SamplePlan> get_or_optimize(const SamplePlan& plan,
                                                    const SamplerConfig& config);

  Stats stats() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const SamplePlan>> map_;
  Stats stats_;
};

}  // namespace dms
