// The plan optimizer (DESIGN.md §12): the one place a plan is fused. It runs
// between plan construction and execution, by default for every
// PlanExecutor, and the executor then interprets whatever ops it emits.
// Both rewrites emit replicated-only ops, so partitioned samplers run their
// plans as built ({.optimize = false}) and never reach it.
//
// Two rewrites, in order, each kept because it measurably pays:
//  1. walk fusion — a walk-shaped body, kBuildQ → kSpgemm → [kWalkBias] →
//     kNormalize → kItsSample(s = 1) → kWalkAdvance, becomes one kWalk op
//     labelled "fused_walk" that runs every round through the WalkEngine
//     (§11) in one call; the plan's explicit_rounds becomes 1.
//     80-130x the matrix path's walk throughput (bench/micro_walk).
//  2. in-place adjacency draw — the adjacent body window
//     kBuildQ(kOnePerVertex) → kSpgemm → kNormalize(kRow) →
//     kItsSample(kMatrixRows, in2 = that kBuildQ's stack), where the
//     normalize and the sample are the only ops reading the product and the
//     spgemm the only one reading Q, becomes kBuildQ (stack only, no Q) →
//     kItsSample(kAdjacencyRows): GraphSAGE and PinSAGE draw each fanout
//     straight from the adjacency rows (AdjacencyDraw, core/its.hpp) and
//     never build P = Qˡ·A. ~3.8x the host training throughput of
//     train-sage-replicated (e2ebench).
//
// Both preserve results bit-for-bit: the walk engine and the adjacency draw
// replay the matrix path's float ops and RNG draws. Every other plan —
// LABOR, LADIES and FastGCN — runs as built. The golden-hash suite of
// tests/test_plan.cpp holds over optimized plans unchanged;
// PlanExecOptions{.optimize = false} runs the plan as given: the unfused
// reference.
//
// Cross-batch plan caching: PlanCache::global() keys the optimized form by
// the full structural signature of the input plan (optimize() reads nothing
// else), so every sampler/serving engine constructed over the same plan
// shares one immutable optimized plan — training epochs, coalesced serving
// batches, and replica engines pay the optimization once, whatever their
// fanouts.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "plan/plan.hpp"

namespace dms {

/// Runs the two rewrites over a validated plan and returns the optimized
/// (revalidated) copy. Deterministic: equal inputs yield equal outputs.
SamplePlan optimize(const SamplePlan& plan);

/// Exhaustive structural signature: every op field (floating-point fields
/// exactly) plus the plan's slot and loop structure. Two plans with equal
/// signatures execute identically, so the signature is the PlanCache key.
std::string plan_signature(const SamplePlan& plan);

/// Unified-style listing diff of two plans' describe() output: unchanged
/// lines indented, removed lines prefixed "-", added lines "+". The
/// --dump-plan tool prints optimize() before/after through this.
std::string describe_diff(const SamplePlan& before, const SamplePlan& after);

/// Process-wide cache of optimized plans, keyed by plan signature. Values
/// are immutable shared plans: a PlanExecutor holds the shared_ptr, so two
/// samplers with the same plan shape literally share one SamplePlan object.
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
  std::shared_ptr<const SamplePlan> get_or_optimize(const SamplePlan& plan);

  Stats stats() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const SamplePlan>> map_;
  Stats stats_;
};

}  // namespace dms
