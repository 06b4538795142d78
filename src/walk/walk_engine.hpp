// Fused random-walk engine (DESIGN.md §11): the kernel behind the plan IR's
// kWalk op.
//
// A walk round in the plan IR is kBuildQ → kSpgemm → kNormalize →
// kItsSample(s = 1) → kWalkAdvance: materialize one sparse row per walker,
// row-normalize it, draw a single ITS sample, keep the survivor. Every one
// of those matrices is rebuilt per round just to pick one neighbor per
// walker — the FlashMob observation is that the whole round collapses to a
// per-walker loop over the CSR adjacency row of its current vertex. The
// plan optimizer rewrites such a body into one kWalk op, and the engine
// advances its walkers directly over the bound adjacency, replicating the
// matrix path's floating-point operations and RNG draw order exactly, so
// GraphSAINT / node2vec minibatches stay bit-identical to the unfused plan
// (the golden hashes of tests/test_plan do not move).
//
// Every unbiased pick goes through AdjacencyDraw (core/its.hpp), whose
// per-degree prefix table GraphSAGE's in-place fanout draw reads too; the
// second-order pick biases the row first and then draws like a weighted row.
//
// Walker state lives in the sampler Workspace's WalkScratch, so
// steady-state walk epochs (and frozen serving arenas) allocate nothing on
// this path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/workspace.hpp"
#include "core/its.hpp"
#include "plan/plan.hpp"
#include "sparse/csr.hpp"

namespace dms {

/// node2vec (Grover & Leskovec 2016) second-order bias: candidate == the
/// previous vertex → 1/p (return), a neighbor of it → 1 (BFS-like), else
/// 1/q (DFS-like). `prev_row` is the previous vertex's sorted neighbor list.
inline value_t node2vec_bias_factor(index_t cand, index_t prev,
                                    std::span<const index_t> prev_row,
                                    value_t p, value_t q) {
  if (cand == prev) return static_cast<value_t>(1.0) / p;
  if (std::binary_search(prev_row.begin(), prev_row.end(), cand)) {
    return static_cast<value_t>(1.0);
  }
  return static_cast<value_t>(1.0) / q;
}

class WalkEngine {
 public:
  /// Walks the adjacency `draw` is bound to, drawing every unbiased pick
  /// through it (its per-degree prefix table, shared with GraphSAGE's
  /// in-place fanout draw). Borrows `draw`, which must outlive the engine.
  explicit WalkEngine(const AdjacencyDraw& draw);

  /// Runs the kWalk op `walk`: all walk.walk_length rounds, seeded by
  /// walk.seed.layer_salt. `walkers` / `visited` are the plan's per-batch
  /// frontier / visited lists (walkers in, final positions out; visited
  /// appended per survivor in walker order — exactly the matrix path's
  /// kWalkAdvance contract). `prev` is the plan's previous-vertex slot;
  /// non-null makes the walk second-order, biased by walk.bias_p /
  /// walk.bias_q. `steps` is incremented once per surviving walker per
  /// round (the edges/s numerator of bench/micro_walk).
  void run(std::vector<std::vector<index_t>>& walkers,
           std::vector<std::vector<index_t>>& visited,
           std::vector<std::vector<index_t>>* prev,
           const std::vector<index_t>& batch_ids, index_t first_batch,
           std::uint64_t epoch_seed, const PlanOp& walk, Workspace& ws,
           std::uint64_t* steps) const;

 private:
  /// One walker's step from `v` (`prev` < 0: unbiased), drawing from
  /// `seed`; returns the next vertex, or -1 when the walk terminates.
  index_t next_vertex(index_t v, index_t prev, std::uint64_t seed,
                      const PlanOp& walk, std::vector<value_t>& raw) const;

  const AdjacencyDraw& draw_;
};

}  // namespace dms
