// Reusable scratch arena for the sampling/training hot path (DESIGN.md §7).
//
// Every hot kernel of the sampling loop — the SpGEMM engine's symbolic
// prefixes and per-block accumulators, ITS's per-row prefix/picked
// scratch — needs the same few temporary buffers on every invocation. A
// Workspace keeps those buffers alive between calls so steady-state epochs
// pay no scratch allocations: buffers grow to the high-water mark of the
// workload on the first epoch and are reused (vector::assign / clear keep
// capacity) from then on.
//
// Layout: one Workspace holds
//  - a few *shared* buffers used serially before/after a kernel's parallel
//    region (the SpGEMM flop / spgemm_masked entry prefix, spgemm_masked's
//    column→position lookup);
//  - an array of *slots*, one per parallel block. Slot i is touched only by
//    the worker executing block i, so slots need no synchronization; the
//    kernel calls ensure_slots(nblocks) serially before fanning out.
//
// Ownership & thread-safety contract: a Workspace may serve ONE kernel
// invocation at a time (kernels on the same Workspace must be sequenced).
// Samplers own a private Workspace and pass it to every kernel they call;
// nested kernel calls (e.g. the 1.5D SpGEMM's per-panel products) are
// sequential, so sharing one Workspace across them is safe. Slot buffer
// *contents* are undefined between invocations — each user re-establishes
// its own state (see the hash-table invariant in spgemm_engine.cpp for the
// one deliberate exception).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/types.hpp"

namespace dms {

/// Walk-engine scratch (DESIGN.md §11): the flat walker-state arrays of the
/// fused walk kernel plus a pool of per-batch id-list buffers that the plan
/// executor swaps into a walk plan's persistent slots (frontier / visited /
/// prev) for the duration of a run. Both live in the sampler's Workspace so
/// steady-state walk epochs — and frozen serving — allocate only results:
/// the flats grow to the walker high-water mark once, and the list pool
/// retains each per-batch vector's capacity between runs.
struct WalkScratch {
  // Flat per-walker state, compacted every round (fused engine).
  std::vector<index_t> cur;    ///< current vertex
  std::vector<index_t> prev;   ///< previous vertex (second-order walks)
  std::vector<index_t> bof;    ///< owning batch of each walker
  std::vector<index_t> off;    ///< per-batch walker offsets (batches + 1)
  std::vector<value_t> raw;    ///< biased candidate weights (second-order)

  /// Checks out a cleared list buffer (pool hit keeps its capacity).
  std::vector<index_t> take_list();
  /// Returns a list buffer to the pool, retaining its capacity.
  void put_list(std::vector<index_t>&& v);

  /// Bytes currently reserved (flats + pooled lists).
  std::size_t bytes() const;

 private:
  std::vector<std::vector<index_t>> list_pool_;
};

/// Per-parallel-block scratch bundle. Members are named for their primary
/// user but deliberately generic: sequential kernels may reuse any buffer
/// whose element type fits (ITS uses `vals` for row prefix sums, `touched`
/// for picked indices, `colidx` for staged output columns).
struct WorkspaceSlot {
  // Staged per-block output (SpGEMM numeric phase, ITS fill pass).
  std::vector<nnz_t> row_nnz;
  std::vector<index_t> colidx;
  std::vector<value_t> vals;
  // Dense accumulator state (mark + value + touched list).
  std::vector<index_t> mark;
  std::vector<index_t> touched;
  std::vector<value_t> acc;
  // Hash accumulator state. Invariant maintained by its user: every key
  // slot is empty outside a hash-kernel block (so reuse never rehashes).
  std::vector<index_t> hash_keys;
  std::vector<index_t> hash_used;
  std::vector<value_t> hash_vals;

  /// Bytes currently reserved by this slot's buffers.
  std::size_t bytes() const;
};

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Grows the slot array to at least n slots. Must be called serially
  /// (before a parallel region); existing slots keep their buffers.
  void ensure_slots(std::size_t n);

  // --- steady-state mode (DESIGN.md §10) ------------------------------------
  // Online serving warms the arena on a few representative requests, then
  // freezes it: freeze() records the high-water mark (held bytes + slot
  // count), and from then on the arena is expected never to grow — request
  // handling after warmup is allocation-free. Debug builds enforce the
  // contract: ensure_slots beyond the frozen count throws immediately, and
  // check_steady() (called by the serve engine after each coalesced batch)
  // throws if any buffer grew past the mark. Release builds skip the checks
  // (an under-warmed arena degrades to growing silently, never to wrong
  // results); callers can still compare bytes_held() against frozen_bytes().

  /// Enters steady-state mode, recording the current high-water mark.
  void freeze();
  /// Leaves steady-state mode (e.g. before a reconfiguration).
  void thaw();
  bool frozen() const { return frozen_; }
  /// Bytes held when freeze() was called (0 when never frozen).
  std::size_t frozen_bytes() const { return frozen_bytes_; }

  /// Debug-asserts the steady-state contract: no slot growth and no buffer
  /// growth since freeze(). No-op when not frozen or in release builds.
  void check_steady(const char* where) const;

  /// Slot i (i < num_slots()). Distinct slots may be used concurrently;
  /// references stay valid across ensure_slots growth.
  WorkspaceSlot& slot(std::size_t i) { return *slots_[i]; }

  std::size_t num_slots() const { return slots_.size(); }

  /// Shared serial-phase buffers (one kernel invocation at a time).
  std::vector<nnz_t>& shared_prefix() { return shared_prefix_; }
  std::vector<index_t>& shared_lookup() { return shared_lookup_; }

  /// Walk-engine scratch (same one-invocation-at-a-time contract; the walk
  /// kernel is serial, so no per-slot isolation is needed).
  WalkScratch& walk_scratch() { return walk_; }

  /// Total bytes held across shared buffers and all slots (observability;
  /// the steady-state value is the workload's scratch high-water mark).
  std::size_t bytes_held() const;

 private:
  std::vector<std::unique_ptr<WorkspaceSlot>> slots_;
  std::vector<nnz_t> shared_prefix_;
  std::vector<index_t> shared_lookup_;
  WalkScratch walk_;
  bool frozen_ = false;
  std::size_t frozen_bytes_ = 0;
  std::size_t frozen_slots_ = 0;
};

}  // namespace dms
