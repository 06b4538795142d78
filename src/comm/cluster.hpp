// Bulk-synchronous simulated cluster.
//
// Distributed algorithms in src/dist and src/train are written SPMD-style as
// supersteps over per-rank local state. Each stage runs its per-rank work on
// the host, times it, and hands the Cluster the max over ranks through
// add_compute; the Cluster advances a simulated clock by
//
//     max over ranks of (measured compute / compute_scale)
//
// per superstep. Communication is performed by the caller as direct data
// movement between per-rank structures, with exact volumes reported through
// record_comm()/CostModel. This reproduces the timing structure of a real
// bulk-synchronous GPU pipeline (Figure 3) without GPUs. See DESIGN.md §2.
//
// A cluster is the ledger (the clock tables), the liveness table and the
// cost model over its global ranks 0..size()-1; its grid() is the layout of
// the whole pipeline. The 1.5D collectives and the partitioned sampler take
// their process layout from the DistBlockRowMatrix they run on instead, and
// accept any cluster with at least that grid's ranks, so every role of a
// pipeline (DESIGN.md §14) records on the one cluster: the only clock its
// stages advance.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "comm/costmodel.hpp"
#include "comm/faults.hpp"
#include "comm/grid.hpp"

namespace dms {

/// Aggregate communication statistics per phase.
struct CommStats {
  std::size_t messages = 0;
  std::size_t bytes = 0;
  double seconds = 0.0;
};

class Cluster {
 public:
  Cluster(ProcessGrid grid, CostModel model);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ProcessGrid& grid() const { return grid_; }
  const CostModel& cost_model() const { return model_; }
  int size() const { return grid_.size(); }

  /// Adds pre-measured compute seconds to a phase (already max-over-ranks).
  void add_compute(const std::string& phase, double seconds);

  /// As add_compute, but for irregular per-vertex kernels (scaled by
  /// irregular_compute_scale instead of compute_scale).
  void add_compute_irregular(const std::string& phase, double seconds);

  /// Records a communication event whose modeled time was computed with the
  /// CostModel. Adds to the simulated clock.
  void record_comm(const std::string& phase, double seconds, std::size_t bytes,
                   std::size_t messages);

  /// Adds a fixed overhead (e.g. per-minibatch kernel-launch cost).
  void add_overhead(const std::string& phase, double seconds);

  /// Credits `seconds` of already-recorded time as hidden behind a stage
  /// that executes concurrently (the staged executor's max(compute, comm)
  /// composition: a prefetched feature fetch runs under propagation, a bulk
  /// sampling round under the previous round's training). Per-phase
  /// breakdowns keep the full stage costs; only total_time() subtracts the
  /// credit. Callers must credit at most min(hidden stage, covering stage),
  /// so the credit can never exceed the recorded clock.
  void credit_overlap(double seconds);

  /// Total simulated seconds credited as overlapped since reset_clock().
  double overlap_credit() const { return overlap_credit_; }

  /// Simulated seconds per compute phase (already scaled by compute_scale).
  const std::map<std::string, double>& compute_time() const {
    return compute_time_;
  }
  /// Simulated seconds and volumes per communication phase.
  const std::map<std::string, CommStats>& comm_stats() const {
    return comm_stats_;
  }

  double total_compute() const;
  double total_comm() const;
  /// Simulated wall clock: compute + comm minus the overlapped credit.
  double total_time() const {
    return std::max(0.0, total_compute() + total_comm() - overlap_credit_);
  }

  /// Seconds for a single phase across compute + comm tables.
  double phase_time(const std::string& phase) const;

  void reset_clock();

  // --- Fault injection (DESIGN.md §13) -----------------------------------
  //
  // With a FaultPlan installed, the cluster becomes the single chokepoint
  // where failures enter the simulation: begin_superstep() advances the
  // fault clock and fires scheduled crashes, add_compute applies the
  // superstep's straggler multiplier, and record_comm replays transient
  // loss with bounded-backoff retries. Every draw is keyed by deterministic
  // counters (superstep index, comm-event index), never host timing, so a
  // faulty run is exactly replayable. With no plan installed all paths are
  // bit-identical to the fault-free cluster.

  /// Installs a borrowed fault plan (must outlive the cluster) and resets
  /// the fault clock, alive set, and fault accounting.
  void install_faults(const FaultPlan* plan, RecoveryPolicy policy = {});
  bool has_faults() const { return faults_ != nullptr; }

  /// Advances the fault clock by one superstep: fires crashes scheduled for
  /// the new superstep (marking ranks permanently dead) and fixes the
  /// superstep's straggler multiplier (max over alive ranks' draws — the
  /// BSP round is gated by its slowest member). Callers place superstep
  /// boundaries at their natural recovery points (the staged executor uses
  /// bulk-round boundaries). Returns the new superstep index (from 0).
  index_t begin_superstep();

  /// Rank liveness. Every rank is alive until a CrashEvent kills it.
  bool alive(int rank) const {
    return dead_.empty() || dead_[static_cast<std::size_t>(rank)] == 0;
  }
  int num_alive() const;
  std::vector<int> alive_ranks() const;

  /// Cumulative fault/recovery accounting since install_faults (monotonic —
  /// reset_clock does not touch it; callers diff snapshots per epoch).
  const FaultStats& fault_stats() const { return fault_stats_; }

  /// Attributes crash-recovery data movement (survivor fetches,
  /// re-partitioning) to the fault accounting. The caller still records the
  /// actual time/bytes under its phase via record_comm, so the phase tables
  /// and their invariants are unchanged — this is the breakdown overlay.
  void add_fault_redistribution(double seconds, std::size_t bytes);

 private:
  ProcessGrid grid_;
  CostModel model_;
  std::map<std::string, double> compute_time_;
  std::map<std::string, CommStats> comm_stats_;
  double overlap_credit_ = 0.0;
  const FaultPlan* faults_ = nullptr;  ///< borrowed; nullptr = no faults
  RecoveryPolicy recovery_;
  std::vector<char> dead_;             ///< sized on install_faults
  index_t superstep_ = 0;              ///< supersteps begun so far
  std::uint64_t comm_event_ = 0;       ///< deterministic loss-draw counter
  double straggler_factor_ = 1.0;      ///< current superstep's multiplier
  FaultStats fault_stats_;
};

}  // namespace dms
