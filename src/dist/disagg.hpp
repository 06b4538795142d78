// Disaggregated sampler/trainer rank roles (DESIGN.md §14, the FGNN-style
// split of ROADMAP item 1).
//
// DistMode::kDisaggregated divides the p ranks of the pipeline's cluster
// into two roles: global ranks [0, s) are *sampler* ranks and
// [s, p) are *trainer* ranks. Each role runs its own 1.5D sub-grid:
//
//  - the sampler grid (s ranks, replication c_s) owns the block-row
//    distributed adjacency, and every plan op runs on these ranks (the
//    partitioned sampler is simply constructed over this sub-grid, so the
//    executor needs no new mode);
//  - the trainer grid (t = p - s ranks, replication c_t) owns the 1.5D
//    feature store, the model replicas, and the gradient all-reduce.
//    Trainers hold no adjacency, which is what frees the memory that funds
//    a higher feature replication factor or a larger feature cache than a
//    colocated run of the same per-rank budget could afford.
//
// The *logical* training schedule is inherited unchanged from kReplicated:
// batches occupy p logical slots (the same BlockPartition(k, p), the same
// grouping of batches into optimizer steps, the same accumulation order),
// and each trainer executes the p/t slots that map to it per step. That
// inheritance is what makes kDisaggregated losses bit-identical to
// kReplicated for every SamplerKind — the §9 determinism contract extended
// across rank roles. Completed bulk rounds stream sampler → trainer through
// Cluster::record_comm (the "handoff" phase), so transient-loss fault plans
// retry the handoff exactly like any other modeled message.
//
// The colocated modes are the layout with no sampler ranks,
// DisaggLayout{p, 0, p, {}, grid}: trainer j is rank j and trains slot j,
// so the pipeline runs one executor over every mode (DESIGN.md §6).
#pragma once

#include "comm/grid.hpp"
#include "common/types.hpp"

namespace dms {

struct DisaggOptions {
  /// Sampler ranks s. 0 = auto: max(1, p/4) — one sampler per four ranks,
  /// matching FGNN's typical 1:3 provisioning.
  int sampler_ranks = 0;
  /// Sampler-grid replication c_s. 0 = auto: 1 (every sampler rank is its
  /// own block row, maximizing parallel bulk rounds — replication would
  /// idle samplers, since bulk batches are assigned per process *row*).
  int sampler_c = 0;
  /// Trainer-grid replication c_t. 0 = auto: the largest divisor of t that
  /// is <= the full grid's replication factor. Higher c_t = fewer block
  /// rows = more feature rows local to each trainer and a smaller
  /// all-to-allv column — the fetch-side win the freed adjacency memory
  /// pays for.
  int trainer_c = 0;
};

struct DisaggLayout {
  int total = 0;     ///< p: all ranks of the pipeline's cluster
  int samplers = 0;  ///< s: global ranks [0, s)
  int trainers = 0;  ///< t = p - s: global ranks [s, p)
  ProcessGrid sampler_grid;  ///< (s, c_s)
  ProcessGrid trainer_grid;  ///< (t, c_t)

  /// Global rank of trainer-grid rank j (sampler-grid rank i is global
  /// rank i).
  int trainer_rank(int j) const { return samplers + j; }

  /// Which trainer executes logical slot `slot` (slots 0..p-1 carry the
  /// kReplicated batch placement). Slots are dealt in waves of t: wave w
  /// covers slots [w*t, w*t + t), one per trainer, so per-step load stays
  /// balanced whenever t divides p.
  int trainer_of_slot(index_t slot) const {
    return static_cast<int>(slot) % trainers;
  }
};

/// Splits `full` (the pipeline cluster's grid) into sampler/trainer roles.
/// Throws DmsError unless 1 <= s < p, c_s divides s, and c_t divides t.
DisaggLayout make_disagg_layout(const ProcessGrid& full,
                                const DisaggOptions& opts = {});

}  // namespace dms
