// End-to-end distributed training pipeline (Figure 3, §6):
//   (1) bulk-sample k minibatches (Graph Replicated §5.1 or Graph
//       Partitioned §5.2),
//   (2) per training step, all-to-allv feature fetching across process
//       columns of the 1.5D feature store,
//   (3) forward/backward propagation + data-parallel gradient all-reduce,
// repeated until every minibatch of the epoch is trained.
//
// The epoch executor (DESIGN.md §6, fault recovery §13) runs these as
// discrete stage units over one schedule table, schedule_[rank][step]:
//
//   sample_round(g) — materialize the minibatches of bulk round g (the
//                     prefetchable unit of src/dist's BulkRound);
//   fetch_step(t)   — the all-to-allv feature fetch for training step t;
//   train_step(t)   — forward/backward + gradient all-reduce for step t.
//
// Every pipeline is a role layout (dist/disagg.hpp): the colocated modes
// are the layout with no sampler ranks, where trainer j is rank j and slot
// r is trained by trainer r; kDisaggregated deals the same p slots to
// t < p trainer ranks. Every stage of every role records on the one Cluster
// the pipeline was given: the disaggregated sampler grid's ranks are its
// global ranks [0, s), so that cluster is the pipeline's only clock and
// fault state. With PipelineConfig::overlap the simulated clock
// composes concurrent stages as max(compute, comm) — fetch t+1 hides under
// propagation t, sampling round g+1 under the training of round g — by
// crediting the hidden seconds through Cluster::credit_overlap. The host
// still runs the stages sequentially, so both paths produce bit-identical
// losses.
//
// On a healthy cluster the schedule is the classic block assignment
// (replicated: contiguous blocks per rank; partitioned: contiguous blocks
// per process row, replicas round-robining the block). Each bulk-round
// boundary is a Cluster superstep; when ranks die there, the not-yet-sampled
// remainder of the epoch is re-assigned to the survivors and the remaining
// rounds re-planned through plan_bulk_rounds. Sample content never depends
// on placement (randomness derives from global batch ids), so recovery
// shifts work, not results.
//
// Accounting invariant (tested): for an overlapped epoch,
//   overlap_saved + stall == sampling + fetch
// (every prefetchable second is either hidden or exposed), and
//   total == sum of phase times − overlap_saved.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comm/cluster.hpp"
#include "core/sampler.hpp"
#include "dist/dist_sampler.hpp"
#include "dist/sampler_factory.hpp"
#include "graph/dataset.hpp"
#include "nn/model.hpp"
#include "train/feature_store.hpp"

namespace dms {

struct PipelineConfig {
  SamplerKind sampler = SamplerKind::kGraphSage;
  DistMode mode = DistMode::kReplicated;
  index_t batch_size = 64;
  /// Per-layer sample counts in sampling order (layer L first). Table 4:
  /// SAGE fanout (15,10,5); LADIES s=512 with one layer.
  std::vector<index_t> fanouts = {10, 5, 5};
  /// Total minibatches sampled per bulk round across all ranks
  /// (the paper's k). 0 = all minibatches of the epoch at once ("k=all").
  index_t bulk_k = 0;
  index_t hidden = 32;
  float lr = 1e-2f;  ///< Adam's learning rate
  std::uint64_t seed = 7;
  PartitionedSamplerOptions part_opts;
  /// Staged overlapped executor (DESIGN.md §6): credit prefetched stages —
  /// the feature fetch of step t+1 under the propagation of step t, bulk
  /// sampling round g+1 under the training of round g — on the simulated
  /// clock. false = the original strictly sequential accounting. The
  /// arithmetic is identical either way (losses are bit-identical).
  bool overlap = true;
  /// Overlap mode with bulk_k == 0 ("k=all"): the staged executor still
  /// splits the epoch into this many sampling rounds so rounds 2..G can be
  /// prefetched behind training — a monolithic upfront bulk has nothing to
  /// overlap with. 1 = keep the single bulk. Ignored when bulk_k > 0
  /// (bulk_k sets the round size) or when overlap is off. Round slicing
  /// never changes the samples (the determinism contract), only the clock.
  index_t prefetch_rounds = 4;
  /// Per-rank feature-row cache (policy + capacity in rows). kDegreePinned
  /// pins the capacity_rows highest-out-degree vertices; kPreSample pins
  /// the capacity_rows vertices touched most often by a seeded warmup
  /// sampling round run once at pipeline construction (DESIGN.md §14).
  FeatureCacheConfig feature_cache;
  /// Warmup size for CachePolicy::kPreSample: the warmup samples
  /// presample_rounds × p minibatches (drawn from as many fresh batch
  /// permutations as that takes, under a dedicated seed lineage — never the
  /// training epochs') as one bulk round, to measure row hotness. The
  /// round's one-time cost is billed to the first trained epoch as the
  /// "warmup" phase.
  index_t presample_rounds = 2;
  /// Sampler/trainer split (mode == kDisaggregated only; defaults
  /// auto-split — see DisaggOptions).
  DisaggOptions disagg;
};

struct EpochStats {
  double sampling = 0.0;      ///< simulated seconds in the sampling step
  double fetch = 0.0;         ///< feature-fetch all-to-allv
  double propagation = 0.0;   ///< fwd/bwd + gradient all-reduce
  double total = 0.0;         ///< wall clock: all phases minus overlap_saved
  double loss = 0.0;
  double train_acc = 0.0;
  /// Simulated seconds of prefetchable work (sampling rounds + feature
  /// fetches) hidden behind concurrent stages by the overlapped executor.
  double overlap_saved = 0.0;
  /// Prefetchable seconds left exposed on the critical path (pipeline fill
  /// plus stalls where the covering stage was too short). For an overlapped
  /// epoch, overlap_saved + stall == sampling + fetch exactly.
  double stall = 0.0;
  /// One-time kPreSample warmup cost, billed to the first trained epoch
  /// (zero afterwards and for every other policy). Part of `total` but not
  /// of `sampling`, so the overlap invariant above is unaffected.
  double warmup = 0.0;
  /// Feature-fetch row classification for the epoch (see FeatureCacheStats):
  /// every requested row is exactly one of hit / miss / local.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_local = 0;
  /// Hits served by the pinned set (<= cache_hits; the whole hit count for
  /// the pinned-only kDegreePinned / kPreSample policies).
  std::size_t cache_pinned_hits = 0;
  std::size_t fetch_bytes = 0;        ///< feature payload that crossed the wire
  std::size_t fetch_bytes_saved = 0;  ///< payload avoided by cache hits
  std::map<std::string, double> compute_phases;  ///< full breakdown
  std::map<std::string, double> comm_phases;
  /// Host wall-clock seconds per sampling-plan op this epoch, keyed
  /// "<plan>/<op label>" (DESIGN.md §9): the per-op stage boundaries inside
  /// the coarse `sampling` phase. Observability only — not part of the
  /// simulated-clock composition the consistency invariants cover.
  std::map<std::string, double> sampler_ops;
  /// Fault/recovery attribution for the epoch (DESIGN.md §13), diffed from
  /// the cluster's cumulative FaultStats. The seconds below are already
  /// *inside* the phase tables above (the clock sees real retry/slowdown
  /// costs); these fields break out how much of each phase was fault-induced.
  /// All zero on a healthy cluster.
  double fault_straggler = 0.0;       ///< extra compute from injected slowdowns
  double fault_retry = 0.0;           ///< retransmit + backoff time of lost messages
  double fault_redistribution = 0.0;  ///< survivor re-fetch time after crashes
  std::size_t retry_bytes = 0;        ///< payload retransmitted after loss
  std::size_t retry_messages = 0;
  std::size_t crashed_ranks = 0;      ///< ranks that died during this epoch
};

/// Epoch/round cursor for checkpoint/restore (DESIGN.md §13). Checkpoints
/// are taken at bulk-round boundaries: gradients are zero there, every
/// sampled batch has been trained, and the round schedule is a pure function
/// of the config and dataset — so model weights + optimizer state + this
/// cursor fully determine the remainder of the epoch. Sampling randomness is
/// stateless (derived per (epoch, batch id, layer, row) from the config
/// seed), which is why no RNG state appears here.
struct TrainCursor {
  int epoch = 0;
  index_t next_round = 0;    ///< first untrained bulk round of `epoch`
  index_t total_rounds = 0;  ///< bulk rounds in the epoch's schedule
  double loss_sum = 0.0;     ///< per-sample loss accumulated so far
  index_t correct = 0;       ///< correct predictions so far
  index_t seen = 0;          ///< training samples consumed so far
  bool finished() const { return next_round >= total_rounds; }
};

class Pipeline {
 public:
  /// The cluster, dataset outlive the pipeline. The model dimension chain is
  /// ds.feature_dim → hidden^(L-1) → ds.num_classes with L = fanouts.size().
  Pipeline(Cluster& cluster, const Dataset& dataset, PipelineConfig config);

  /// Trains one full epoch (all minibatches); returns the simulated-time
  /// breakdown plus training loss/accuracy. Resets the cluster clock first.
  EpochStats run_epoch(int epoch);

  /// Trains `epoch` up to (not including) bulk round `stop_round`, then
  /// stops at the round boundary and returns the cursor to checkpoint
  /// (train/checkpoint.hpp serializes it with the model and optimizer).
  /// stop_round past the schedule trains the whole epoch.
  TrainCursor run_epoch_partial(int epoch, index_t stop_round);

  /// Resumes an epoch at cursor.next_round (after load_checkpoint restored
  /// the model/optimizer) and trains it to completion. The returned stats'
  /// loss/accuracy cover the *whole* epoch — bit-identical to an
  /// uninterrupted run_epoch — while the time breakdown covers only the
  /// resumed segment.
  EpochStats run_epoch_resumed(const TrainCursor& cursor);

  /// Single-node accuracy evaluation with the given evaluation fanouts
  /// (paper §8.1.3 uses test fanout (20,20,20)).
  double evaluate(const std::vector<index_t>& idx,
                  const std::vector<index_t>& eval_fanouts,
                  index_t eval_batch_size = 512);

  SageModel& model() { return model_; }
  const FeatureStore& features() const { return features_; }
  const PipelineConfig& config() const { return cfg_; }
  const ProcessGrid& grid() const { return cluster_.grid(); }
  /// The training optimizer (checkpoint serialization of its state).
  Adam& optimizer() { return optimizer_; }

  /// Approximate per-rank device memory (adjacency + feature block + cache
  /// + model), for reproducing the paper's memory-capped (c, k) choices.
  std::size_t per_rank_bytes(int rank) const;

 private:
  /// One cell of the epoch schedule: the batch a rank trains at a step and,
  /// once its bulk round is sampled, the sample (released after training).
  struct Cell {
    index_t batch = -1;  ///< global batch id; -1 = no work
    MinibatchSample sample;
  };

  /// kPreSample warmup (construction time): places presample_rounds × p
  /// seeded batches with assign_batches, samples and bills them as one
  /// round through draw_round, counts per-row touches over the schedule
  /// cells, and pins the capacity_rows hottest rows. Stores the round's
  /// clock cost for the first epoch to bill as the "warmup" phase.
  void presample_warmup();

  /// Executes bulk rounds [cursor.next_round, end_round) of cursor.epoch
  /// (end_round < 0 = to the end). `cursor` carries the loss/accuracy
  /// accumulators across segments and is updated to the first unexecuted
  /// round on return — the checkpoint/restore entry point.
  EpochStats run_range(index_t end_round, TrainCursor& cursor);

  /// Block-assigns the batches `ids` to the alive ranks (partitioned: to
  /// the alive process rows, whose surviving replicas round-robin the
  /// block) at steps from `boundary` on; steps before it are kept.
  void assign_batches(const std::vector<index_t>& ids, index_t boundary);

  /// At the boundary of bulk round g, advances the fault superstep and — if
  /// ranks died — re-assigns every batch at steps >= the boundary to the
  /// survivors and re-plans the remaining rounds.
  void recover_at_boundary(std::size_t g);

  /// Samples the minibatches of `round` into the schedule (draw_round);
  /// returns the simulated seconds the round cost. kDisaggregated then
  /// streams each sample to its trainer as the modeled "handoff" comm phase.
  double sample_round(const BulkRound& round,
                      const std::vector<std::vector<index_t>>& batches,
                      std::uint64_t epoch_seed);

  /// sample_round without the handoff: samples the minibatches of `round`
  /// into their schedule cells and bills the round (compute, collectives,
  /// one launch overhead) on the cluster. Distributed modes sample on the
  /// sampling ranks and return the (rank, step) cells each sampler process
  /// row filled; replicated returns nothing.
  std::vector<std::vector<std::pair<int, index_t>>> draw_round(
      const BulkRound& round, const std::vector<std::vector<index_t>>& batches,
      std::uint64_t epoch_seed);

  /// Issues the feature fetch for step t; returns the simulated seconds.
  double fetch_step(index_t t, std::vector<DenseF>& gathered);

  /// Propagation + optimizer for step t (accumulates loss/accuracy into
  /// `cursor` and releases the trained samples); returns the simulated
  /// seconds.
  double train_step(index_t t, const std::vector<DenseF>& gathered,
                    TrainCursor& cursor);

  /// Uncredited simulated clock (compute + comm), for per-stage deltas.
  double clock() const;

  Cluster& cluster_;
  const Dataset& ds_;
  PipelineConfig cfg_;
  /// Rank roles. Colocated modes: no sampler ranks, trainer j is rank j.
  /// Declared before features_, which partitions H over the trainer grid.
  DisaggLayout layout_;
  FeatureStore features_;
  /// Constructed through make_sampler (the factory is the only construction
  /// path for samplers in the pipeline).
  std::unique_ptr<MatrixSampler> sampler_;
  /// Non-owning distributed view of sampler_ when mode != kReplicated (the
  /// disaggregated sampler *is* the algorithm's partitioned form over the
  /// sampler sub-grid, and samples on cluster_'s ranks [0, s)).
  PartitionedSamplerBase* partitioned_ = nullptr;
  SageModel model_;
  Adam optimizer_;
  double warmup_cost_ = 0.0;     ///< clock cost of presample_warmup()
  bool pending_warmup_ = false;  ///< first run_range consumes + bills it

  // Epoch state of the executor.
  std::vector<std::vector<Cell>> schedule_;  ///< [rank][step]
  std::vector<BulkRound> rounds_;  ///< epoch schedule; re-planned on crash
  index_t bulk_steps_ = 0;         ///< round stride for (re)planning
  int alive_ = 0;  ///< alive ranks at the last boundary (crashes are permanent)
};

}  // namespace dms
