// Graph Partitioned plan samplers (§5.2): the adjacency is block-row
// partitioned over a 1.5D process grid (it no longer needs to fit on one
// device) and the sampler's *plan* (src/plan), as built, runs through the
// partitioned executor — every kSpgemm/kMaskedExtract op runs as its 1.5D
// collective (Algorithm 2's block-row fetch rounds, then the row exchange
// that sends each batch's result to the replica that keeps it), while
// row-local ops (NORM, ITS, thinning, assembly) run per process row. There
// is no per-sampler distributed sampling logic here: one executor serves
// every algorithm in every mode, which is why partitioned FastGCN and LABOR
// exist at all.
//
// Placement: a process row's batch list is split among its alive replicas
// by the keeper rule (row_keepers / batch_keeper, spgemm_15d.hpp), so the
// replica that trains a batch is the one its collective results reach. The
// row-local ops still bill the whole row's host time, as if every replica
// ran every batch of its row.
//
// Determinism contract: randomness is derived per (epoch, global batch id,
// layer, local row), never from the rank layout, so a Graph Partitioned run
// produces bit-identical minibatches to the single-node sampler of src/core
// for every grid shape, chunk size, and sparsity mode. (All probability
// values are exact small-integer arithmetic before normalization, so the
// distributed reduction order cannot perturb them.) The dist tests sweep
// grids to enforce this.
//
// Phase accounting matches Figure 7: every plan op records its
// kPhaseProbability / kPhaseSampling / kPhaseExtraction compute and the
// collectives their communication on the Cluster. The process layout is the
// distributed adjacency's grid, not the cluster's: a sampler over a grid of
// g ranks runs on global ranks [0, g) of any cluster with at least g ranks
// (the disaggregated pipeline's sampler role is exactly that), so one
// cluster is the clock and the liveness table of every role.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "comm/cluster.hpp"
#include "core/plan_sampler.hpp"
#include "dist/spgemm_15d.hpp"

namespace dms {

/// A bulk sampling round: the contiguous range [step_begin, step_end) of
/// per-rank training-step indices whose minibatches the round materializes.
/// Rounds are the prefetchable unit of the staged training executor — round
/// g+1 can be sampled while the steps of round g train — and the granularity
/// at which bulk sampling amortizes kernel launches (the paper's k, §4).
struct BulkRound {
  index_t step_begin = 0;
  index_t step_end = 0;
  index_t steps() const { return step_end - step_begin; }
};

/// Splits an epoch of `steps_per_rank` training steps into rounds of
/// `bulk_steps` steps each (the last round may be short). bulk_steps <= 0
/// yields one round covering the whole epoch ("k=all").
std::vector<BulkRound> plan_bulk_rounds(index_t steps_per_rank, index_t bulk_steps);

struct PartitionedSamplerOptions {
  /// Use the sparsity-aware 1.5D SpGEMM variant (§5.2.1; Ballard et al.)
  /// instead of broadcasting whole A block rows.
  bool sparsity_aware = true;
};

/// A Graph Partitioned sampler: any SamplePlan, executed as built by the
/// partitioned PlanExecutor. Handles batch-to-process-row assignment and
/// the distributed adjacency; the plan, config, global weights, graph
/// ownership and run state are PlanSampler's, which is what lets the
/// factory treat both modes uniformly.
class PartitionedSamplerBase : public PlanSampler {
 public:
  /// Borrows `graph`, which must outlive the sampler (the distributed block
  /// rows are materialized once at construction). `plan` is the plan the
  /// replicated sampler runs; it is not optimized (the rewrites emit
  /// replicated-only ops).
  PartitionedSamplerBase(const Graph& graph, const ProcessGrid& grid,
                         SamplePlan plan, SamplerConfig config,
                         PartitionedSamplerOptions opts = {});
  /// Owns `graph` (PinSAGE's importance graph), then partitions it.
  PartitionedSamplerBase(std::unique_ptr<const Graph> graph,
                         const ProcessGrid& grid, SamplePlan plan,
                         SamplerConfig config,
                         PartitionedSamplerOptions opts = {});

  /// Distributed bulk sampling. Minibatches are assigned to the alive
  /// process rows in contiguous blocks of the batch list (a row is alive
  /// while any of its ranks is alive on `cluster`): row i takes
  /// row_batches[i] of them when given — they must sum to the batch count
  /// and give dead rows none — and an even split of the alive rows
  /// otherwise. Within a row, batch b is kept by the row's
  /// batch_keeper(row_keepers, b) (spgemm_15d.hpp). The return value holds
  /// each process row's samples, so concatenating the rows restores global
  /// batch order. Phase times and communication volumes are recorded on
  /// `cluster`, which must have at least grid().size() ranks.
  std::vector<std::vector<MinibatchSample>> sample_bulk(
      Cluster& cluster, const std::vector<std::vector<index_t>>& batches,
      const std::vector<index_t>& batch_ids, std::uint64_t epoch_seed,
      std::span<const index_t> row_batches = {}) const;

  /// MatrixSampler conformance: runs the distributed algorithm on the bound
  /// cluster (see bind_cluster) or an ephemeral one, and flattens the
  /// per-row results back to global batch order. By the determinism
  /// contract the output equals the single-node sampler's.
  std::vector<MinibatchSample> sample_bulk(
      const std::vector<std::vector<index_t>>& batches,
      const std::vector<index_t>& batch_ids,
      std::uint64_t epoch_seed) const override;

  /// The process grid the adjacency is partitioned over.
  const ProcessGrid& grid() const { return dist_adj_.grid(); }
  const PartitionedSamplerOptions& options() const { return opts_; }

  /// The block-row distributed adjacency (per-rank memory accounting).
  const DistBlockRowMatrix& dist_adjacency() const { return dist_adj_; }

  /// Binds a long-lived cluster that the MatrixSampler-interface
  /// sample_bulk records phases on (factory wiring). nullptr unbinds; an
  /// ephemeral cluster of the sampler's grid is then used instead.
  void bind_cluster(Cluster* cluster) { bound_cluster_ = cluster; }

 private:
  PartitionedSamplerOptions opts_;
  DistBlockRowMatrix dist_adj_;
  Cluster* bound_cluster_ = nullptr;
};

}  // namespace dms
