// 1.5D-partitioned feature matrix H with all-to-allv fetching (§6.2) and an
// optional per-rank row cache.
//
// H is split into p/c block rows; block i is replicated on process row
// P(i,:). Each process column P(:,j) holds the entire H, so a rank only
// exchanges feature rows within its own column — which is why fetch time
// scales with the replication factor c (§8.1.2). With a cache configured
// (FeatureCacheConfig), each rank additionally keeps recently fetched (or
// degree-pinned) remote rows resident, and fetch_all ships only the rows
// that are neither local nor cached; hit/miss/byte accounting is exposed
// through cache_stats().
#pragma once

#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "graph/partition.hpp"
#include "sparse/dense.hpp"
#include "train/feature_cache.hpp"

namespace dms {

struct FeatureStoreOptions {
  FeatureCacheConfig cache;
  /// Maps the store's local rank ids onto the ids of a larger cluster for
  /// CostModel purposes only (intra-/inter-node link classification). Empty
  /// means identity. The disaggregated pipeline partitions H over the
  /// *trainer* sub-grid but the trainers occupy global ranks [s, p) of the
  /// full cluster; global_ranks[local] = s + local keeps the modeled
  /// all-to-allv on the links those ranks actually use.
  std::vector<int> global_ranks{};
};

class FeatureStore {
 public:
  /// Partitions `features` (n × f) over grid.rows() block rows.
  ///
  /// Lifetime contract: the store only *borrows* `features` — the caller
  /// must keep the source alive (and unmodified in shape) for the store's
  /// whole lifetime; never pass a temporary. Debug builds guard the common
  /// violations (source destroyed, moved-from, or reshaped) by checking the
  /// source's shape on every fetch.
  FeatureStore(const ProcessGrid& grid, const DenseF& features,
               FeatureStoreOptions opts = {});

  index_t dim() const { return dim_; }
  const BlockPartition& partition() const { return part_; }

  /// Bytes a rank in process row i stores.
  std::size_t block_bytes(index_t i) const;

  /// Per-rank bytes of cache capacity (resident rows × row bytes).
  std::size_t cache_bytes() const;

  /// Collective fetch: wanted[r] lists the global vertex ids rank r needs
  /// this training step. Performs the per-column all-to-allv (modeled cost,
  /// real data movement) for the rows that are neither block-local nor
  /// cache-resident on the requester, and returns one gathered
  /// (|wanted[r]| × f) matrix per rank. Records comm + gather compute under
  /// `phase`; classifies every requested row into cache_stats().
  ///
  /// `wanted` is indexed by the *store's* grid (one list per rank of the
  /// grid passed at construction) — under disaggregation that is the trainer
  /// sub-grid, not `cluster.grid()`. Costs are recorded on `cluster` with
  /// ranks translated through FeatureStoreOptions::global_ranks.
  std::vector<DenseF> fetch_all(Cluster& cluster,
                                const std::vector<std::vector<index_t>>& wanted,
                                const std::string& phase = "fetch");

  /// Serving-path gather (DESIGN.md §10): copies the requested rows into
  /// `out` (reshaped to |wanted| × f, reusing its capacity — allocation-free
  /// once grown to the steady-state high-water mark) as rank `rank`, with no
  /// cluster and no collective: remote rows are classified through rank's
  /// cache exactly as fetch_all would (hit / miss / local into
  /// cache_stats(), misses become resident), but only modeled — serving
  /// reads the canonical feature matrix directly. Returns the bytes a real
  /// deployment would have pulled over the wire for this gather (the
  /// miss payload).
  std::size_t gather_rows(int rank, const std::vector<index_t>& wanted,
                          DenseF* out);

  /// Pins `rows` resident in every rank's cache (kDegreePinned policy; the
  /// pipeline pins the top-degree vertices).
  void pin_rows(const std::vector<index_t>& rows);

  /// Cumulative accounting across every fetch_all since construction.
  const FeatureCacheStats& cache_stats() const { return stats_; }

  /// Direct access to rank r's cache (tests).
  const FeatureRowCache& cache(int rank) const {
    return caches_[static_cast<std::size_t>(rank)];
  }

  /// The grid H is partitioned over (the trainer sub-grid under
  /// disaggregation; the full cluster grid otherwise).
  const ProcessGrid& grid() const { return grid_; }

 private:
  const DenseF& source() const;

  ProcessGrid grid_;
  BlockPartition part_;
  index_t dim_ = 0;
  FeatureStoreOptions opts_;
  const DenseF* features_;  ///< borrowed; see the lifetime contract
  index_t src_rows_ = 0;    ///< shape at construction (debug lifetime guard)
  std::vector<FeatureRowCache> caches_;  ///< one per rank
  FeatureCacheStats stats_;
};

}  // namespace dms
