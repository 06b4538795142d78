// Quiver-sim: the Figure 4/5 baseline (§7.3).
//
// Quiver (distributed PyG) with GPU-only sampling replicates the graph
// topology on every GPU and samples each minibatch individually (no bulk
// amortization), fetching features from a store partitioned across GPUs
// with NVLink p2p inside a node and the interconnect across nodes. It does
// not optimize cross-device feature traffic, which is why it stops scaling
// on dense graphs as p grows (§8.1.1).
//
// The simulated baseline reproduces exactly those properties:
//  - per-minibatch loop-based sampling (classic_sage) with a kernel-launch
//    overhead per layer per batch,
//  - block-partitioned feature store with per-peer α–β gather costs,
//  - the same propagation machinery as our pipeline (identical compute).
// UVA mode (Figure 5) keeps the graph in host DRAM — neighbor reads cross
// PCIe — and serves 80% of features from DRAM with the hottest 20% (by
// degree) cached on-device, as described in §8.1.1.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/cluster.hpp"
#include "graph/dataset.hpp"
#include "nn/model.hpp"

namespace dms {

/// The modeled Quiver constants (on-device cache fraction, p2p efficiency,
/// cross-node per-row latency and its incast growth) are fixed in
/// quiver_sim.cpp, next to the reasoning behind each value.
struct QuiverConfig {
  bool uva = false;  ///< Figure 5: UVA sampling + DRAM features
  index_t batch_size = 64;
  std::vector<index_t> fanouts = {10, 5, 5};
  index_t hidden = 32;
  float lr = 1e-2f;
  std::uint64_t seed = 7;
};

struct QuiverEpochStats {
  double sampling = 0.0;
  double fetch = 0.0;
  double propagation = 0.0;
  double total = 0.0;
  double loss = 0.0;
};

class QuiverSim {
 public:
  QuiverSim(Cluster& cluster, const Dataset& dataset, QuiverConfig config);

  QuiverEpochStats run_epoch(int epoch);

  /// Per-rank device memory: full replicated topology + feature shard.
  std::size_t per_rank_bytes(int rank) const;

 private:
  Cluster& cluster_;
  const Dataset& ds_;
  QuiverConfig cfg_;
  SageModel model_;
  Adam optimizer_;
  std::vector<char> gpu_cached_;  ///< UVA: per-vertex on-device cache flag
};

}  // namespace dms
