// α–β communication cost model (§2.4) parameterized with the Perlmutter
// numbers from §7.2: NVLink 3.0 at 100 GB/s within a node of 4 GPUs,
// Slingshot 11 at 25 GB/s per NIC across nodes.
//
// This is the substitution for the real NCCL/GPU fabric: collective
// implementations in src/dist count exact bytes/messages and convert them to
// time here. The paper itself analyzes its algorithms in this same model
// (e.g. T_prob = α(p/c² + log c) + β(kbd/c + ckbd/p), §5.2.1).
#pragma once

#include <vector>

#include "common/types.hpp"

namespace dms {

struct LinkParams {
  double alpha = 5e-6;             ///< per-message latency, seconds
  double beta_intra = 1.0 / 100e9; ///< seconds/byte within a node (NVLink 3.0)
  double beta_inter = 1.0 / 25e9;  ///< seconds/byte across nodes (Slingshot 11)
  int ranks_per_node = 4;          ///< Perlmutter: 4 A100s per node

  /// Host-CPU → device compute-throughput ratio for *bulk* kernels
  /// (SpGEMM, SpMM, GEMM, bulk ITS): measured local compute is divided by
  /// this before entering the simulated clock.
  double compute_scale = 1.0;

  /// Separate ratio for *irregular per-vertex* kernels (loop-based
  /// per-minibatch neighbor sampling, as in Quiver/DGL GPU samplers). These
  /// are latency/divergence-bound and do not saturate a device the way bulk
  /// matrix kernels do — which is precisely the paper's motivation for
  /// matrix-based bulk sampling (§1, §4). Keep ≤ compute_scale.
  double irregular_compute_scale = 1.0;

  /// Fixed per-kernel-launch overhead, seconds. This is the per-minibatch
  /// cost that bulk sampling amortizes (§4: "amortizes the overheads of
  /// sampling a minibatch"); the Quiver-sim baseline pays it per batch.
  double launch_overhead = 30e-6;

  /// PCIe bandwidth for the UVA mode of Figure 5 (graph + most features in
  /// host DRAM, accessed over PCIe 4.0 x16 ≈ 25 GB/s with UVA overheads).
  double beta_pcie = 1.0 / 20e9;
};

/// Kernel launches per layer of a sampling pass (SpGEMM, prefix sum, sample,
/// extract): a bulk round pays launch_overhead × kKernelsPerLayer × L once,
/// a per-minibatch sampler once per minibatch.
inline constexpr double kKernelsPerLayer = 4.0;

/// Converts communication events to simulated seconds.
class CostModel {
 public:
  CostModel() = default;
  explicit CostModel(LinkParams link) : link_(link) {}

  const LinkParams& link() const { return link_; }

  int node_of(int rank) const { return rank / link_.ranks_per_node; }
  bool same_node(int a, int b) const { return node_of(a) == node_of(b); }

  /// β between two specific ranks.
  double beta(int src, int dst) const {
    return same_node(src, dst) ? link_.beta_intra : link_.beta_inter;
  }

  /// Worst-case β within a group of ranks (collectives are gated by their
  /// slowest link).
  double group_beta(const std::vector<int>& ranks) const;

  /// Point-to-point message of `bytes` bytes.
  double p2p(int src, int dst, std::size_t bytes) const {
    return link_.alpha + static_cast<double>(bytes) * beta(src, dst);
  }

  /// Binomial-tree broadcast of `bytes` to a group of size n.
  double broadcast(const std::vector<int>& group, std::size_t bytes) const;

  /// Ring all-reduce of a `bytes`-sized buffer over the group:
  /// 2(n-1) steps of bytes/n each, plus latency.
  double allreduce(const std::vector<int>& group, std::size_t bytes) const;

  /// All-to-allv: send_bytes[i][j] = bytes rank group[i] sends to group[j].
  /// Modeled as max over ranks of sequential sends (pairwise exchange).
  double alltoallv(const std::vector<int>& group,
                   const std::vector<std::vector<std::size_t>>& send_bytes) const;

 private:
  LinkParams link_;
};

}  // namespace dms
