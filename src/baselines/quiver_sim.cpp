#include "baselines/quiver_sim.hpp"

#include <algorithm>
#include <numeric>

#include "baselines/classic_sage.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/minibatch.hpp"
#include "graph/partition.hpp"

namespace dms {

namespace {

/// UVA mode: the fraction of vertices (hottest by degree) whose features
/// are cached on device.
constexpr double kUvaGpuCacheFraction = 0.2;
/// Quiver reads remote feature rows individually via zero-copy GPU p2p
/// (per-row transactions), reaching a fraction of peak link bandwidth;
/// our pipeline packs rows into bulk NCCL all-to-allv messages. This is
/// the "does not effectively optimize this communication" of §8.1.1.
constexpr double kP2pEfficiency = 0.5;
/// Zero-copy p2p only exists within a node (NVLink). A feature row on a
/// GPU in another node is fetched as its own small transfer and pays this
/// pipelined per-row latency — the mechanism behind both Quiver's 4→8 GPU
/// slowdown and its failure to scale on dense graphs (§8.1.1: "this
/// communication volume also increases as p increases").
constexpr double kCrossNodeRowLatency = 2.5e-6;
/// Fine-grained cross-node reads from many GPUs at once suffer incast
/// congestion that grows with the node count; coarse-grained bulk
/// all-to-allv transfers (our pipeline) do not. Effective per-row latency
/// is kCrossNodeRowLatency * (1 + kIncastFactor * (nodes - 1)).
constexpr double kIncastFactor = 0.1;
/// UVA mode: per-row PCIe transaction latency for random accesses. Neighbor
/// lists and feature rows resident in host DRAM are touched individually,
/// not streamed, so each access pays a round trip amortized over
/// pipelining. This term, not bandwidth, is what makes UVA sampling slow
/// (§8.1.1).
constexpr double kUvaAccessLatency = 0.3e-6;

ModelConfig make_model_config(const Dataset& ds, const QuiverConfig& cfg) {
  ModelConfig mc;
  mc.in_dim = ds.feature_dim();
  mc.hidden = cfg.hidden;
  mc.num_classes = ds.num_classes;
  mc.num_layers = static_cast<index_t>(cfg.fanouts.size());
  mc.seed = derive_seed(cfg.seed, 0x0de1);
  return mc;
}

}  // namespace

QuiverSim::QuiverSim(Cluster& cluster, const Dataset& dataset, QuiverConfig config)
    : cluster_(cluster),
      ds_(dataset),
      cfg_(std::move(config)),
      model_(make_model_config(dataset, cfg_)),
      optimizer_(cfg_.lr) {
  if (cfg_.uva) {
    // Cache the hottest vertices (by degree) on device — Quiver's
    // degree-ordered feature cache.
    const index_t n = ds_.num_vertices();
    std::vector<index_t> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), index_t{0});
    std::sort(order.begin(), order.end(), [&](index_t a, index_t b) {
      return ds_.graph.out_degree(a) > ds_.graph.out_degree(b);
    });
    gpu_cached_.assign(static_cast<std::size_t>(n), 0);
    const auto cached =
        static_cast<index_t>(kUvaGpuCacheFraction * static_cast<double>(n));
    for (index_t i = 0; i < cached; ++i) {
      gpu_cached_[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = 1;
    }
  }
}

QuiverEpochStats QuiverSim::run_epoch(int epoch) {
  cluster_.reset_clock();
  const std::uint64_t epoch_seed =
      derive_seed(cfg_.seed, 0x9f1e, static_cast<std::uint64_t>(epoch));
  const auto batches = make_epoch_batches(ds_.train_idx, cfg_.batch_size, epoch_seed);
  const int p = cluster_.size();
  const CostModel& model = cluster_.cost_model();
  const double launch = model.link().launch_overhead;
  const std::size_t row_bytes =
      static_cast<std::size_t>(ds_.feature_dim()) * sizeof(float);
  const BlockPartition feat_part(ds_.num_vertices(), p);  // quiver.Feature shard
  const std::size_t param_bytes = model_.param_bytes();

  const auto k_total = static_cast<index_t>(batches.size());
  const index_t steps = ceil_div(k_total, p);
  double loss_sum = 0.0;
  index_t seen = 0;

  for (index_t t = 0; t < steps; ++t) {
    // --- Per-rank sampling of one minibatch (no bulk amortization). ---
    double max_sample = 0.0;
    double worst_uva_sampling = 0.0;
    std::size_t uva_graph_bytes = 0;
    std::vector<MinibatchSample> samples(static_cast<std::size_t>(p));
    std::vector<bool> active(static_cast<std::size_t>(p), false);
    for (int r = 0; r < p; ++r) {
      const index_t b = t * p + r;
      if (b >= k_total) continue;
      active[static_cast<std::size_t>(r)] = true;
      Timer timer;
      samples[static_cast<std::size_t>(r)] = classic_sage_sample(
          ds_.graph, batches[static_cast<std::size_t>(b)], cfg_.fanouts, b, epoch_seed);
      max_sample = std::max(max_sample, timer.seconds());
      if (cfg_.uva) {
        // UVA sampling walks adjacency lists resident in host DRAM: every
        // frontier vertex's neighbor list is a separate PCIe transaction
        // (latency-bound) plus the list payload (bandwidth-bound).
        std::size_t rank_bytes = 0;
        std::size_t accesses = 0;
        for (const auto& layer : samples[static_cast<std::size_t>(r)].layers) {
          accesses += layer.row_vertices.size();
          for (const index_t v : layer.row_vertices) {
            rank_bytes += static_cast<std::size_t>(ds_.graph.out_degree(v)) *
                          sizeof(index_t);
          }
        }
        worst_uva_sampling = std::max(
            worst_uva_sampling,
            static_cast<double>(accesses) * kUvaAccessLatency +
                static_cast<double>(rank_bytes) * model.link().beta_pcie);
        uva_graph_bytes += rank_bytes;
      }
    }
    cluster_.add_compute_irregular("sampling", max_sample);
    // Kernel launches per layer per minibatch — not amortized.
    cluster_.add_overhead("sampling",
                          launch * kKernelsPerLayer *
                              static_cast<double>(cfg_.fanouts.size()));
    if (cfg_.uva && worst_uva_sampling > 0.0) {
      cluster_.record_comm("sampling", worst_uva_sampling, uva_graph_bytes,
                           static_cast<std::size_t>(p));
    }

    // --- Feature fetching from the partitioned store. ---
    double worst_fetch = 0.0;
    std::size_t fetch_bytes = 0;
    std::vector<DenseF> gathered(static_cast<std::size_t>(p));
    double max_gather_compute = 0.0;
    for (int r = 0; r < p; ++r) {
      if (!active[static_cast<std::size_t>(r)]) continue;
      const auto& input = samples[static_cast<std::size_t>(r)].input_vertices();
      Timer timer;
      DenseF h(static_cast<index_t>(input.size()), ds_.feature_dim());
      double t_fetch = 0.0;
      std::vector<std::size_t> from_peer(static_cast<std::size_t>(p), 0);
      std::size_t pcie_bytes = 0;
      std::size_t pcie_rows = 0;
      std::size_t cross_node_rows = 0;
      for (std::size_t i = 0; i < input.size(); ++i) {
        const index_t v = input[i];
        std::copy(ds_.features.row(v), ds_.features.row(v) + ds_.feature_dim(),
                  h.row(static_cast<index_t>(i)));
        if (cfg_.uva) {
          if (!gpu_cached_[static_cast<std::size_t>(v)]) {
            pcie_bytes += row_bytes;
            ++pcie_rows;
          }
        } else {
          const auto owner = static_cast<int>(feat_part.owner(v));
          if (owner != r) {
            from_peer[static_cast<std::size_t>(owner)] += row_bytes;
            if (!model.same_node(owner, r)) ++cross_node_rows;
          }
        }
      }
      max_gather_compute = std::max(max_gather_compute, timer.seconds());
      if (cfg_.uva) {
        t_fetch = static_cast<double>(pcie_bytes) * model.link().beta_pcie +
                  static_cast<double>(pcie_rows) * kUvaAccessLatency;
        fetch_bytes += pcie_bytes;
      } else {
        for (int peer = 0; peer < p; ++peer) {
          const std::size_t bytes = from_peer[static_cast<std::size_t>(peer)];
          if (bytes == 0) continue;
          t_fetch += model.link().alpha +
                     static_cast<double>(bytes) * model.beta(peer, r) /
                         kP2pEfficiency;
          fetch_bytes += bytes;
        }
        // Per-row transfer latency for rows outside the NVLink p2p domain,
        // inflated by incast congestion across the participating nodes.
        const double nodes = std::max(
            1.0, static_cast<double>(p) / model.link().ranks_per_node);
        t_fetch += static_cast<double>(cross_node_rows) *
                   kCrossNodeRowLatency * (1.0 + kIncastFactor * (nodes - 1.0));
      }
      worst_fetch = std::max(worst_fetch, t_fetch);
      gathered[static_cast<std::size_t>(r)] = std::move(h);
    }
    cluster_.add_compute("fetch", max_gather_compute);
    cluster_.record_comm("fetch", worst_fetch, fetch_bytes, static_cast<std::size_t>(p));

    // --- Propagation (same machinery as the pipeline). ---
    double max_prop = 0.0;
    int num_active = 0;
    for (int r = 0; r < p; ++r) {
      if (!active[static_cast<std::size_t>(r)]) continue;
      const auto& sample = samples[static_cast<std::size_t>(r)];
      std::vector<int> labels(sample.batch_vertices.size());
      for (std::size_t i = 0; i < labels.size(); ++i) {
        labels[i] = ds_.labels[static_cast<std::size_t>(sample.batch_vertices[i])];
      }
      Timer timer;
      const LossResult res =
          model_.train_step(sample, gathered[static_cast<std::size_t>(r)], labels);
      max_prop = std::max(max_prop, timer.seconds());
      loss_sum += res.loss * static_cast<double>(labels.size());
      seen += static_cast<index_t>(labels.size());
      ++num_active;
    }
    if (num_active > 0) {
      Timer timer;
      model_.scale_grads(1.0f / static_cast<float>(num_active));
      optimizer_.step(model_.params());
      model_.zero_grads();
      cluster_.add_compute("propagation", max_prop + timer.seconds());
      if (p > 1) {
        cluster_.record_comm(
            "propagation",
            model.allreduce(cluster_.grid().all_ranks(), param_bytes),
            param_bytes * static_cast<std::size_t>(p),
            static_cast<std::size_t>(2 * (p - 1)));
      }
    }
  }

  QuiverEpochStats stats;
  stats.sampling = cluster_.phase_time("sampling");
  stats.fetch = cluster_.phase_time("fetch");
  stats.propagation = cluster_.phase_time("propagation");
  stats.total = cluster_.total_time();
  stats.loss = seen > 0 ? loss_sum / static_cast<double>(seen) : 0.0;
  return stats;
}

std::size_t QuiverSim::per_rank_bytes(int rank) const {
  (void)rank;
  const std::size_t shard =
      static_cast<std::size_t>(ceil_div(ds_.num_vertices(), cluster_.size())) *
      static_cast<std::size_t>(ds_.feature_dim()) * sizeof(float);
  return ds_.graph.adjacency().bytes() + shard + model_.param_bytes();
}

}  // namespace dms
