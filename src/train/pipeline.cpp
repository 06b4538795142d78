#include "train/pipeline.hpp"

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/minibatch.hpp"
#include "graph/partition.hpp"
#include "train/staged_pipeline.hpp"

namespace dms {

namespace {

ModelConfig make_model_config(const Dataset& ds, const PipelineConfig& cfg) {
  ModelConfig mc;
  mc.in_dim = ds.feature_dim();
  mc.hidden = cfg.hidden;
  mc.num_classes = ds.num_classes;
  mc.num_layers = static_cast<index_t>(cfg.fanouts.size());
  mc.seed = derive_seed(cfg.seed, 0x0de1ULL);
  return mc;
}

/// The capacity_rows highest-out-degree vertices (ties broken by lower id),
/// the pinned set of the kDegreePinned cache policy.
std::vector<index_t> top_degree_vertices(const Graph& graph, index_t count) {
  std::vector<index_t> order(static_cast<std::size_t>(graph.num_vertices()));
  std::iota(order.begin(), order.end(), index_t{0});
  count = std::min<index_t>(count, graph.num_vertices());
  std::partial_sort(order.begin(), order.begin() + count, order.end(),
                    [&](index_t a, index_t b) {
                      const index_t da = graph.out_degree(a);
                      const index_t db = graph.out_degree(b);
                      return da != db ? da > db : a < b;
                    });
  order.resize(static_cast<std::size_t>(count));
  return order;
}

DisaggLayout layout_for(const PipelineConfig& cfg, const Cluster& cluster) {
  return cfg.mode == DistMode::kDisaggregated
             ? make_disagg_layout(cluster.grid(), cfg.disagg)
             : DisaggLayout{};
}

FeatureStoreOptions feature_store_options(const PipelineConfig& cfg,
                                          const DisaggLayout& layout) {
  FeatureStoreOptions opts;
  opts.cache = cfg.feature_cache;
  if (cfg.mode == DistMode::kDisaggregated) {
    // H lives on the trainer sub-grid; translate its local ranks to the
    // global ids [s, p) so the modeled all-to-allv classifies links by
    // where the trainers actually sit.
    opts.global_ranks.resize(static_cast<std::size_t>(layout.trainers));
    for (int j = 0; j < layout.trainers; ++j) {
      opts.global_ranks[static_cast<std::size_t>(j)] = layout.trainer_rank(j);
    }
  }
  return opts;
}

}  // namespace

Pipeline::Pipeline(Cluster& cluster, const Dataset& dataset, PipelineConfig config)
    : cluster_(cluster),
      ds_(dataset),
      cfg_(std::move(config)),
      disagg_(layout_for(cfg_, cluster)),
      features_(cfg_.mode == DistMode::kDisaggregated ? disagg_.trainer_grid
                                                      : cluster.grid(),
                dataset.features, feature_store_options(cfg_, disagg_)),
      model_(make_model_config(dataset, cfg_)) {
  check(!cfg_.fanouts.empty(), "Pipeline: fanouts must be non-empty");
  check(cfg_.presample_rounds >= 1, "Pipeline: presample_rounds must be >= 1");
  SamplerContext ctx;
  ctx.config = SamplerConfig{cfg_.fanouts, cfg_.seed};
  ctx.grid = &cluster_.grid();
  ctx.part_opts = cfg_.part_opts;
  // The staged executor drives the cluster-explicit distributed API itself;
  // the binding only ensures that any generic MatrixSampler use of sampler_
  // records its phases on this pipeline's clock rather than an ephemeral one.
  ctx.cluster = &cluster_;
  ctx.disagg = cfg_.disagg;
  sampler_ = make_sampler(cfg_.sampler, cfg_.mode, ds_.graph, ctx);
  if (cfg_.mode != DistMode::kReplicated) {
    partitioned_ = &as_partitioned(*sampler_);
  }
  if (cfg_.mode == DistMode::kDisaggregated) {
    disagg_cluster_ = std::make_unique<Cluster>(disagg_.sampler_grid, cluster_);
    partitioned_->bind_cluster(disagg_cluster_.get());
  }
  optimizer_ = cfg_.use_adam
                   ? std::unique_ptr<Optimizer>(std::make_unique<Adam>(cfg_.lr))
                   : std::unique_ptr<Optimizer>(std::make_unique<Sgd>(cfg_.lr, 0.9f));
  // Cache admission runs after the sampler exists: kPreSample needs it for
  // the warmup pass (kDegreePinned only needs the graph).
  if (cfg_.feature_cache.capacity_rows > 0) {
    if (cfg_.feature_cache.policy == CachePolicy::kDegreePinned) {
      features_.pin_rows(
          top_degree_vertices(ds_.graph, cfg_.feature_cache.capacity_rows));
    } else if (cfg_.feature_cache.policy == CachePolicy::kPreSample) {
      presample_warmup();
    }
  }
}

void Pipeline::presample_warmup() {
  // A dedicated warmup permutation under its own derived seed: hotness is
  // measured on batches the training epochs never see, so pinning cannot
  // leak epoch randomness (and epoch losses stay independent of the policy).
  const std::uint64_t warmup_seed = derive_seed(cfg_.seed, 0x9a3eULL);
  const auto want = static_cast<std::size_t>(cfg_.presample_rounds) *
                    static_cast<std::size_t>(cluster_.size());
  // Draw warmup batches from as many fresh permutations as the round budget
  // asks for — hotness is estimated from sampled neighborhoods, so more
  // (differently-seeded) draws shrink the estimator's noise at the capacity
  // boundary. Batch ids stay globally unique across permutations, which
  // keeps every draw independent under the per-(id, layer, row) randomness.
  std::vector<std::vector<index_t>> chunk;
  for (std::uint64_t rep = 0; chunk.size() < want; ++rep) {
    auto perm = make_epoch_batches(ds_.train_idx, cfg_.batch_size,
                                   derive_seed(warmup_seed, rep));
    if (perm.empty()) break;
    for (auto& b : perm) {
      if (chunk.size() == want) break;
      chunk.push_back(std::move(b));
    }
  }
  const std::size_t n = chunk.size();
  if (n == 0) return;
  std::vector<index_t> ids(n);
  std::iota(ids.begin(), ids.end(), index_t{0});

  // Cost measurement: the distributed modes record the warmup's phases on
  // the main cluster (directly for kPartitioned, through the sampler-grid
  // view for kDisaggregated) — wiped by the first epoch's reset_clock; the
  // replicated sampler is host-timed like replicated_round would.
  Cluster* recorder = cfg_.mode == DistMode::kReplicated ? nullptr : &cluster_;
  const double before =
      recorder ? recorder->total_compute() + recorder->total_comm() : 0.0;
  Timer timer;
  const auto samples = sampler_->sample_bulk(chunk, ids, warmup_seed);
  if (recorder != nullptr) {
    warmup_cost_ = recorder->total_compute() + recorder->total_comm() - before;
  } else {
    const LinkParams& link = cluster_.cost_model().link();
    // One bulk round: measured sampling compute plus its launch overheads
    // (4 kernels per layer, as the staged executor bills a round).
    warmup_cost_ = timer.seconds() / link.compute_scale +
                   link.launch_overhead * 4.0 *
                       static_cast<double>(cfg_.fanouts.size());
  }

  std::vector<std::uint64_t> counts(
      static_cast<std::size_t>(ds_.graph.num_vertices()), 0);
  for (const MinibatchSample& s : samples) {
    for (const index_t v : s.input_vertices()) {
      ++counts[static_cast<std::size_t>(v)];
    }
  }
  // Hottest first; rows the warmup could not separate (equal touch counts,
  // common near the capacity boundary) fall back to the degree prior that
  // kDegreePinned uses outright, then to the lower id. Measured hotness
  // decides wherever the data speaks, degree only where it is silent.
  std::vector<index_t> order(static_cast<std::size_t>(ds_.graph.num_vertices()));
  std::iota(order.begin(), order.end(), index_t{0});
  const index_t count = std::min<index_t>(cfg_.feature_cache.capacity_rows,
                                          ds_.graph.num_vertices());
  std::partial_sort(order.begin(), order.begin() + count, order.end(),
                    [&](index_t a, index_t b) {
                      const auto ca = counts[static_cast<std::size_t>(a)];
                      const auto cb = counts[static_cast<std::size_t>(b)];
                      if (ca != cb) return ca > cb;
                      const index_t da = ds_.graph.out_degree(a);
                      const index_t db = ds_.graph.out_degree(b);
                      return da != db ? da > db : a < b;
                    });
  order.resize(static_cast<std::size_t>(count));
  features_.pin_rows(order);
  pending_warmup_ = true;
}

EpochStats Pipeline::run_epoch(int epoch) {
  return StagedPipeline(*this).run(epoch);
}

TrainCursor Pipeline::run_epoch_partial(int epoch, index_t stop_round) {
  check(stop_round >= 0, "run_epoch_partial: stop_round must be >= 0");
  TrainCursor cursor;
  cursor.epoch = epoch;
  StagedPipeline(*this).run_range(epoch, stop_round, &cursor);
  return cursor;
}

EpochStats Pipeline::run_epoch_resumed(const TrainCursor& cursor) {
  TrainCursor resumed = cursor;
  return StagedPipeline(*this).run_range(cursor.epoch, -1, &resumed);
}

double Pipeline::evaluate(const std::vector<index_t>& idx,
                          const std::vector<index_t>& eval_fanouts,
                          index_t eval_batch_size) {
  check(eval_fanouts.size() == cfg_.fanouts.size(),
        "evaluate: eval fanout depth must match the model");
  const SamplerConfig sc{eval_fanouts, derive_seed(cfg_.seed, 0xe1a1)};
  const auto sampler = make_sampler(cfg_.sampler, ds_.graph, sc);
  index_t correct = 0;
  const auto total = static_cast<index_t>(idx.size());
  index_t batch_id = 0;
  for (index_t start = 0; start < total; start += eval_batch_size, ++batch_id) {
    const index_t stop = std::min<index_t>(total, start + eval_batch_size);
    std::vector<index_t> batch(idx.begin() + start, idx.begin() + stop);
    const MinibatchSample sample = sampler->sample_one(batch, batch_id, 0xfeed);
    const auto& input = sample.input_vertices();
    DenseF h(static_cast<index_t>(input.size()), ds_.feature_dim());
    for (std::size_t i = 0; i < input.size(); ++i) {
      std::copy(ds_.features.row(input[i]), ds_.features.row(input[i]) + ds_.feature_dim(),
                h.row(static_cast<index_t>(i)));
    }
    const DenseF logits = model_.forward(sample, h, nullptr);
    for (index_t i = 0; i < logits.rows(); ++i) {
      const float* row = logits.row(i);
      index_t arg = 0;
      for (index_t j = 1; j < logits.cols(); ++j) {
        if (row[j] > row[arg]) arg = j;
      }
      if (static_cast<int>(arg) ==
          ds_.labels[static_cast<std::size_t>(batch[static_cast<std::size_t>(i)])]) {
        ++correct;
      }
    }
  }
  return total > 0 ? static_cast<double>(correct) / static_cast<double>(total) : 0.0;
}

std::size_t Pipeline::per_rank_bytes(int rank) const {
  if (cfg_.mode == DistMode::kDisaggregated) {
    // Sampler ranks hold only their adjacency block rows; trainer ranks a
    // model replica, their feature block, and the cache — the memory
    // asymmetry the mode exists to exploit (freed adjacency memory funds a
    // higher trainer replication factor or a larger cache).
    if (rank < disagg_.samplers) {
      return partitioned_->dist_adjacency().block_bytes(
          disagg_.sampler_grid.row_of(rank));
    }
    const int local = rank - disagg_.samplers;
    return model_.param_bytes() +
           features_.block_bytes(disagg_.trainer_grid.row_of(local)) +
           features_.cache_bytes();
  }
  const ProcessGrid& grid = cluster_.grid();
  std::size_t bytes = model_.param_bytes();
  bytes += features_.block_bytes(grid.row_of(rank));
  bytes += features_.cache_bytes();
  if (partitioned_ != nullptr) {
    bytes += partitioned_->dist_adjacency().block_bytes(grid.row_of(rank));
  } else {
    bytes += ds_.graph.adjacency().bytes();
  }
  return bytes;
}

}  // namespace dms
