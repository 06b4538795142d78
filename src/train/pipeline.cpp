#include "train/pipeline.hpp"

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/minibatch.hpp"
#include "graph/partition.hpp"

namespace dms {

namespace {

/// Payload of one materialized minibatch crossing the sampler → trainer
/// boundary: batch ids plus every layer's sampled adjacency and its
/// row/column vertex maps — exactly what train_step consumes.
std::size_t sample_bytes(const MinibatchSample& s) {
  std::size_t b = s.batch_vertices.size() * sizeof(index_t);
  for (const LayerSample& l : s.layers) {
    b += l.adj.bytes();
    b += l.row_vertices.size() * sizeof(index_t);
    b += l.col_vertices.size() * sizeof(index_t);
  }
  return b;
}

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

/// The rank roles: kDisaggregated splits the grid into sampler and trainer
/// ranks; the colocated modes are the layout with no sampler ranks, in
/// which trainer j is rank j and trains slot j.
DisaggLayout layout_for(const PipelineConfig& cfg, const Cluster& cluster) {
  return cfg.mode == DistMode::kDisaggregated
             ? make_disagg_layout(cluster.grid(), cfg.disagg)
             : DisaggLayout{cluster.size(), 0, cluster.size(), {}, cluster.grid()};
}

FeatureStoreOptions feature_store_options(const PipelineConfig& cfg,
                                          const DisaggLayout& layout) {
  FeatureStoreOptions opts;
  opts.cache = cfg.feature_cache;
  // H lives on the trainer grid; translate its local ranks to the trainers'
  // global ids so the modeled all-to-allv classifies links by where the
  // trainers actually sit.
  opts.global_ranks.resize(static_cast<std::size_t>(layout.trainers));
  for (int j = 0; j < layout.trainers; ++j) {
    opts.global_ranks[static_cast<std::size_t>(j)] = layout.trainer_rank(j);
  }
  return opts;
}

}  // namespace

Pipeline::Pipeline(Cluster& cluster, const Dataset& dataset, PipelineConfig config)
    : cluster_(cluster),
      ds_(dataset),
      cfg_(std::move(config)),
      layout_(layout_for(cfg_, cluster)),
      features_(layout_.trainer_grid, dataset.features,
                feature_store_options(cfg_, layout_)),
      model_(make_model_config(dataset, cfg_)),
      optimizer_(cfg_.lr) {
  check(!cfg_.fanouts.empty(), "Pipeline: fanouts must be non-empty");
  check(cfg_.presample_rounds >= 1, "Pipeline: presample_rounds must be >= 1");
  SamplerContext ctx;
  ctx.config = SamplerConfig{cfg_.fanouts, cfg_.seed};
  ctx.grid = &cluster_.grid();
  ctx.part_opts = cfg_.part_opts;
  ctx.disagg = cfg_.disagg;
  sampler_ = make_sampler(cfg_.sampler, cfg_.mode, ds_.graph, ctx);
  if (cfg_.mode != DistMode::kReplicated) {
    partitioned_ = &as_partitioned(*sampler_);
  }
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

  // The warmup is one bulk round: placed as an epoch's batches are, then
  // sampled and billed as sample_round samples and bills a round. It has
  // no handoff, because it ships touch counts to the cache, not samples to
  // trainers. The first epoch's reset_clock wipes what it recorded here.
  schedule_.assign(static_cast<std::size_t>(cluster_.size()), {});
  assign_batches(ids, 0);
  const double before = clock();
  draw_round({0, static_cast<index_t>(schedule_.front().size())}, chunk, warmup_seed);
  warmup_cost_ = clock() - before;

  std::vector<std::uint64_t> counts(
      static_cast<std::size_t>(ds_.graph.num_vertices()), 0);
  for (const auto& row : schedule_) {
    for (const Cell& cell : row) {
      if (cell.batch < 0) continue;
      for (const index_t v : cell.sample.input_vertices()) {
        ++counts[static_cast<std::size_t>(v)];
      }
    }
  }
  schedule_.clear();
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
  TrainCursor cursor;
  cursor.epoch = epoch;
  return run_range(-1, cursor);
}

TrainCursor Pipeline::run_epoch_partial(int epoch, index_t stop_round) {
  check(stop_round >= 0, "run_epoch_partial: stop_round must be >= 0");
  TrainCursor cursor;
  cursor.epoch = epoch;
  run_range(stop_round, cursor);
  return cursor;
}

EpochStats Pipeline::run_epoch_resumed(const TrainCursor& cursor) {
  TrainCursor resumed = cursor;
  return run_range(-1, resumed);
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
    // Logit row i belongs to sample.batch_vertices[i]: the batch in order for
    // layer-wise kinds, the sorted induced set V_s ⊇ batch for walk kinds,
    // whose rows outside the batch are not scored.
    std::sort(batch.begin(), batch.end());
    for (index_t i = 0; i < logits.rows(); ++i) {
      const index_t v = sample.batch_vertices[static_cast<std::size_t>(i)];
      if (!std::binary_search(batch.begin(), batch.end(), v)) continue;
      const float* row = logits.row(i);
      index_t arg = 0;
      for (index_t j = 1; j < logits.cols(); ++j) {
        if (row[j] > row[arg]) arg = j;
      }
      if (static_cast<int>(arg) == ds_.labels[static_cast<std::size_t>(v)]) {
        ++correct;
      }
    }
  }
  return total > 0 ? static_cast<double>(correct) / static_cast<double>(total) : 0.0;
}

std::size_t Pipeline::per_rank_bytes(int rank) const {
  // Trainer ranks hold a model replica, their feature block and the cache;
  // sampling ranks hold the adjacency (their block row when partitioned).
  // Colocated, every rank is both; disaggregated trainers hold no adjacency,
  // the memory asymmetry that mode exists to exploit.
  std::size_t bytes = 0;
  const int j = rank - layout_.samplers;
  if (j >= 0) {
    bytes += model_.param_bytes() +
             features_.block_bytes(layout_.trainer_grid.row_of(j)) +
             features_.cache_bytes();
  }
  if (layout_.samplers == 0 || rank < layout_.samplers) {
    bytes += partitioned_ != nullptr
                 ? partitioned_->dist_adjacency().block_bytes(
                       partitioned_->grid().row_of(rank))
                 : ds_.graph.adjacency().bytes();
  }
  return bytes;
}

double Pipeline::clock() const {
  return cluster_.total_compute() + cluster_.total_comm();
}

void Pipeline::assign_batches(const std::vector<index_t>& ids, index_t boundary) {
  // The units a block of batches goes to: every alive rank on its own
  // (§5.1/§6.1; kDisaggregated's p slots carry this replicated placement,
  // the source of its loss bit-identity to kReplicated), or the keepers of
  // every alive process row (§5.2), which deal their block by the keeper
  // rule. With every rank alive this is BlockPartition(k, p), or rank
  // (i, m % c) at step m / c of row i's block.
  std::vector<std::vector<int>> units;
  if (cfg_.mode == DistMode::kPartitioned) {
    const ProcessGrid& grid = cluster_.grid();
    for (int i = 0; i < grid.rows(); ++i) {
      std::vector<int> keepers = row_keepers(cluster_, grid, i);
      if (!keepers.empty()) units.push_back(std::move(keepers));
    }
  } else {
    for (const int r : cluster_.alive_ranks()) units.push_back({r});
  }
  const auto n = static_cast<index_t>(ids.size());
  check(!units.empty() || n == 0,
        "Pipeline: every rank has crashed — cannot continue the epoch");

  index_t steps = boundary;
  for (auto& row : schedule_) row.resize(static_cast<std::size_t>(boundary));
  const BlockPartition bp(n, std::max<index_t>(1, static_cast<index_t>(units.size())));
  for (std::size_t a = 0; a < units.size(); ++a) {
    const std::vector<int>& ranks = units[a];
    const auto nc = static_cast<index_t>(ranks.size());
    const index_t lo = bp.begin(static_cast<index_t>(a));
    const index_t hi = bp.end(static_cast<index_t>(a));
    for (index_t m = lo; m < hi; ++m) {
      auto& row = schedule_[static_cast<std::size_t>(
          batch_keeper(ranks, static_cast<std::size_t>(m - lo)))];
      const auto step = static_cast<std::size_t>(boundary + (m - lo) / nc);
      if (row.size() <= step) row.resize(step + 1);
      row[step].batch = ids[static_cast<std::size_t>(m)];
    }
    steps = std::max(steps, boundary + ceil_div(hi - lo, nc));
  }
  for (auto& row : schedule_) row.resize(static_cast<std::size_t>(steps));
}

void Pipeline::recover_at_boundary(std::size_t g) {
  cluster_.begin_superstep();
  if (cluster_.num_alive() == alive_) return;
  // Crash recovery is not supported across disaggregated roles: a dead
  // sampler row loses adjacency blocks and a dead trainer its feature
  // block, and neither re-partitioning is implemented. Transient loss and
  // stragglers still apply (they never reach this path).
  check(layout_.samplers == 0,
        "Pipeline: rank crash in disaggregated mode — crash recovery "
        "requires a colocated (replicated/partitioned) pipeline");
  alive_ = cluster_.num_alive();

  // Degrade-and-continue: everything at or past this boundary is not yet
  // sampled (rounds train to completion before the next boundary), so the
  // whole remainder is re-assigned to the survivors in batch-id order and
  // the remaining rounds are re-planned — the sub-epoch re-partitioning of
  // plan_bulk_rounds. Sample content is placement-independent, so only the
  // schedule changes.
  const index_t boundary = g < rounds_.size()
                               ? rounds_[g].step_begin
                               : static_cast<index_t>(schedule_.front().size());
  std::vector<index_t> ids;
  for (const auto& row : schedule_) {
    for (auto t = static_cast<std::size_t>(boundary); t < row.size(); ++t) {
      if (row[t].batch >= 0) ids.push_back(row[t].batch);
    }
  }
  std::sort(ids.begin(), ids.end());
  assign_batches(ids, boundary);
  rounds_.resize(g);
  const auto steps = static_cast<index_t>(schedule_.front().size());
  for (const BulkRound& r : plan_bulk_rounds(steps - boundary, bulk_steps_)) {
    rounds_.push_back({boundary + r.step_begin, boundary + r.step_end});
  }
}

EpochStats Pipeline::run_range(index_t end_round, TrainCursor& cursor) {
  cluster_.reset_clock();
  if (pending_warmup_) {
    // The kPreSample warmup bills its one-time cost to the first trained
    // epoch as its own overhead phase: it reaches total_time() and the
    // breakdown, but stays outside `sampling`, so the overlap invariant
    // (overlap_saved + stall == sampling + fetch) is untouched.
    cluster_.add_overhead("warmup", warmup_cost_);
    pending_warmup_ = false;
  }
  const std::uint64_t epoch_seed =
      derive_seed(cfg_.seed, 0xe90c, static_cast<std::uint64_t>(cursor.epoch));
  const auto batches = make_epoch_batches(ds_.train_idx, cfg_.batch_size, epoch_seed);

  std::vector<index_t> all_ids(batches.size());
  std::iota(all_ids.begin(), all_ids.end(), index_t{0});
  schedule_.assign(static_cast<std::size_t>(cluster_.size()), {});
  assign_batches(all_ids, 0);
  alive_ = cluster_.num_alive();
  const auto steps = static_cast<index_t>(schedule_.front().size());

  // Bulk rounds: cfg.bulk_k minibatches across all ranks per round. With
  // k=all, the overlapped executor still slices the epoch into
  // prefetch_rounds rounds — a monolithic bulk would leave nothing to
  // double-buffer (the sync path keeps the single bulk of §6.1).
  check(cfg_.prefetch_rounds >= 1, "Pipeline: prefetch_rounds must be >= 1");
  bulk_steps_ = 0;
  if (cfg_.bulk_k > 0) {
    bulk_steps_ = std::max<index_t>(1, ceil_div(cfg_.bulk_k, std::max(1, alive_)));
  } else if (cfg_.overlap && cfg_.prefetch_rounds > 1 && steps > 0) {
    bulk_steps_ = std::max<index_t>(1, ceil_div(steps, cfg_.prefetch_rounds));
  }
  rounds_ = plan_bulk_rounds(steps, bulk_steps_);
  const auto begin_round = static_cast<std::size_t>(cursor.next_round);
  check(begin_round <= rounds_.size(),
        "Pipeline: cursor round past the epoch schedule");

  const FeatureCacheStats cache_before = features_.cache_stats();
  const FaultStats fault_before = cluster_.fault_stats();
  // Plan-op breakdown: the executor's table is cumulative, so diff the
  // epoch's delta below.
  const std::map<std::string, double> ops_before = sampler_->op_time_breakdown();
  double stall = 0.0;
  double prev_round_unhidden = 0.0;
  // Hoisted per-step fetch buffer, reused across the epoch (the samplers'
  // Workspace arenas cover the sampling-side scratch the same way).
  std::vector<DenseF> gathered;

  std::size_t g = begin_round;
  for (; g < rounds_.size(); ++g) {
    if (end_round >= 0 && static_cast<index_t>(g) >= end_round) break;
    // Every bulk-round boundary is a fault superstep: crashes land here,
    // and the remainder of the epoch re-partitions onto the survivors.
    recover_at_boundary(g);
    if (g >= rounds_.size()) break;  // re-plan can only shrink past the end

    const double s_cost = sample_round(rounds_[g], batches, epoch_seed);
    if (cfg_.overlap) {
      // Round g is sampled while round g-1 trains; round 0 is pipeline fill.
      const double hid =
          g == begin_round ? 0.0 : std::min(s_cost, prev_round_unhidden);
      cluster_.credit_overlap(hid);
      stall += s_cost - hid;
    }

    double round_unhidden = 0.0;
    double prev_prop = -1.0;  // <0: no propagation yet in this round
    for (index_t t = rounds_[g].step_begin; t < rounds_[g].step_end; ++t) {
      const double f_cost = fetch_step(t, gathered);
      const double p_cost = train_step(t, gathered, cursor);
      if (cfg_.overlap) {
        // The fetch for step t is issued during the propagation of step
        // t-1; the round's first fetch has no propagation to hide under.
        const double hid = prev_prop < 0.0 ? 0.0 : std::min(f_cost, prev_prop);
        cluster_.credit_overlap(hid);
        stall += f_cost - hid;
        round_unhidden += (f_cost - hid) + p_cost;
      }
      prev_prop = p_cost;
    }
    prev_round_unhidden = round_unhidden;
  }
  cursor.next_round = static_cast<index_t>(g);
  cursor.total_rounds = static_cast<index_t>(rounds_.size());

  EpochStats stats;
  // The sampler → trainer handoff is part of every disaggregated round's
  // cost (inside s_cost), so it belongs to the prefetchable `sampling` side
  // of the overlap invariant.
  stats.sampling = cluster_.phase_time(kPhaseSampling) +
                   cluster_.phase_time(kPhaseProbability) +
                   cluster_.phase_time(kPhaseExtraction) +
                   cluster_.phase_time("handoff");
  stats.warmup = cluster_.phase_time("warmup");
  stats.fetch = cluster_.phase_time("fetch");
  stats.propagation = cluster_.phase_time("propagation");
  stats.total = cluster_.total_time();
  if (cursor.seen > 0) {
    const auto seen = static_cast<double>(cursor.seen);
    stats.loss = cursor.loss_sum / seen;
    stats.train_acc = static_cast<double>(cursor.correct) / seen;
  }
  stats.overlap_saved = cluster_.overlap_credit();
  stats.stall = cfg_.overlap ? stall : 0.0;
  const FeatureCacheStats d = features_.cache_stats() - cache_before;
  stats.cache_hits = d.hits;
  stats.cache_misses = d.misses;
  stats.cache_local = d.local;
  stats.cache_pinned_hits = d.pinned_hits;
  stats.fetch_bytes = d.bytes_moved;
  stats.fetch_bytes_saved = d.bytes_saved;
  stats.compute_phases = cluster_.compute_time();
  for (const auto& [phase, s] : cluster_.comm_stats()) {
    stats.comm_phases[phase] = s.seconds;
  }
  for (const auto& [op, seconds] : sampler_->op_time_breakdown()) {
    const auto it = ops_before.find(op);
    stats.sampler_ops[op] = seconds - (it == ops_before.end() ? 0.0 : it->second);
  }
  const FaultStats fd = cluster_.fault_stats() - fault_before;
  stats.fault_straggler = fd.straggler_seconds;
  stats.fault_retry = fd.retry_seconds;
  stats.fault_redistribution = fd.redistribution_seconds;
  stats.retry_bytes = fd.retry_bytes;
  stats.retry_messages = fd.retry_messages;
  stats.crashed_ranks = fd.crashed_ranks;
  return stats;
}

double Pipeline::sample_round(const BulkRound& round,
                              const std::vector<std::vector<index_t>>& batches,
                              std::uint64_t epoch_seed) {
  const double before = clock();
  const auto made = draw_round(round, batches, epoch_seed);
  if (layout_.samplers > 0 && !made.empty()) {
    // Handoff: each sample streams from its keeper — the sampler replica
    // its row's collectives sent its results to — to the trainer of its
    // slot. A trainer receives its samples serially (sum of p2p times);
    // trainers receive concurrently (max). record_comm on the cluster means
    // transient-loss fault plans retry the handoff like any other modeled
    // message.
    std::vector<double> per_trainer(static_cast<std::size_t>(layout_.trainers), 0.0);
    std::size_t bytes = 0;
    std::size_t msgs = 0;
    for (std::size_t row = 0; row < made.size(); ++row) {
      const std::vector<int> keepers =
          row_keepers(cluster_, layout_.sampler_grid, static_cast<int>(row));
      for (std::size_t q = 0; q < made[row].size(); ++q) {
        const auto [r, t] = made[row][q];
        const int src = batch_keeper(keepers, q);
        const int tj = layout_.trainer_of_slot(r);
        const std::size_t b = sample_bytes(
            schedule_[static_cast<std::size_t>(r)][static_cast<std::size_t>(t)].sample);
        per_trainer[static_cast<std::size_t>(tj)] +=
            cluster_.cost_model().p2p(src, layout_.trainer_rank(tj), b);
        bytes += b;
        ++msgs;
      }
    }
    cluster_.record_comm("handoff",
                         *std::max_element(per_trainer.begin(), per_trainer.end()),
                         bytes, msgs);
  }
  return clock() - before;
}

std::vector<std::vector<std::pair<int, index_t>>> Pipeline::draw_round(
    const BulkRound& round, const std::vector<std::vector<index_t>>& batches,
    std::uint64_t epoch_seed) {
  const double launch_cost = cluster_.cost_model().link().launch_overhead *
                             kKernelsPerLayer *
                             static_cast<double>(cfg_.fanouts.size());
  // The batches to sample and the (rank, step) cells their samples go to,
  // in collection order. Which rank or row materializes a batch never
  // changes its content (randomness derives from global batch ids).
  std::vector<std::pair<int, index_t>> cells;
  std::vector<std::vector<index_t>> chunk;
  std::vector<index_t> ids;
  const auto collect = [&](int r, index_t t) {
    const index_t b =
        schedule_[static_cast<std::size_t>(r)][static_cast<std::size_t>(t)].batch;
    if (b < 0) return;
    cells.emplace_back(r, t);
    chunk.push_back(batches[static_cast<std::size_t>(b)]);
    ids.push_back(b);
  };
  const auto place = [&](std::size_t i, MinibatchSample& sample) {
    const auto [r, t] = cells[i];
    schedule_[static_cast<std::size_t>(r)][static_cast<std::size_t>(t)].sample =
        std::move(sample);
  };

  if (partitioned_ == nullptr) {
    // Each rank samples this round's slice of its batches with zero
    // communication; the round costs the max over ranks.
    double max_t = 0.0;
    for (int r = 0; r < cluster_.size(); ++r) {
      cells.clear();
      chunk.clear();
      ids.clear();
      for (index_t t = round.step_begin; t < round.step_end; ++t) collect(r, t);
      if (ids.empty()) continue;
      Timer timer;
      auto samples = sampler_->sample_bulk(chunk, ids, epoch_seed);
      for (std::size_t i = 0; i < samples.size(); ++i) place(i, samples[i]);
      max_t = std::max(max_t, timer.seconds());
    }
    cluster_.add_compute(kPhaseSampling, max_t);
    // Bulk sampling launches O(L) kernels per *round*, not per minibatch —
    // the amortization of §4.
    cluster_.add_overhead(kPhaseSampling, launch_cost);
    return {};
  }

  // The partitioned sampler block-assigns batches to the process rows of
  // its grid in collection order. Colocated, each row samples exactly the
  // batches its own replicas train, step by step in column order, so the
  // keeper of each is its trainer (assign_batches deals a row's block by
  // the same keeper rule). Disaggregated, the sampler rows split the
  // round's batches, taken in (step, slot) order — the logical schedule
  // that kReplicated trains — and the handoff ships each from its keeper.
  std::vector<index_t> row_batches;
  if (layout_.samplers == 0) {
    const ProcessGrid& grid = cluster_.grid();
    for (int i = 0; i < grid.rows(); ++i) {
      const std::size_t before = ids.size();
      for (index_t t = round.step_begin; t < round.step_end; ++t) {
        for (int j = 0; j < grid.replication(); ++j) collect(grid.rank_of(i, j), t);
      }
      row_batches.push_back(static_cast<index_t>(ids.size() - before));
    }
  } else {
    for (index_t t = round.step_begin; t < round.step_end; ++t) {
      for (int r = 0; r < cluster_.size(); ++r) collect(r, t);
    }
  }
  if (ids.empty()) return {};
  auto per_row = partitioned_->sample_bulk(cluster_, chunk, ids, epoch_seed, row_batches);
  cluster_.add_overhead(kPhaseSampling, launch_cost);
  // Concatenating the per-row results restores collection order.
  std::vector<std::vector<std::pair<int, index_t>>> made(per_row.size());
  std::size_t q = 0;
  for (std::size_t row = 0; row < per_row.size(); ++row) {
    for (MinibatchSample& sample : per_row[row]) {
      made[row].push_back(cells[q]);
      place(q++, sample);
    }
  }
  return made;
}

double Pipeline::fetch_step(index_t t, std::vector<DenseF>& gathered) {
  const double before = clock();
  const int p = cluster_.size();
  const int trainers = layout_.trainers;
  // A trainer executes its slots one after another, so step t's fetch runs
  // as ⌈p/trainers⌉ waves of the trainer-grid all-to-allv (one wave when
  // colocated), the wave at `first` covering slots [first, first +
  // trainers), one per trainer. Gathered matrices stay slot-indexed.
  gathered.resize(static_cast<std::size_t>(p));
  for (int first = 0; first < p; first += trainers) {
    const int width = std::min(trainers, p - first);
    std::vector<std::vector<index_t>> wanted(static_cast<std::size_t>(trainers));
    bool any = false;
    for (int j = 0; j < width; ++j) {
      const Cell& cell = schedule_[static_cast<std::size_t>(first + j)]
                                  [static_cast<std::size_t>(t)];
      if (cell.batch < 0) continue;
      wanted[static_cast<std::size_t>(j)] = cell.sample.input_vertices();
      any = true;
    }
    if (!any) continue;
    auto wave = features_.fetch_all(cluster_, wanted, "fetch");
    for (int j = 0; j < width; ++j) {
      gathered[static_cast<std::size_t>(first + j)] =
          std::move(wave[static_cast<std::size_t>(j)]);
    }
  }
  return clock() - before;
}

double Pipeline::train_step(index_t t, const std::vector<DenseF>& gathered,
                            TrainCursor& cursor) {
  const double before = clock();
  // Propagation: fwd/bwd per slot, then gradient all-reduce. The slot loop
  // (order, accumulation, averaging) is the same in every mode — that is
  // the disaggregated loss bit-identity. A trainer executes its slots
  // serially (sum) and trainers run concurrently (max over trainers).
  std::vector<double> trainer_prop(static_cast<std::size_t>(layout_.trainers), 0.0);
  int active = 0;
  for (int r = 0; r < cluster_.size(); ++r) {
    Cell& cell = schedule_[static_cast<std::size_t>(r)][static_cast<std::size_t>(t)];
    if (cell.batch < 0) continue;
    const MinibatchSample& sample = cell.sample;
    std::vector<int> labels(sample.batch_vertices.size());
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = ds_.labels[static_cast<std::size_t>(sample.batch_vertices[i])];
    }
    Timer timer;
    const LossResult res =
        model_.train_step(sample, gathered[static_cast<std::size_t>(r)], labels);
    trainer_prop[static_cast<std::size_t>(layout_.trainer_of_slot(r))] +=
        timer.seconds();
    cursor.loss_sum += res.loss * static_cast<double>(labels.size());
    cursor.correct += res.correct;
    cursor.seen += static_cast<index_t>(labels.size());
    ++active;
    cell.sample = MinibatchSample{};  // trained — release the round's memory
  }
  if (active == 0) return clock() - before;

  // Shared-model gradient accumulation across slots == all-reduce sum;
  // average and step once (identical to synchronous DDP). The alive trainer
  // ranks hold the model replicas and join the all-reduce.
  Timer timer;
  model_.scale_grads(1.0f / static_cast<float>(active));
  optimizer_.step(model_.params());
  model_.zero_grads();
  cluster_.add_compute(
      "propagation",
      *std::max_element(trainer_prop.begin(), trainer_prop.end()) + timer.seconds());
  std::vector<int> group;
  for (int j = 0; j < layout_.trainers; ++j) {
    if (cluster_.alive(layout_.trainer_rank(j))) group.push_back(layout_.trainer_rank(j));
  }
  if (group.size() > 1) {
    const std::size_t param_bytes = model_.param_bytes();
    cluster_.record_comm("propagation",
                         cluster_.cost_model().allreduce(group, param_bytes),
                         param_bytes * group.size(), 2 * (group.size() - 1));
  }
  return clock() - before;
}

}  // namespace dms
