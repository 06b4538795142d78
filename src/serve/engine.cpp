#include "serve/engine.hpp"

#include <algorithm>
#include <utility>

#include "common/timer.hpp"
#include "common/workspace.hpp"
#include "nn/model.hpp"
#include "plan/optimize.hpp"

namespace dms {

/// The rank a serving replica plays against the feature store's block
/// layout: remote rows classify through this rank's cache.
constexpr int kServeRank = 0;
/// warmup() rounds over its seed sets before freezing the arena.
constexpr int kWarmupRounds = 2;

ServeEngine::ServeEngine(const Graph& graph, FeatureStore& features,
                         const SageModel& model, ServeEngineConfig config,
                         const ProcessGrid* grid, Cluster* cluster)
    : graph_(graph), features_(features), model_(model), cfg_(std::move(config)) {
  check(!cfg_.fanouts.empty(), "ServeEngine: fanouts must be non-empty");
  check(static_cast<index_t>(cfg_.fanouts.size()) == model.config().num_layers,
        "ServeEngine: fanout count " + std::to_string(cfg_.fanouts.size()) +
            " does not match the model's " +
            std::to_string(model.config().num_layers) + " layers");
  check(model.config().in_dim == features.dim(),
        "ServeEngine: model in_dim " + std::to_string(model.config().in_dim) +
            " does not match the feature store's dim " +
            std::to_string(features.dim()));
  SamplerContext ctx;
  ctx.config = SamplerConfig{cfg_.fanouts, cfg_.sampler_seed};
  ctx.grid = grid;
  ctx.part_opts = cfg_.part_opts;
  ctx.cluster = cluster;
  const std::uint64_t hits_before = PlanCache::global().stats().hits;
  sampler_ = make_sampler(cfg_.sampler, cfg_.mode, graph, ctx);
  plan_cache_hit_ = PlanCache::global().stats().hits > hits_before;
  check(sampler_->scratch_workspace() != nullptr,
        "ServeEngine: sampler exposes no scratch arena (steady-state serving "
        "requires a plan-backed sampler)");
}

ServeBatchResult ServeEngine::serve(const CoalescedBatch& batch) {
  check(!batch.empty(), "ServeEngine::serve: empty coalesced batch");
  const std::size_t n = batch.size();
  batch_seeds_.resize(n);
  batch_ids_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ServeRequest& r = batch.requests[i];
    check(!r.seeds.empty(), "ServeEngine::serve: request " +
                                std::to_string(r.id) + " has no seed vertices");
    check(r.arrival <= batch.formed_at + 1e-12,
          "ServeEngine::serve: request " + std::to_string(r.id) +
              " arrives after the batch formed");
    batch_seeds_[i].assign(r.seeds.begin(), r.seeds.end());
    batch_ids_[i] = r.id;
  }

  ServeBatchResult res;
  res.timing.requests = n;

  // (1) One stacked-frontier bulk plan execution covers every request.
  Timer ts;
  const std::vector<MinibatchSample> samples =
      sampler_->sample_bulk(batch_seeds_, batch_ids_, cfg_.serve_seed);
  res.timing.sampling = ts.seconds();

  // (2)+(3) Per request: gather input features through the store's cache,
  // forward, demux. The gather buffer is engine-owned and reused.
  res.logits.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Timer tf;
    features_.gather_rows(kServeRank, samples[i].input_vertices(), &h_input_);
    res.timing.fetch += tf.seconds();
    Timer ti;
    res.logits.push_back(model_.forward(samples[i], h_input_, nullptr));
    res.timing.inference += ti.seconds();
  }

  if (warmed_) {
    sampler_->scratch_workspace()->check_steady("ServeEngine::serve");
  }

  std::vector<RequestRecord> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    records[i].request_id = batch.requests[i].id;
    records[i].batch_size = n;
    records[i].queue_wait =
        std::max(0.0, batch.formed_at - batch.requests[i].arrival);
    records[i].service = res.timing.service();
  }
  stats_.record(res.timing, records);
  return res;
}

DenseF ServeEngine::serve_one(const ServeRequest& request) {
  CoalescedBatch single;
  single.requests.push_back(request);
  single.formed_at = request.arrival;
  ServeBatchResult res = serve(single);
  return std::move(res.logits.front());
}

void ServeEngine::warmup(const std::vector<std::vector<index_t>>& seed_sets) {
  check(!seed_sets.empty(), "ServeEngine::warmup: seed sets required");
  Workspace* ws = sampler_->scratch_workspace();
  ws->thaw();
  warmed_ = false;
  // Warmup requests replay the representative seed sets as one coalesced
  // batch per round, growing every scratch buffer (plan executor, SpGEMM
  // engine, ITS, gather buffer) to the workload's high-water mark.
  for (int round = 0; round < kWarmupRounds; ++round) {
    CoalescedBatch batch;
    for (std::size_t i = 0; i < seed_sets.size(); ++i) {
      ServeRequest r;
      // Ids outside the live request space keep warmup reproducible without
      // colliding with traffic; randomness still varies per round.
      r.id = static_cast<index_t>(i + seed_sets.size() * static_cast<std::size_t>(round));
      r.seeds = seed_sets[i];
      batch.requests.push_back(std::move(r));
    }
    serve(batch);
  }
  freeze();
  stats_.reset();  // warmup traffic is not part of the serving run
}

void ServeEngine::freeze() {
  sampler_->scratch_workspace()->freeze();
  warmed_ = true;
}

}  // namespace dms
