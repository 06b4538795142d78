#include "dist/sampler_factory.hpp"

#include <algorithm>
#include <utility>

#include "core/pinsage.hpp"
#include "plan/builders.hpp"

namespace dms {

std::string to_string(SamplerKind kind) {
  switch (kind) {
    case SamplerKind::kGraphSage:
      return "graphsage";
    case SamplerKind::kLadies:
      return "ladies";
    case SamplerKind::kFastGcn:
      return "fastgcn";
    case SamplerKind::kLabor:
      return "labor";
    case SamplerKind::kGraphSaint:
      return "graphsaint";
    case SamplerKind::kNode2Vec:
      return "node2vec";
    case SamplerKind::kPinSage:
      return "pinsage";
  }
  return "unknown";
}

std::string to_string(DistMode mode) {
  switch (mode) {
    case DistMode::kReplicated:
      return "replicated";
    case DistMode::kPartitioned:
      return "partitioned";
    case DistMode::kDisaggregated:
      return "disaggregated";
  }
  return "unknown";
}

namespace {

/// One row of the fixed kind table: the kind's plan, the SamplerConfig its
/// executor runs with, and — PinSAGE only — the graph the plan samples in
/// place of the input graph.
struct KindSpec {
  SamplePlan (*plan)(const SamplerContext&);
  SamplerConfig (*config)(const SamplerContext&);
  Graph (*sampled_graph)(const Graph&, const SamplerContext&) = nullptr;
};

SamplerConfig given_config(const SamplerContext& ctx) { return ctx.config; }

// Walk kinds read only the model depth from the fanouts (DESIGN.md §11).
index_t walk_layers(const SamplerContext& ctx) {
  return std::max<index_t>(1, ctx.config.num_layers());
}

SamplerConfig walk_config(const SamplerContext& ctx) {
  return walk_adapter_config(walk_layers(ctx), ctx.config.seed);
}

KindSpec kind_spec(SamplerKind kind) {
  switch (kind) {
    case SamplerKind::kGraphSage:
      return {[](const SamplerContext&) { return build_sage_plan(); },
              given_config};
    case SamplerKind::kLadies:
      return {[](const SamplerContext&) { return build_ladies_plan(); },
              given_config};
    case SamplerKind::kFastGcn:
      return {[](const SamplerContext&) { return build_fastgcn_plan(); },
              given_config};
    case SamplerKind::kLabor:
      return {[](const SamplerContext&) { return build_labor_plan(); },
              given_config};
    case SamplerKind::kGraphSaint:
      return {[](const SamplerContext& ctx) {
                return build_saint_plan(ctx.walk.walk_length, walk_layers(ctx));
              },
              walk_config};
    case SamplerKind::kNode2Vec:
      return {[](const SamplerContext& ctx) {
                return build_node2vec_plan(ctx.walk.walk_length, walk_layers(ctx),
                                           ctx.walk.p, ctx.walk.q);
              },
              walk_config};
    case SamplerKind::kPinSage:
      return {[](const SamplerContext&) { return build_pinsage_plan(); },
              given_config, [](const Graph& graph, const SamplerContext& ctx) {
                return pinsage_importance_graph(
                    graph, {ctx.walk.walk_length, ctx.config.seed});
              }};
  }
  throw DmsError("make_sampler: unknown SamplerKind");
}

/// Constructs `Sampler` over the owned graph when there is one, else over
/// the borrowed input graph.
template <typename Sampler, typename... Args>
std::unique_ptr<Sampler> construct(const Graph& graph,
                                   std::unique_ptr<const Graph> owned,
                                   Args&&... args) {
  if (owned != nullptr) {
    return std::make_unique<Sampler>(std::move(owned), std::forward<Args>(args)...);
  }
  return std::make_unique<Sampler>(graph, std::forward<Args>(args)...);
}

}  // namespace

std::unique_ptr<MatrixSampler> make_sampler(SamplerKind kind, DistMode mode,
                                            const Graph& graph,
                                            const SamplerContext& ctx) {
  ProcessGrid grid;  // partitioned modes only
  if (mode != DistMode::kReplicated) {
    check(ctx.grid != nullptr, "make_sampler: " + to_string(mode) + " " +
                                   to_string(kind) +
                                   " requires SamplerContext::grid");
    // kDisaggregated: the sampling side of the sampler/trainer split
    // (DESIGN.md §14) is the partitioned form over the sampler sub-grid.
    grid = mode == DistMode::kDisaggregated
               ? make_disagg_layout(*ctx.grid, ctx.disagg).sampler_grid
               : *ctx.grid;
  }
  const KindSpec spec = kind_spec(kind);
  SamplePlan plan = spec.plan(ctx);
  SamplerConfig config = spec.config(ctx);
  std::unique_ptr<const Graph> owned;
  if (spec.sampled_graph != nullptr) {
    owned = std::make_unique<const Graph>(spec.sampled_graph(graph, ctx));
  }
  if (mode == DistMode::kReplicated) {
    return construct<PlanSampler>(graph, std::move(owned), std::move(plan),
                                  std::move(config));
  }
  auto sampler = construct<PartitionedSamplerBase>(
      graph, std::move(owned), grid, std::move(plan), std::move(config),
      ctx.part_opts);
  sampler->bind_cluster(ctx.cluster);
  return sampler;
}

std::unique_ptr<MatrixSampler> make_sampler(SamplerKind kind, const Graph& graph,
                                            const SamplerConfig& config) {
  SamplerContext ctx;
  ctx.config = config;
  return make_sampler(kind, DistMode::kReplicated, graph, ctx);
}

PartitionedSamplerBase& as_partitioned(MatrixSampler& sampler) {
  auto* part = dynamic_cast<PartitionedSamplerBase*>(&sampler);
  check(part != nullptr, "as_partitioned: sampler is not a partitioned sampler");
  return *part;
}

}  // namespace dms
