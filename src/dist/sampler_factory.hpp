// Unified sampler construction: one factory surface over every sampling
// algorithm (SamplerKind) × execution mode (DistMode) combination.
//
// Call sites — the training pipeline, benches, and examples — ask for
// (kind, mode) and get a MatrixSampler: a PlanSampler running the kind's
// plan, or in the partitioned modes a PartitionedSamplerBase running the
// same plan as built. Partitioned samplers conform to the same interface
// (the determinism contract makes a partitioned run substitutable for a
// single-node one), and call sites that drive the distributed API directly
// downcast through as_partitioned(). Both distributed modes bind
// SamplerContext::cluster, so a sampler used through the MatrixSampler
// interface (a disaggregated ServeEngine included) records on the cluster
// its caller gave.
//
// The walk kinds share one walk-plan builder (plan/builders): kGraphSaint
// and kNode2Vec differ in the plan name and, only when WalkParams biases
// the walk (p ≠ 1 or q ≠ 1), in node2vec's kWalkBias op and prev slot — so
// the default p = q = 1 node2vec runs the first-order walk. kPinSage runs
// the GraphSAGE plan over a walk-derived importance graph (core/pinsage).
#pragma once

#include <array>
#include <memory>
#include <string>

#include "core/sampler.hpp"
#include "dist/disagg.hpp"
#include "dist/dist_sampler.hpp"

namespace dms {

enum class SamplerKind {
  kGraphSage,
  kLadies,
  kFastGcn,
  kLabor,
  kGraphSaint,
  kNode2Vec,
  kPinSage,
};
/// kDisaggregated: sampler/trainer rank roles (DESIGN.md §14). The factory
/// builds the algorithm's partitioned form over the *sampler sub-grid* of
/// make_disagg_layout(ctx.grid, ctx.disagg), so every plan op runs on the
/// sampler ranks, global ranks [0, s) of the cluster it records on; the
/// training pipeline runs the trainer role on the remaining ranks.
enum class DistMode { kReplicated, kPartitioned, kDisaggregated };

/// Every kind and every mode; make_sampler builds each combination.
inline constexpr std::array<SamplerKind, 7> kSamplerKinds = {
    SamplerKind::kGraphSage, SamplerKind::kLadies,     SamplerKind::kFastGcn,
    SamplerKind::kLabor,     SamplerKind::kGraphSaint, SamplerKind::kNode2Vec,
    SamplerKind::kPinSage};
inline constexpr std::array<DistMode, 3> kDistModes = {
    DistMode::kReplicated, DistMode::kPartitioned, DistMode::kDisaggregated};

std::string to_string(SamplerKind kind);
std::string to_string(DistMode mode);

/// Walk-sampler parameters threaded through the factory. Only the walk
/// kinds (kGraphSaint / kNode2Vec / kPinSage) read them; the walk samplers
/// take their model depth from SamplerConfig::num_layers() and their seed
/// from SamplerConfig::seed. kNode2Vec is second-order only when biased:
/// at the default p = q = 1 its plan is the first-order saint_rw walk
/// (build_node2vec_plan), so p or q must be set to bias it.
struct WalkParams {
  index_t walk_length = 2;  ///< rounds per random walk
  value_t p = 1.0;          ///< node2vec return parameter
  value_t q = 1.0;          ///< node2vec in-out parameter
};

/// Everything make_sampler may need beyond the graph.
struct SamplerContext {
  SamplerConfig config;
  /// Partitioned modes: the process grid to partition over (required). For
  /// kDisaggregated this is the *full* cluster grid; make_sampler derives the
  /// sampler sub-grid from it via make_disagg_layout(grid, disagg).
  const ProcessGrid* grid = nullptr;
  PartitionedSamplerOptions part_opts{};
  /// Optional long-lived cluster bound to the partitioned and disaggregated
  /// samplers so their MatrixSampler::sample_bulk records phases on it; it
  /// needs at least the sampler grid's ranks (the full grid's always do).
  Cluster* cluster = nullptr;
  /// Walk-sampler parameters (walk kinds only).
  WalkParams walk{};
  /// Sampler/trainer split (kDisaggregated only; defaults auto-split).
  DisaggOptions disagg{};
};

/// The single construction surface for every sampler in the system. Throws
/// DmsError for a missing grid in the partitioned modes and for invalid
/// fanouts (empty, or any entry <= 0; walk kinds read only the layer count).
std::unique_ptr<MatrixSampler> make_sampler(SamplerKind kind, DistMode mode,
                                            const Graph& graph,
                                            const SamplerContext& ctx);

/// Replicated (single-device) convenience overload.
std::unique_ptr<MatrixSampler> make_sampler(SamplerKind kind, const Graph& graph,
                                            const SamplerConfig& config);

/// Downcast for call sites that drive the distributed bulk API or need
/// per-rank memory accounting; throws DmsError if `sampler` is not a
/// partitioned sampler.
PartitionedSamplerBase& as_partitioned(MatrixSampler& sampler);

}  // namespace dms
