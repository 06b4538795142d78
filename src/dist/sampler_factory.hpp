// Unified sampler construction: one factory surface over every sampling
// algorithm (SamplerKind) × execution mode (DistMode) combination.
//
// Call sites — the training pipeline, benches, and examples — ask for
// (kind, mode) and get a MatrixSampler: a PlanSampler running the kind's
// plan, or in the partitioned modes a PartitionedSamplerBase running the
// same plan as built. Partitioned samplers conform to the same interface
// (the determinism contract makes a partitioned run substitutable for a
// single-node one), and call sites that drive the distributed API directly
// downcast through as_partitioned().
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
/// sampler ranks; the training pipeline runs the trainer role on the
/// remaining ranks.
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
/// from SamplerConfig::seed.
struct WalkParams {
  index_t walk_length = 2;     ///< rounds per random walk
  value_t p = 1.0;             ///< node2vec return parameter
  value_t q = 1.0;             ///< node2vec in-out parameter
  index_t pinsage_walks = 16;  ///< simulated walks per vertex (kPinSage)
  index_t pinsage_top = 8;     ///< importance neighbors kept per vertex
};

/// Everything make_sampler may need beyond the graph.
struct SamplerContext {
  SamplerConfig config;
  /// Partitioned modes: the process grid to partition over (required). For
  /// kDisaggregated this is the *full* cluster grid; make_sampler derives the
  /// sampler sub-grid from it via make_disagg_layout(grid, disagg).
  const ProcessGrid* grid = nullptr;
  PartitionedSamplerOptions part_opts;
  /// Optional long-lived cluster bound to partitioned samplers so their
  /// MatrixSampler::sample_bulk records phases on it. Ignored by
  /// kDisaggregated (the bound cluster's grid must match the sampler's
  /// sub-grid — the pipeline binds its sampler-role sub-cluster after
  /// construction instead).
  Cluster* cluster = nullptr;
  /// Walk-sampler parameters (walk kinds only).
  WalkParams walk;
  /// Sampler/trainer split (kDisaggregated only; defaults auto-split).
  DisaggOptions disagg;
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
