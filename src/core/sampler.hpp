// Sampler framework types (Algorithm 1): the output structures shared by
// every matrix-based sampler, and the abstract sampler interface.
//
// A sampled minibatch is a chain of bipartite sampled adjacency matrices
// A^L ... A^1 (paper notation: layer L holds the batch vertices, layer 1 the
// vertices furthest from the batch). Our layers[] vector stores them in
// sampling order: layers[0] is the layer-L adjacency (batch rows), and
// layers.back() is the furthest layer whose columns index the input-feature
// frontier.
//
// Frontier convention: the column space of each layer's adjacency is
// [row vertices..., newly sampled vertices...] — row vertices are included
// so a GraphSAGE-style model can read its "self" embedding from the same
// frontier (the standard src-includes-dst convention). The pure paper
// extraction — keep only the nonzero columns, i.e. nonzero_columns then
// extract_columns from sparse/ops — is exercised by tests; training needs
// the self-inclusive form.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sparse/csr.hpp"

namespace dms {

class Workspace;

/// One sampled layer of one minibatch.
struct LayerSample {
  /// Bipartite adjacency: rows are this layer's output vertices, columns are
  /// indexed against `col_vertices` (the next frontier). 0/1 values.
  CsrMatrix adj;
  /// Global vertex id of each row.
  std::vector<index_t> row_vertices;
  /// Global vertex id of each column (frontier; row vertices lead).
  std::vector<index_t> col_vertices;
};

/// A fully sampled minibatch: the list of per-layer adjacencies.
struct MinibatchSample {
  std::vector<index_t> batch_vertices;  ///< the layer-L seed vertices
  std::vector<LayerSample> layers;      ///< [0]=layer L ... [L-1]=layer 1

  /// Global vertex ids whose input features are needed (the last frontier).
  /// Throws DmsError if no layers have been sampled yet.
  const std::vector<index_t>& input_vertices() const {
    if (layers.empty()) {
      throw DmsError("MinibatchSample::input_vertices: no sampled layers");
    }
    return layers.back().col_vertices;
  }
  index_t num_layers() const { return static_cast<index_t>(layers.size()); }
};

/// Hyperparameters shared by all samplers.
struct SamplerConfig {
  /// Per-layer sample counts, sampling order (first entry = layer L).
  /// GraphSAGE: fanout per vertex. LADIES/FastGCN: vertices per layer.
  std::vector<index_t> fanouts;
  std::uint64_t seed = 1;

  index_t num_layers() const { return static_cast<index_t>(fanouts.size()); }
};

/// Abstract matrix-based bulk sampler (the paper's §4 framework).
///
/// sample_bulk() samples k minibatches at once using stacked matrices
/// (Eq. 1); implementations perform Algorithm 1 on the stacked Q/P/A
/// matrices. Randomness is derived per (batch id, layer, row) so results are
/// independent of k and of the process count.
class MatrixSampler {
 public:
  virtual ~MatrixSampler() = default;

  /// Samples the given minibatches (each a list of batch vertex ids) in one
  /// bulk pass. epoch_seed distinguishes epochs; batch ids are the global
  /// minibatch indices (for stream derivation).
  virtual std::vector<MinibatchSample> sample_bulk(
      const std::vector<std::vector<index_t>>& batches,
      const std::vector<index_t>& batch_ids, std::uint64_t epoch_seed) const = 0;

  /// Single-minibatch convenience wrapper (bulk of size 1).
  MinibatchSample sample_one(const std::vector<index_t>& batch, index_t batch_id,
                             std::uint64_t epoch_seed) const {
    return sample_bulk({batch}, {batch_id}, epoch_seed).front();
  }

  virtual const SamplerConfig& config() const = 0;

  /// Cumulative per-op wall-clock breakdown of the sampler's plan, keyed
  /// "<plan>/<op label>" (DESIGN.md §9 accounting contract). PlanSampler
  /// reports the table of its PlanRunState; the default is empty. The
  /// staged pipeline diffs this across an epoch into
  /// EpochStats::sampler_ops.
  virtual std::map<std::string, double> op_time_breakdown() const { return {}; }

  /// The sampler's private scratch arena, when it owns one (PlanSampler's
  /// lives in its PlanRunState). The serve engine (DESIGN.md §10) warms it
  /// on representative requests and then freezes it, making steady-state
  /// request handling allocation-free. nullptr = no reusable arena.
  virtual Workspace* scratch_workspace() const { return nullptr; }
};

}  // namespace dms
