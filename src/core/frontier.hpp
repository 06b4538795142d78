// Frontier construction: converts per-row sampled vertex lists into a
// LayerSample whose column space is [row vertices..., new samples...]
// (see sampler.hpp for the convention).
#pragma once

#include <span>
#include <vector>

#include "core/sampler.hpp"

namespace dms {

/// Builds one LayerSample from the sampled columns of a CSR slice: row i
/// (vertex row_vertices[i]) sampled the global ids
/// sampled[rowptr[i] .. rowptr[i+1]) — rowptr has one entry per row plus
/// one and may start past 0 (a slice of a larger matrix's rowptr). Entries
/// are relabeled in stored order, so the first sighting of a vertex fixes
/// its frontier column (rows lead; duplicates across rows merge into one
/// column); each row's local ids are then sorted, a vertex sampled twice
/// for one row giving one edge.
LayerSample build_layer_sample(const std::vector<index_t>& row_vertices,
                               std::span<const nnz_t> rowptr,
                               std::span<const index_t> sampled);

/// The stacked row construction of Eq. 1: per-batch vertex lists
/// concatenated, with offsets[b] = first stacked row of batch b. Shared by
/// the single-node and Graph Partitioned samplers so both execution modes
/// stack identically (part of the bit-identity determinism contract).
struct FrontierStack {
  std::vector<index_t> vertices;  ///< concatenated per-batch vertex ids
  std::vector<index_t> offsets;   ///< batches+1 block offsets
};

FrontierStack stack_frontiers(const std::vector<std::vector<index_t>>& frontiers);

}  // namespace dms
