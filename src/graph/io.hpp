// Dataset files, plus Matrix Market export.
//
// Generating the Table 3 stand-ins takes seconds, but real deployments load
// preprocessed graphs from disk (DistDGL/Quiver both ship partitioned
// binary formats); this module provides the equivalent so examples and
// downstream users can persist datasets between runs. The binary format
// ("DMSD") is written and read through common/binio, whose reader bounds
// every length by the bytes left in the file.
#pragma once

#include <string>

#include "graph/dataset.hpp"
#include "sparse/csr.hpp"

namespace dms {

/// Writes a full dataset (graph, features, labels, splits; magic "DMSD").
void save_dataset(const Dataset& ds, const std::string& path);

/// Reads a dataset written by save_dataset; throws DmsError on malformed
/// input (invalid graph, out-of-range labels or split vertices, ...).
Dataset load_dataset(const std::string& path);

/// Exports the sparsity pattern in MatrixMarket coordinate format for
/// inspection with external tools.
void write_matrix_market(const CsrMatrix& m, const std::string& path);

}  // namespace dms
