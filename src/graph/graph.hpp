// Graph wrapper over a square CSR adjacency matrix plus degree statistics.
//
// Convention (matching the paper): A(i, j) = 1 iff edge i→j exists; row i of
// A is the out-neighborhood of vertex i, which is what Qˡ·A aggregates.
#pragma once

#include <string>

#include "sparse/csr.hpp"

namespace dms {

class Graph {
 public:
  Graph() = default;

  /// Takes a square 0/1 adjacency matrix. Throws if it is not square or
  /// breaks a CsrMatrix invariant (e.g. a row whose columns are unsorted).
  explicit Graph(CsrMatrix adjacency);

  index_t num_vertices() const { return adj_.rows(); }
  nnz_t num_edges() const { return adj_.nnz(); }

  const CsrMatrix& adjacency() const { return adj_; }

  index_t out_degree(index_t v) const { return adj_.row_nnz(v); }

  double avg_degree() const {
    return num_vertices() == 0
               ? 0.0
               : static_cast<double>(num_edges()) / static_cast<double>(num_vertices());
  }

  index_t max_degree() const;

  /// Human-readable one-line summary (vertices / edges / avg degree).
  std::string summary(const std::string& name = "graph") const;

 private:
  CsrMatrix adj_;
};

}  // namespace dms
