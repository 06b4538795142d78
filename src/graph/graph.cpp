#include "graph/graph.hpp"

#include <algorithm>
#include <sstream>

namespace dms {

Graph::Graph(CsrMatrix adjacency) : adj_(std::move(adjacency)) {
  check(adj_.rows() == adj_.cols(), "Graph: adjacency matrix must be square");
  // Every kernel reads rows as sorted, duplicate-free column lists (the
  // masked intersection and the selection gather rely on it), so a matrix
  // that breaks the CSR invariants fails here, where it enters.
  adj_.validate();
}

index_t Graph::max_degree() const {
  index_t m = 0;
  for (index_t v = 0; v < num_vertices(); ++v) m = std::max(m, out_degree(v));
  return m;
}

std::string Graph::summary(const std::string& name) const {
  std::ostringstream os;
  os << name << ": |V|=" << num_vertices() << " |E|=" << num_edges()
     << " avg_deg=" << avg_degree() << " max_deg=" << max_degree();
  return os.str();
}

}  // namespace dms
