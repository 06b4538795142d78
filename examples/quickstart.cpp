// Quickstart: the paper's §4 worked example, live.
//
// Builds the 6-vertex graph of Figure 1, then runs the matrix-based
// GraphSAGE and LADIES samplers on the minibatch {1, 5} with s = 2,
// printing every intermediate matrix of Algorithm 1 (Q, P = NORM(QA),
// the ITS sample, and the extracted adjacency).
#include <cstdio>

#include "core/ladies.hpp"
#include "dist/sampler_factory.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm_engine.hpp"

using namespace dms;

namespace {

void print_matrix(const char* name, const CsrMatrix& m) {
  std::printf("%s (%lld x %lld):\n", name, static_cast<long long>(m.rows()),
              static_cast<long long>(m.cols()));
  const DenseD d = to_dense(m);
  for (index_t i = 0; i < d.rows(); ++i) {
    std::printf("  ");
    for (index_t j = 0; j < d.cols(); ++j) std::printf("%5.2f ", d(i, j));
    std::printf("\n");
  }
}

}  // namespace

int main() {
  // Figure 1's example graph: N(1) = {0,2,4}, N(5) = {3,4}.
  const Graph graph{CsrMatrix::from_triplets(
      6, 6,
      {0, 1, 1, 1, 2, 3, 3, 4, 4, 4, 5, 5},
      {1, 0, 2, 4, 1, 4, 5, 1, 3, 5, 3, 4},
      std::vector<value_t>(12, 1.0))};
  const std::vector<index_t> batch = {1, 5};

  std::printf("=== GraphSAGE, batch {1,5}, s=2 (Figure 2a) ===\n");
  const CsrMatrix q = CsrMatrix::one_nonzero_per_row(6, batch);
  print_matrix("Q^L", q);
  CsrMatrix p = spgemm(q, graph.adjacency());
  normalize_rows(p);
  print_matrix("P = NORM(Q^L A)", p);

  const auto sage = make_sampler(SamplerKind::kGraphSage, graph, {{2}, /*seed=*/1});
  const MinibatchSample sage_sample = sage->sample_one(batch, 0, /*epoch_seed=*/3);
  print_matrix("A^L_S (sampled adjacency, frontier columns)", sage_sample.layers[0].adj);
  std::printf("frontier vertices:");
  for (const index_t v : sage_sample.layers[0].col_vertices) {
    std::printf(" %lld", static_cast<long long>(v));
  }
  std::printf("\n\n=== LADIES, batch {1,5}, s=2 (Figure 2b) ===\n");

  const auto ladies = make_sampler(SamplerKind::kLadies, graph, {{2}, /*seed=*/1});
  const auto prob = ladies_probability_vector(graph, batch);
  std::printf("probability vector (paper: [1/7 0 1/7 1/7 4/7 0]):\n  ");
  for (const value_t v : prob) std::printf("%5.3f ", v);
  std::printf("\n");
  const MinibatchSample ladies_sample = ladies->sample_one(batch, 0, 3);
  print_matrix("A_S = Q_R A Q_C (frontier columns)", ladies_sample.layers[0].adj);
  std::printf("frontier vertices:");
  for (const index_t v : ladies_sample.layers[0].col_vertices) {
    std::printf(" %lld", static_cast<long long>(v));
  }
  std::printf("\n\nDone. See examples/train_node_classifier.cpp for end-to-end training.\n");
  return 0;
}
