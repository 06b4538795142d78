// Shared helpers for the test suite: random sparse matrices, dense
// reference implementations, the kind × mode sweep, and the EpochStats
// accounting invariants.
#pragma once

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "train/pipeline.hpp"

namespace dms::testutil {

/// Every (SamplerKind, DistMode) combination make_sampler builds, kind-major.
inline std::vector<std::pair<SamplerKind, DistMode>> every_kind_and_mode() {
  std::vector<std::pair<SamplerKind, DistMode>> out;
  for (const SamplerKind kind : kSamplerKinds) {
    for (const DistMode mode : kDistModes) out.emplace_back(kind, mode);
  }
  return out;
}

/// Checks the clock-composition invariants every epoch must satisfy
/// (DESIGN.md §6): all phases non-negative; the total is the max-composition
/// of the phase times (sum of every recorded phase minus the overlapped
/// credit); the credit never exceeds the prefetchable work; and when the
/// staged executor ran overlapped, every prefetchable second is accounted
/// exactly once as hidden (overlap_saved) or exposed (stall).
inline void expect_epoch_stats_consistent(const EpochStats& s) {
  EXPECT_GE(s.sampling, 0.0);
  EXPECT_GE(s.fetch, 0.0);
  EXPECT_GE(s.propagation, 0.0);
  EXPECT_GE(s.overlap_saved, 0.0);
  EXPECT_GE(s.stall, 0.0);
  for (const auto& [phase, sec] : s.compute_phases) {
    EXPECT_GE(sec, 0.0) << "compute phase " << phase;
  }
  for (const auto& [phase, sec] : s.comm_phases) {
    EXPECT_GE(sec, 0.0) << "comm phase " << phase;
  }
  double phase_sum = 0.0;
  for (const auto& [phase, sec] : s.compute_phases) phase_sum += sec;
  for (const auto& [phase, sec] : s.comm_phases) phase_sum += sec;
  const double tol = 1e-12 + 1e-6 * phase_sum;
  EXPECT_NEAR(s.total, phase_sum - s.overlap_saved, tol);
  EXPECT_LE(s.overlap_saved, s.sampling + s.fetch + tol);
  if (s.overlap_saved > 0.0 || s.stall > 0.0) {
    EXPECT_NEAR(s.overlap_saved + s.stall, s.sampling + s.fetch, tol);
  }
}

/// Random sparse matrix with expected density `density` and values in (0,1].
inline CsrMatrix random_csr(index_t rows, index_t cols, double density,
                            std::uint64_t seed) {
  CooMatrix coo(rows, cols);
  Pcg32 rng(seed, 0x7e57);
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) {
      if (rng.uniform() < density) coo.push(r, c, rng.uniform() + 1e-3);
    }
  }
  return CsrMatrix::from_coo(coo);
}

/// Random 0/1 pattern matrix.
inline CsrMatrix random_pattern(index_t rows, index_t cols, double density,
                                std::uint64_t seed) {
  CsrMatrix m = random_csr(rows, cols, density, seed);
  for (auto& v : m.mutable_vals()) v = 1.0;
  return m;
}

/// The 6-vertex example graph of the paper's Figure 1 (symmetric). It is
/// consistent with both worked examples in §4: for batch {1, 5},
/// GraphSAGE's P is [[⅓,0,⅓,0,⅓,0],[0,0,0,½,½,0]] (N(1)={0,2,4},
/// N(5)={3,4}) and LADIES' probability vector is [1/7,0,1/7,1/7,4/7,0].
inline CsrMatrix paper_example_adjacency() {
  return CsrMatrix::from_triplets(
      6, 6,
      {0, 1, 1, 1, 2, 3, 3, 4, 4, 4, 5, 5},
      {1, 0, 2, 4, 1, 4, 5, 1, 3, 5, 3, 4},
      std::vector<value_t>(12, 1.0));
}

/// Dense reference multiply.
inline DenseD dense_matmul(const DenseD& a, const DenseD& b) {
  DenseD c(a.rows(), b.cols());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t k = 0; k < a.cols(); ++k) {
      const double av = a(i, k);
      if (av == 0.0) continue;
      for (index_t j = 0; j < b.cols(); ++j) c(i, j) += av * b(k, j);
    }
  }
  return c;
}

}  // namespace dms::testutil
