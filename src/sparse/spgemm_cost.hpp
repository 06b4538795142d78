// Kernel-choice cost model for the adaptive SpGEMM engine (DESIGN.md §5).
// The symbolic phase knows each row block's exact Gustavson FLOP count
// before any numeric work runs; the model turns that estimate plus the
// output width into a dense-vs-hash decision:
//
//   cost(dense) = dense_col_cost · out_cols + dense_flop_cost · flops
//   cost(hash)  =                             hash_flop_cost  · flops
//
// The O(out_cols) term is the dense accumulator's workspace initialization /
// scan; the hash kernel pays a constant-factor per-flop overhead (open-
// addressing probes plus the per-row sort). The defaults reproduce the
// engine's historical hard-coded threshold exactly (dense iff
// 4·flops >= out_cols); the engine's kAuto dispatch uses the default model
// (spgemm_pick_kernel).
//
// Kernel choice never affects results: every kernel obeys the engine's
// bit-identity contract, so any cost model is a pure speed knob.
#pragma once

#include "common/types.hpp"

namespace dms {

/// Kernel selector. kAuto lets the symbolic-phase estimator pick per block.
enum class SpgemmKernel { kAuto, kDense, kHash, kMasked };

struct SpgemmCostModel {
  /// Per output column: dense accumulator init + result scan.
  double dense_col_cost = 1.0;
  /// Per multiply-add in the dense kernel (direct-indexed accumulate).
  double dense_flop_cost = 1.0;
  /// Per multiply-add in the hash kernel (probe + per-row sort overhead).
  double hash_flop_cost = 5.0;

  /// Kernel for a row block performing `block_flops` multiply-adds into
  /// `out_cols` output columns: whichever modeled cost is lower (ties go
  /// dense, matching the historical `4·flops >= cols` boundary).
  SpgemmKernel pick(nnz_t block_flops, index_t out_cols) const {
    const double flops = static_cast<double>(block_flops);
    const double dense =
        dense_col_cost * static_cast<double>(out_cols) + dense_flop_cost * flops;
    const double hash = hash_flop_cost * flops;
    return dense <= hash ? SpgemmKernel::kDense : SpgemmKernel::kHash;
  }
};

}  // namespace dms
