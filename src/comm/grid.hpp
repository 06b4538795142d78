// 1.5D process grid (§5.2, §6): p ranks arranged as (p/c) rows × c columns.
//
// Block row i of a distributed matrix is replicated on the c ranks of
// process row P(i, :). Each process column P(:, j) therefore holds the
// entire matrix, which is what makes the feature all-to-allv column-local.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace dms {

class ProcessGrid {
 public:
  ProcessGrid() = default;

  /// p total ranks, replication factor c. Requires c divides p.
  ProcessGrid(int p, int c);

  int size() const { return p_; }
  int replication() const { return c_; }
  int rows() const { return p_ / c_; }  ///< p/c block rows

  /// Rank at grid position (row i, column j). Column-major layout: the
  /// p/c ranks of a process column are contiguous, so the bulky
  /// column-local traffic (feature all-to-allv of §6.2, A-row sends of
  /// Algorithm 2) stays on intra-node links as much as possible; the
  /// lighter row collectives (the 1.5D row exchange) span nodes.
  int rank_of(int i, int j) const { return j * rows() + i; }
  int row_of(int rank) const { return rank % rows(); }
  int col_of(int rank) const { return rank / rows(); }

  /// Ranks of process row P(i, :) — the c replicas of block row i.
  std::vector<int> row_ranks(int i) const;

  /// Ranks of process column P(:, j) — together hold the whole matrix.
  std::vector<int> col_ranks(int j) const;

  /// All ranks, 0..p-1.
  std::vector<int> all_ranks() const;

 private:
  int p_ = 1;
  int c_ = 1;
};

}  // namespace dms
