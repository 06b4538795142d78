#include "walk/walk_engine.hpp"

#include "common/rng.hpp"

namespace dms {

WalkEngine::WalkEngine(const AdjacencyDraw& draw) : draw_(draw) {
  check(draw.adjacency().rows() == draw.adjacency().cols(),
        "WalkEngine: adjacency not square");
}

index_t WalkEngine::next_vertex(index_t v, index_t prev, std::uint64_t seed,
                                const PlanOp& walk,
                                std::vector<value_t>& raw) const {
  const CsrMatrix& adj = draw_.adjacency();
  const auto cols = adj.row_cols(v);
  index_t k = -1;
  if (prev < 0) {
    k = draw_.pick(v, seed);
  } else {
    // Second-order pick: bias each candidate, then replicate the normalize
    // + single-draw float ops over the biased values.
    const auto vals = adj.row_vals(v);
    const auto prev_row = adj.row_cols(prev);
    raw.resize(cols.size());
    for (std::size_t i = 0; i < cols.size(); ++i) {
      raw[i] = vals[i] * node2vec_bias_factor(cols[i], prev, prev_row,
                                              walk.bias_p, walk.bias_q);
    }
    k = its_pick_weighted(raw, seed);
  }
  // k < 0: a sink or a row without mass, and the walk terminates.
  return k < 0 ? -1 : cols[static_cast<std::size_t>(k)];
}

void WalkEngine::run(std::vector<std::vector<index_t>>& walkers,
                     std::vector<std::vector<index_t>>& visited,
                     std::vector<std::vector<index_t>>* prev,
                     const std::vector<index_t>& batch_ids, index_t first_batch,
                     std::uint64_t epoch_seed, const PlanOp& walk,
                     Workspace& ws, std::uint64_t* steps) const {
  check(walkers.size() == visited.size(), "WalkEngine: walker/visited mismatch");
  const bool biased = prev != nullptr;
  WalkScratch& sc = ws.walk_scratch();
  const std::size_t nb = walkers.size();

  // Flatten the per-batch walker lists into batch-grouped flat state.
  // prev = -1: no previous step yet, so the first round of a biased plan
  // draws unbiased — the matrix path's empty prev lists.
  sc.cur.clear();
  sc.bof.clear();
  sc.prev.clear();
  for (std::size_t b = 0; b < nb; ++b) {
    for (const index_t v : walkers[b]) {
      sc.cur.push_back(v);
      sc.bof.push_back(static_cast<index_t>(b));
      sc.prev.push_back(-1);
    }
  }
  std::size_t live = sc.cur.size();

  for (index_t round = 0; round < walk.walk_length && live > 0; ++round) {
    const std::uint64_t round_term =
        static_cast<std::uint64_t>(round) + walk.seed.layer_salt;
    // Per-batch walker offsets: the ITS local-row seed term is the walker's
    // position within its batch's stack (walkers stay batch-grouped).
    sc.off.assign(nb + 1, 0);
    for (std::size_t w = 0; w < live; ++w) {
      ++sc.off[static_cast<std::size_t>(sc.bof[w]) + 1];
    }
    for (std::size_t b = 0; b < nb; ++b) sc.off[b + 1] += sc.off[b];

    // Advance every walker in walker order and compact the survivors in
    // place (write index j <= read index w): visited appends match the
    // matrix path's per-batch row order exactly.
    std::size_t j = 0;
    for (std::size_t w = 0; w < live; ++w) {
      const index_t v = sc.cur[w];
      const auto b = static_cast<std::size_t>(sc.bof[w]);
      const auto bid = static_cast<std::uint64_t>(
          batch_ids[static_cast<std::size_t>(first_batch) + b]);
      const auto lrow = static_cast<std::uint64_t>(
          static_cast<index_t>(w) - sc.off[b]);
      const index_t next =
          next_vertex(v, biased ? sc.prev[w] : -1,
                      derive_seed(epoch_seed, bid, round_term, lrow), walk,
                      sc.raw);
      if (next < 0) continue;
      visited[b].push_back(next);
      ++*steps;
      sc.cur[j] = next;
      sc.prev[j] = v;
      sc.bof[j] = sc.bof[w];
      ++j;
    }
    live = j;
  }

  // Write the surviving walkers (and their previous vertices) back to the
  // plan's per-batch lists.
  for (std::size_t b = 0; b < nb; ++b) {
    walkers[b].clear();
    if (prev != nullptr) (*prev)[b].clear();
  }
  for (std::size_t w = 0; w < live; ++w) {
    const auto b = static_cast<std::size_t>(sc.bof[w]);
    walkers[b].push_back(sc.cur[w]);
    if (prev != nullptr) (*prev)[b].push_back(sc.prev[w]);
  }
}

}  // namespace dms
