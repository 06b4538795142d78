#include "core/its.hpp"

#include <algorithm>
#include <bit>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "sparse/spgemm_engine.hpp"

namespace dms {

namespace {

/// Draws one index from a prefix-sum distribution via binary search. `pre`
/// is prefix[1..m] (the running sums after each entry; prefix[0] = 0 is
/// implicit): returns the i with prefix[i] <= u < prefix[i+1], clamped to
/// m - 1 when u rounds up to the total.
index_t draw(std::span<const value_t> pre, Pcg32& rng) {
  const value_t u = static_cast<value_t>(rng.uniform()) * pre.back();
  const auto i = static_cast<index_t>(std::upper_bound(pre.begin(), pre.end(), u) -
                                      pre.begin());
  return std::min<index_t>(i, static_cast<index_t>(pre.size()) - 1);
}

/// The one without-replacement ITS draw, over pre = prefix[1..m] (the
/// running sums after each entry; prefix[0] = 0 is implicit). Draws until s
/// distinct indices are picked, redrawing duplicates as §4.1.2 describes;
/// the 64·s+64 attempt cap guards pathological weight skew, and a
/// deterministic sweep over the unpicked positive-mass entries completes the
/// sample in that case. Rows with m ≤ s take every positive-mass entry
/// without a draw. The picks are kept in a sorted list, so a row costs
/// O(s log m) for the draws plus O(s²) element shifts for the inserts, not
/// an O(m) flag array; the O(m) sweep runs only when the cap is exhausted.
/// `picks` ends ascending.
void draw_distinct(std::span<const value_t> pre, index_t s, std::uint64_t seed,
                   std::vector<index_t>& picks) {
  picks.clear();
  const auto m = static_cast<index_t>(pre.size());
  if (m == 0 || pre.back() <= 0.0) return;
  const auto has_mass = [&](index_t i) {
    return pre[static_cast<std::size_t>(i)] >
           (i == 0 ? 0.0 : pre[static_cast<std::size_t>(i) - 1]);
  };
  if (m <= s) {
    for (index_t i = 0; i < m; ++i) {
      if (has_mass(i)) picks.push_back(i);
    }
    return;
  }
  Pcg32 rng(seed, 0x175);
  const index_t max_attempts = 64 * s + 64;
  for (index_t attempt = 0;
       attempt < max_attempts && static_cast<index_t>(picks.size()) < s; ++attempt) {
    const index_t idx = draw(pre, rng);
    const auto it = std::lower_bound(picks.begin(), picks.end(), idx);
    if (it == picks.end() || *it != idx) picks.insert(it, idx);
  }
  const std::size_t drawn = picks.size();
  std::size_t j = 0;
  for (index_t i = 0; i < m && static_cast<index_t>(picks.size()) < s; ++i) {
    if (j < drawn && picks[j] == i) {
      ++j;
    } else if (has_mass(i)) {
      picks.push_back(i);
    }
  }
  std::inplace_merge(picks.begin(), picks.begin() + static_cast<std::ptrdiff_t>(drawn),
                     picks.end());
}

/// A row's values as the matrix path's ITS prefix build sees them after
/// normalization: normalize_rows' sum and scale (a row summing to zero
/// stays unscaled), then its_sample_rows' max(v, 0).
struct RowNormalizer {
  explicit RowNormalizer(std::span<const value_t> w) {
    for (const value_t x : w) sum += x;
    if (sum != 0.0) inv = 1.0 / sum;
  }
  value_t operator()(value_t x) const {
    return std::max(sum != 0.0 ? x * inv : x, 0.0);
  }
  value_t sum = 0.0;
  value_t inv = 1.0;
};

/// The two-pass count-then-fill skeleton shared by the row samplers. Rows
/// are split into contiguous blocks of ~equal `work` (a per-row work prefix,
/// size rows+1). Pass 1 runs sample_row(r, slot) on each block's rows; it
/// leaves row r's picked positions in slot.touched and returns the row's
/// columns, and the picked columns are staged in slot.colidx. A serial
/// prefix sum lays out the rowptr, and pass 2 copies each block's staged
/// columns to its final offset. Per-row seeds make the result independent
/// of the decomposition.
template <typename SampleRow>
CsrMatrix count_then_fill(index_t rows, index_t cols, const std::vector<nnz_t>& work,
                          Workspace& ws, SampleRow&& sample_row) {
  const std::vector<index_t> bounds =
      work_balanced_bounds(work, rows, ThreadPool::global().size());
  const auto nblocks = static_cast<index_t>(bounds.size()) - 1;
  ws.ensure_slots(static_cast<std::size_t>(nblocks));
  const auto for_blocks = [nblocks](const auto& body) {
    if (nblocks <= 1) {
      if (nblocks == 1) body(0);
    } else {
      ThreadPool::global().parallel_for(nblocks, body);
    }
  };

  std::vector<nnz_t> rowptr(static_cast<std::size_t>(rows) + 1, 0);
  for_blocks([&](index_t blk) {
    WorkspaceSlot& slot = ws.slot(static_cast<std::size_t>(blk));
    slot.colidx.clear();
    for (index_t r = bounds[static_cast<std::size_t>(blk)];
         r < bounds[static_cast<std::size_t>(blk) + 1]; ++r) {
      const std::span<const index_t> rcols = sample_row(r, slot);
      for (const index_t local : slot.touched) {
        slot.colidx.push_back(rcols[static_cast<std::size_t>(local)]);
      }
      rowptr[static_cast<std::size_t>(r) + 1] = static_cast<nnz_t>(slot.touched.size());
    }
  });

  for (index_t r = 0; r < rows; ++r) {
    rowptr[static_cast<std::size_t>(r) + 1] += rowptr[static_cast<std::size_t>(r)];
  }
  const nnz_t total = rowptr[static_cast<std::size_t>(rows)];

  std::vector<index_t> colidx(static_cast<std::size_t>(total));
  std::vector<value_t> vals(static_cast<std::size_t>(total), 1.0);
  for_blocks([&](index_t blk) {
    const WorkspaceSlot& slot = ws.slot(static_cast<std::size_t>(blk));
    const nnz_t dst = rowptr[static_cast<std::size_t>(
        bounds[static_cast<std::size_t>(blk)])];
    std::copy(slot.colidx.begin(), slot.colidx.end(),
              colidx.begin() + static_cast<std::ptrdiff_t>(dst));
  });

  return CsrMatrix(rows, cols, std::move(rowptr), std::move(colidx), std::move(vals));
}

}  // namespace

void its_sample_one(const std::vector<value_t>& prefix, index_t s,
                    std::uint64_t seed, std::vector<index_t>* out) {
  if (prefix.empty()) {
    out->clear();
    return;
  }
  draw_distinct(std::span(prefix).subspan(1), s, seed, *out);
}

CsrMatrix its_sample_rows(const CsrMatrix& p, index_t s, const RowSeedFn& row_seed,
                          Workspace* ws_opt) {
  check(s >= 0, "its_sample_rows: negative s");
  Workspace local;
  Workspace& ws = ws_opt != nullptr ? *ws_opt : local;

  // A row's sampling cost is dominated by its O(row nnz) prefix build, and
  // a CSR rowptr is exactly that work prefix. Scratch per block: prefix sum
  // in slot.vals, picked locals in slot.touched.
  return count_then_fill(p.rows(), p.cols(), p.rowptr(), ws,
                         [&](index_t r, WorkspaceSlot& slot) {
    const auto rvals = p.row_vals(r);
    slot.vals.clear();
    slot.vals.push_back(0.0);
    for (const value_t v : rvals) {
      slot.vals.push_back(slot.vals.back() + std::max(v, 0.0));
    }
    its_sample_one(slot.vals, s, row_seed(r), &slot.touched);
    return p.row_cols(r);
  });
}

CsrMatrix its_sample_rows(const CsrMatrix& p, index_t s, std::uint64_t seed,
                          Workspace* ws) {
  return its_sample_rows(
      p, s,
      [seed](index_t row) { return derive_seed(seed, static_cast<std::uint64_t>(row)); },
      ws);
}

index_t its_pick_weighted(std::span<const value_t> w, std::uint64_t seed) {
  const RowNormalizer normalized(w);
  value_t total = 0.0;
  for (const value_t x : w) total += normalized(x);
  if (total <= 0.0) return -1;
  if (w.size() == 1) return 0;
  Pcg32 rng(seed, 0x175);
  const value_t u = static_cast<value_t>(rng.uniform()) * total;
  value_t acc = 0.0;
  for (std::size_t k = 0; k < w.size(); ++k) {
    acc += normalized(w[k]);
    if (acc > u) return static_cast<index_t>(k);
  }
  return static_cast<index_t>(w.size()) - 1;
}

AdjacencyDraw::AdjacencyDraw(const CsrMatrix& adj)
    : adj_(adj),
      unit_weights_(std::all_of(adj.vals().begin(), adj.vals().end(),
                                [](value_t v) { return v == 1.0; })) {
  if (!unit_weights_) return;
  // offset_[d + 1] = d for every degree d present, then a prefix sum: the
  // table stores each distinct degree's run once.
  nnz_t max_deg = 0;
  for (index_t v = 0; v < adj.rows(); ++v) max_deg = std::max(max_deg, adj.row_nnz(v));
  offset_.assign(static_cast<std::size_t>(max_deg) + 2, 0);
  for (index_t v = 0; v < adj.rows(); ++v) {
    const nnz_t d = adj.row_nnz(v);
    offset_[static_cast<std::size_t>(d) + 1] = d;
  }
  for (std::size_t d = 0; d + 1 < offset_.size(); ++d) offset_[d + 1] += offset_[d];
  prefix_.resize(static_cast<std::size_t>(offset_.back()));
  for (nnz_t d = 1; d <= max_deg; ++d) {
    const auto begin = static_cast<std::size_t>(offset_[static_cast<std::size_t>(d)]);
    if (begin == static_cast<std::size_t>(offset_[static_cast<std::size_t>(d) + 1])) {
      continue;  // no row has this degree
    }
    // The matrix path's row: d values 1.0 sum to exactly d and scale to
    // 1.0 * (1.0 / d); the prefix adds that d times, rounding every time.
    const value_t inv = 1.0 / static_cast<value_t>(d);
    value_t acc = 0.0;
    for (nnz_t k = 0; k < d; ++k) {
      acc += inv;
      prefix_[begin + static_cast<std::size_t>(k)] = acc;
    }
  }
}

std::span<const value_t> AdjacencyDraw::unit_prefix(index_t d) const {
  return std::span<const value_t>(prefix_).subspan(
      static_cast<std::size_t>(offset_[static_cast<std::size_t>(d)]),
      static_cast<std::size_t>(d));
}

index_t AdjacencyDraw::pick(index_t v, std::uint64_t seed) const {
  if (!unit_weights_) return its_pick_weighted(adj_.row_vals(v), seed);
  const index_t d = adj_.row_nnz(v);
  if (d <= 1) return d - 1;  // a sink has no pick; degree 1 needs no draw
  Pcg32 rng(seed, 0x175);
  return draw(unit_prefix(d), rng);
}

CsrMatrix AdjacencyDraw::sample_rows(const std::vector<index_t>& vertices,
                                     index_t s, const RowSeedFn& row_seed,
                                     Workspace* ws_opt) const {
  check(s >= 0, "AdjacencyDraw::sample_rows: negative s");
  for (const index_t v : vertices) {
    check(v >= 0 && v < adj_.rows(), "AdjacencyDraw::sample_rows: vertex out of range");
  }
  Workspace local;
  Workspace& ws = ws_opt != nullptr ? *ws_opt : local;
  const auto rows = static_cast<index_t>(vertices.size());

  // Work per row, as draw_distinct costs it: a row of degree d ≤ s is taken
  // whole in O(d); a larger row costs s draws of O(log d) and O(s²) insert
  // shifts. A weighted row adds its O(d) prefix build.
  std::vector<nnz_t>& work = ws.shared_prefix();
  work.assign(static_cast<std::size_t>(rows) + 1, 0);
  for (index_t r = 0; r < rows; ++r) {
    const nnz_t d = adj_.row_nnz(vertices[static_cast<std::size_t>(r)]);
    const nnz_t picks =
        d <= s ? d : s * (std::bit_width(static_cast<std::uint64_t>(d)) + s);
    work[static_cast<std::size_t>(r) + 1] =
        work[static_cast<std::size_t>(r)] + 1 + picks + (unit_weights_ ? 0 : d);
  }

  // Scratch per block: picked positions in slot.touched, a weighted row's
  // prefix in slot.vals.
  return count_then_fill(rows, adj_.cols(), work, ws, [&](index_t r, WorkspaceSlot& slot) {
    const index_t v = vertices[static_cast<std::size_t>(r)];
    if (unit_weights_) {
      draw_distinct(unit_prefix(adj_.row_nnz(v)), s, row_seed(r), slot.touched);
    } else {
      const auto rvals = adj_.row_vals(v);
      const RowNormalizer normalized(rvals);
      slot.vals.clear();
      value_t acc = 0.0;
      for (const value_t x : rvals) {
        acc += normalized(x);
        slot.vals.push_back(acc);
      }
      draw_distinct(slot.vals, s, row_seed(r), slot.touched);
    }
    return adj_.row_cols(v);
  });
}

}  // namespace dms
