#include "sparse/spgemm_engine.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <span>
#include <vector>

#include "common/threadpool.hpp"

namespace dms {

namespace {

// ---------------------------------------------------------------------------
// Symbolic phase: per-row FLOP bounds and a flop-balanced block decomposition.
// All symbolic buffers live in the Workspace (a call-local one when the
// caller didn't supply an arena), so steady-state products allocate only
// their results.
// ---------------------------------------------------------------------------

/// prefix[r] = multiply-adds of rows [0, r). prefix.back() is the total.
/// Returns whether every row of A stores at most one entry (A is a
/// selection matrix), found in the same pass.
bool flop_prefix(const CsrMatrix& a, const CsrMatrix& b,
                 std::vector<nnz_t>& prefix) {
  prefix.assign(static_cast<std::size_t>(a.rows()) + 1, 0);
  bool selection = true;
  for (index_t r = 0; r < a.rows(); ++r) {
    const auto acols = a.row_cols(r);
    selection = selection && acols.size() <= 1;
    nnz_t f = 0;
    for (const index_t k : acols) f += b.row_nnz(k);
    prefix[static_cast<std::size_t>(r) + 1] = prefix[static_cast<std::size_t>(r)] + f;
  }
  return selection;
}

}  // namespace

/// Contiguous row-range boundaries with ~equal flops per block. Every block
/// is non-empty by construction, so no worker ever allocates workspace for
/// an empty range (the old ceil_div split could produce trailing empty
/// blocks when m was not a multiple of the thread count).
std::vector<index_t> work_balanced_bounds(const std::vector<nnz_t>& prefix,
                                          index_t m, index_t max_blocks) {
  std::vector<index_t> bounds{0};
  if (m == 0) {
    bounds.push_back(0);
    return bounds;
  }
  const nnz_t total = prefix[static_cast<std::size_t>(m)];
  const index_t nblocks = std::max<index_t>(1, std::min<index_t>(m, max_blocks));
  for (index_t i = 1; i < nblocks; ++i) {
    // First row whose flop prefix exceeds the i-th equal-share target.
    const nnz_t target = total / nblocks * i;
    const auto it = std::upper_bound(prefix.begin(), prefix.end(), target);
    const auto r = static_cast<index_t>(it - prefix.begin()) - 1;
    if (r > bounds.back() && r < m) bounds.push_back(r);
  }
  bounds.push_back(m);
  return bounds;
}

namespace {

// ---------------------------------------------------------------------------
// Numeric phase kernels. Both accumulators add each output entry's
// contributions in the order the A row traverses its B rows and emit sorted
// rows, so their results are bitwise interchangeable. Each accumulator
// borrows its buffers from the block's workspace slot and re-establishes the
// state it needs on construction, so slots can be reused across calls and
// kernels in any order.
// ---------------------------------------------------------------------------

/// Staged per-block output (stitched into the result CSR afterwards).
struct BlockOut {
  explicit BlockOut(WorkspaceSlot& s)
      : row_nnz(s.row_nnz), colidx(s.colidx), vals(s.vals) {
    colidx.clear();
    vals.clear();
  }
  std::vector<nnz_t>& row_nnz;
  std::vector<index_t>& colidx;
  std::vector<value_t>& vals;
};

/// Dense accumulator with generation marking: O(1) reset between rows.
/// Marks are re-initialized per block invocation (stale marks from a
/// previous product could collide with this product's row ids).
struct DenseAcc {
  DenseAcc(WorkspaceSlot& s, index_t cols)
      : mark(s.mark), acc(s.acc), touched(s.touched) {
    mark.assign(static_cast<std::size_t>(cols), -1);
    acc.resize(static_cast<std::size_t>(cols));
    touched.clear();
  }

  std::vector<index_t>& mark;  // last row id that touched this column
  std::vector<value_t>& acc;
  std::vector<index_t>& touched;  // columns touched by the current row
};

void dense_block(const CsrMatrix& a, const CsrMatrix& b, index_t r0, index_t r1,
                 WorkspaceSlot& slot) {
  DenseAcc ws(slot, b.cols());
  BlockOut out(slot);
  out.row_nnz.assign(static_cast<std::size_t>(r1 - r0), 0);
  for (index_t r = r0; r < r1; ++r) {
    ws.touched.clear();
    const auto acols = a.row_cols(r);
    const auto avals = a.row_vals(r);
    for (std::size_t i = 0; i < acols.size(); ++i) {
      const index_t k = acols[i];
      const value_t av = avals[i];
      const auto bcols = b.row_cols(k);
      const auto bvals = b.row_vals(k);
      for (std::size_t j = 0; j < bcols.size(); ++j) {
        const index_t c = bcols[j];
        if (ws.mark[static_cast<std::size_t>(c)] != r) {
          ws.mark[static_cast<std::size_t>(c)] = r;
          ws.acc[static_cast<std::size_t>(c)] = av * bvals[j];
          ws.touched.push_back(c);
        } else {
          ws.acc[static_cast<std::size_t>(c)] += av * bvals[j];
        }
      }
    }
    std::sort(ws.touched.begin(), ws.touched.end());
    out.row_nnz[static_cast<std::size_t>(r - r0)] =
        static_cast<nnz_t>(ws.touched.size());
    for (const index_t c : ws.touched) {
      out.colidx.push_back(c);
      out.vals.push_back(ws.acc[static_cast<std::size_t>(c)]);
    }
  }
}

/// Open-addressing accumulator for one output row (nsparse-style), on the
/// slot's dedicated hash buffers. Invariant across invocations: every key
/// slot is empty on entry and on exit (the destructor sweeps the last row's
/// fill), so reuse never pays a full table clear.
class HashRow {
 public:
  explicit HashRow(WorkspaceSlot& s)
      : keys_(s.hash_keys), vals_(s.hash_vals), used_(s.hash_used) {
    clear_used();
    mask_ = keys_.empty() ? 0 : keys_.size() - 1;
  }
  ~HashRow() { clear_used(); }

  void reset(std::size_t upper_bound_fill) {
    // Load factor 1/2, minimum 8 slots.
    std::size_t want = std::max<std::size_t>(8, std::bit_ceil(2 * upper_bound_fill + 1));
    if (want > keys_.size()) {
      keys_.assign(want, kEmpty);
      vals_.assign(want, 0.0);
    } else {
      clear_used();
      want = keys_.size();
    }
    mask_ = want - 1;
    used_.clear();
  }

  void add(index_t col, value_t v) {
    std::size_t slot = (static_cast<std::size_t>(col) * 0x9e3779b97f4a7c15ULL) & mask_;
    while (true) {
      if (keys_[slot] == kEmpty) {
        keys_[slot] = col;
        vals_[slot] = v;
        used_.push_back(static_cast<index_t>(slot));
        return;
      }
      if (keys_[slot] == col) {
        vals_[slot] += v;
        return;
      }
      slot = (slot + 1) & mask_;
    }
  }

  /// Emits (col, val) pairs sorted by column id.
  void emit(std::vector<index_t>* cols, std::vector<value_t>* vals) {
    std::sort(used_.begin(), used_.end(), [&](index_t a, index_t b) {
      return keys_[static_cast<std::size_t>(a)] < keys_[static_cast<std::size_t>(b)];
    });
    for (const index_t slot : used_) {
      cols->push_back(keys_[static_cast<std::size_t>(slot)]);
      vals->push_back(vals_[static_cast<std::size_t>(slot)]);
    }
  }

  std::size_t fill() const { return used_.size(); }

 private:
  void clear_used() {
    for (const index_t k : used_) {
      keys_[static_cast<std::size_t>(k)] = kEmpty;
    }
    used_.clear();
  }

  static constexpr index_t kEmpty = -1;
  std::vector<index_t>& keys_;
  std::vector<value_t>& vals_;
  std::vector<index_t>& used_;
  std::size_t mask_ = 0;
};

void hash_block(const CsrMatrix& a, const CsrMatrix& b, index_t r0, index_t r1,
                std::span<const nnz_t> prefix, WorkspaceSlot& slot) {
  HashRow acc(slot);
  BlockOut out(slot);
  out.row_nnz.assign(static_cast<std::size_t>(r1 - r0), 0);
  for (index_t r = r0; r < r1; ++r) {
    acc.reset(static_cast<std::size_t>(prefix[static_cast<std::size_t>(r) + 1] -
                                       prefix[static_cast<std::size_t>(r)]));
    const auto acols = a.row_cols(r);
    const auto avals = a.row_vals(r);
    for (std::size_t i = 0; i < acols.size(); ++i) {
      const index_t k = acols[i];
      const value_t av = avals[i];
      const auto bcols = b.row_cols(k);
      const auto bvals = b.row_vals(k);
      for (std::size_t j = 0; j < bcols.size(); ++j) {
        acc.add(bcols[j], av * bvals[j]);
      }
    }
    out.row_nnz[static_cast<std::size_t>(r - r0)] = static_cast<nnz_t>(acc.fill());
    acc.emit(&out.colidx, &out.vals);
  }
}

/// Feeds fn(mask_pos, row_index) for every column shared by the sorted row
/// and the sorted mask. Chooses between two-pointer merge and binary-search
/// galloping based on the length ratio, so the cost is O(min + log max)
/// rather than O(d) per row.
template <typename Fn>
void intersect_sorted(std::span<const index_t> cols,
                      const std::vector<index_t>& mask, Fn&& fn) {
  const std::size_t d = cols.size();
  const std::size_t s = mask.size();
  if (d == 0 || s == 0) return;
  if (s * 8 < d) {
    // Mask-driven: binary-search each masked column in the row.
    auto lo = cols.begin();
    for (std::size_t mi = 0; mi < s; ++mi) {
      lo = std::lower_bound(lo, cols.end(), mask[mi]);
      if (lo == cols.end()) return;
      if (*lo == mask[mi]) {
        fn(static_cast<index_t>(mi), static_cast<std::size_t>(lo - cols.begin()));
        ++lo;
      }
    }
    return;
  }
  if (d * 8 < s) {
    // Row-driven: binary-search each row column in the mask.
    auto lo = mask.begin();
    for (std::size_t j = 0; j < d; ++j) {
      lo = std::lower_bound(lo, mask.end(), cols[j]);
      if (lo == mask.end()) return;
      if (*lo == cols[j]) {
        fn(static_cast<index_t>(lo - mask.begin()), j);
        ++lo;
      }
    }
    return;
  }
  // Comparable lengths: linear two-pointer merge.
  std::size_t j = 0, mi = 0;
  while (j < d && mi < s) {
    if (cols[j] < mask[mi]) {
      ++j;
    } else if (cols[j] > mask[mi]) {
      ++mi;
    } else {
      fn(static_cast<index_t>(mi), j);
      ++j;
      ++mi;
    }
  }
}

/// About how many steps intersect_sorted takes for a d-entry row against
/// an s-entry mask: s or d binary searches, or the merge.
std::size_t intersect_steps(std::size_t d, std::size_t s) {
  if (d == 0 || s == 0) return 0;
  if (s * 8 < d) return s * static_cast<std::size_t>(std::bit_width(d));
  if (d * 8 < s) return d * static_cast<std::size_t>(std::bit_width(s));
  return d + s;
}

/// Dense column→mask-position lookup (-1 when unmasked) in the workspace's
/// shared buffer, which stays all -1 between calls: the table grows with -1
/// to `cols`, the mask's positions are set here and reset when the guard
/// goes out of scope, also by an exception. O(|mask|) per call; shared
/// read-only across all blocks.
struct MaskLookup {
  MaskLookup(const std::vector<index_t>& mask, index_t cols,
             std::vector<index_t>& pos)
      : mask(mask), pos(pos) {
    pos.resize(std::max(pos.size(), static_cast<std::size_t>(cols)), -1);
    for (std::size_t i = 0; i < mask.size(); ++i) {
      pos[static_cast<std::size_t>(mask[i])] = static_cast<index_t>(i);
    }
  }
  MaskLookup(const MaskLookup&) = delete;
  MaskLookup& operator=(const MaskLookup&) = delete;
  ~MaskLookup() {
    for (const index_t c : mask) pos[static_cast<std::size_t>(c)] = -1;
  }

  const std::vector<index_t>& mask;
  std::vector<index_t>& pos;
};

/// Stitches the per-block staged outputs into one CSR matrix.
CsrMatrix stitch(index_t m, index_t n, const std::vector<index_t>& bounds,
                 Workspace& ws) {
  std::vector<nnz_t> rowptr(static_cast<std::size_t>(m) + 1, 0);
  nnz_t total = 0;
  for (std::size_t blk = 0; blk + 1 < bounds.size(); ++blk) {
    const index_t r0 = bounds[blk];
    const WorkspaceSlot& slot = ws.slot(blk);
    for (std::size_t i = 0; i < slot.row_nnz.size(); ++i) {
      rowptr[static_cast<std::size_t>(r0) + i + 1] = slot.row_nnz[i];
    }
    total += static_cast<nnz_t>(slot.colidx.size());
  }
  for (index_t r = 0; r < m; ++r) {
    rowptr[static_cast<std::size_t>(r) + 1] += rowptr[static_cast<std::size_t>(r)];
  }

  std::vector<index_t> colidx(static_cast<std::size_t>(total));
  std::vector<value_t> vals(static_cast<std::size_t>(total));
  nnz_t cursor = 0;
  for (std::size_t blk = 0; blk + 1 < bounds.size(); ++blk) {
    const WorkspaceSlot& slot = ws.slot(blk);
    std::copy(slot.colidx.begin(), slot.colidx.end(),
              colidx.begin() + static_cast<std::ptrdiff_t>(cursor));
    std::copy(slot.vals.begin(), slot.vals.end(),
              vals.begin() + static_cast<std::ptrdiff_t>(cursor));
    cursor += static_cast<nnz_t>(slot.colidx.size());
  }
  return CsrMatrix(m, n, std::move(rowptr), std::move(colidx), std::move(vals));
}

/// Messages are built only on failure: this runs once per extraction, and
/// a string per mask entry would cost more than a small extraction itself.
void check_mask(const std::vector<index_t>& mask, index_t cols, const char* who) {
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i] < 0 || mask[i] >= cols) {
      throw DmsError(std::string(who) + ": mask column id out of range");
    }
    if (i > 0 && mask[i - 1] >= mask[i]) {
      throw DmsError(std::string(who) + ": mask must be sorted and duplicate-free");
    }
  }
}

/// Selection product (every A row stores at most one entry): output row r is
/// a(r,k)·B(k,:), so it is B's row k in B's sorted order, scaled. That is
/// exactly what the accumulating kernels store when every column is touched
/// once (av * bv, no addition), so the gather is bit-identical to them. The
/// flop prefix is the output rowptr (B rows are duplicate-free), and each
/// block writes its rows straight into the result — no accumulator, sort,
/// workspace slot or stitch.
void gather_block(const CsrMatrix& a, const CsrMatrix& b, index_t r0, index_t r1,
                  std::span<const nnz_t> rowptr, std::span<index_t> colidx,
                  std::span<value_t> vals) {
  for (index_t r = r0; r < r1; ++r) {
    const auto acols = a.row_cols(r);
    if (acols.empty()) continue;
    const value_t av = a.row_vals(r)[0];
    const auto bcols = b.row_cols(acols[0]);
    const auto bvals = b.row_vals(acols[0]);
    const auto dst = static_cast<std::size_t>(rowptr[static_cast<std::size_t>(r)]);
    std::copy(bcols.begin(), bcols.end(), colidx.begin() + static_cast<std::ptrdiff_t>(dst));
    for (std::size_t j = 0; j < bvals.size(); ++j) vals[dst + j] = av * bvals[j];
  }
}

/// Runs body(blk) for every block, in parallel when there is more than one.
template <typename Fn>
void for_blocks(const std::vector<index_t>& bounds, Fn&& body) {
  const auto nblocks = static_cast<index_t>(bounds.size()) - 1;
  if (nblocks <= 1) {
    if (nblocks == 1) body(0);
    return;
  }
  ThreadPool::global().parallel_for(nblocks, body);
}

}  // namespace

SpgemmKernel spgemm_pick_kernel(nnz_t block_flops, index_t out_cols) {
  return 4 * block_flops >= out_cols ? SpgemmKernel::kDense : SpgemmKernel::kHash;
}

CsrMatrix spgemm(const CsrMatrix& a, const CsrMatrix& b, const SpgemmOptions& opts) {
  check(a.cols() == b.rows(), "spgemm: inner dimension mismatch");
  const index_t m = a.rows();
  const index_t n = b.cols();

  Workspace local_ws;
  Workspace& ws = opts.workspace != nullptr ? *opts.workspace : local_ws;

  // Symbolic phase: row FLOP bounds, flop-balanced blocks, per-block kernel.
  std::vector<nnz_t>& prefix = ws.shared_prefix();
  const bool selection = flop_prefix(a, b, prefix);
  const index_t max_blocks = opts.parallel ? ThreadPool::global().size() : 1;
  const std::vector<index_t> bounds = work_balanced_bounds(prefix, m, max_blocks);

  if (selection && opts.kernel == SpgemmKernel::kAuto) {
    // The prefix is the output rowptr: size the result once and let every
    // block gather its own rows into it.
    std::vector<nnz_t> rowptr(prefix);  // the workspace keeps its buffer
    const auto nnz = static_cast<std::size_t>(rowptr.back());
    std::vector<index_t> colidx(nnz);
    std::vector<value_t> vals(nnz);
    for_blocks(bounds, [&](index_t blk) {
      gather_block(a, b, bounds[static_cast<std::size_t>(blk)],
                   bounds[static_cast<std::size_t>(blk) + 1], rowptr, colidx, vals);
    });
    return CsrMatrix(m, n, std::move(rowptr), std::move(colidx), std::move(vals));
  }
  ws.ensure_slots(bounds.size() - 1);

  // Numeric phase.
  for_blocks(bounds, [&](index_t blk) {
    const index_t r0 = bounds[static_cast<std::size_t>(blk)];
    const index_t r1 = bounds[static_cast<std::size_t>(blk) + 1];
    WorkspaceSlot& slot = ws.slot(static_cast<std::size_t>(blk));
    const nnz_t block_flops = prefix[static_cast<std::size_t>(r1)] -
                              prefix[static_cast<std::size_t>(r0)];
    if (block_flops == 0) {
      // All rows in the range are structurally empty: no workspace needed.
      BlockOut out(slot);
      out.row_nnz.assign(static_cast<std::size_t>(r1 - r0), 0);
      return;
    }
    SpgemmKernel kernel = opts.kernel;
    if (kernel == SpgemmKernel::kAuto) kernel = spgemm_pick_kernel(block_flops, n);
    if (kernel == SpgemmKernel::kHash) {
      hash_block(a, b, r0, r1, prefix, slot);
    } else {
      dense_block(a, b, r0, r1, slot);
    }
  });
  return stitch(m, n, bounds, ws);
}

CsrMatrix spgemm_masked(const CsrMatrix& a, std::span<const index_t> rows,
                        const std::vector<index_t>& mask, const SpgemmOptions& opts) {
  check_mask(mask, a.cols(), "spgemm_masked");
  const auto m = static_cast<index_t>(rows.size());

  Workspace local_ws;
  Workspace& ws = opts.workspace != nullptr ? *opts.workspace : local_ws;

  // Symbolic phase: one unit of work per entry of each listed row.
  std::vector<nnz_t>& prefix = ws.shared_prefix();
  prefix.assign(rows.size() + 1, 0);
  std::size_t intersect_cost = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    check(rows[i] >= 0 && rows[i] < a.rows(), "spgemm_masked: row id out of range");
    const nnz_t d = a.row_nnz(rows[i]);
    prefix[i + 1] = prefix[i] + d;
    intersect_cost += intersect_steps(static_cast<std::size_t>(d), mask.size());
  }
  // A block must read enough entries to amortize a pool dispatch, so small
  // extractions (one batch's rows in one owner block, §3.2) run inline. On
  // a 4-vCPU host a dispatch cost about as much as reading 10K entries
  // inline: a 10.7K-entry call took 0.025 ms inline and 0.050 ms in 3 blocks.
  constexpr nnz_t kMinBlockEntries = 16384;
  const index_t max_blocks =
      opts.parallel ? std::min<index_t>(ThreadPool::global().size(),
                                        1 + prefix.back() / kMinBlockEntries)
                    : 1;
  const std::vector<index_t> bounds = work_balanced_bounds(prefix, m, max_blocks);
  ws.ensure_slots(bounds.size() - 1);

  // The path with fewer steps: the column→position table probes once per
  // entry and sets and resets the mask's slots; the sorted intersection
  // re-reads the mask per row, or binary-searches the longer side. Both
  // visit a row's kept entries in column order, so this is a pure speed
  // knob. Timed per call, this picks the faster path on nearly every call
  // of the owner-block extractions (few rows, small mask, hub rows), the
  // replicated LADIES/FastGCN extractions at s = 32 and 512, and node2vec's
  // induced subgraphs.
  std::optional<MaskLookup> table;
  if (!mask.empty() &&
      intersect_cost >= static_cast<std::size_t>(prefix.back()) + 2 * mask.size()) {
    table.emplace(mask, a.cols(), ws.shared_lookup());
  }

  for_blocks(bounds, [&](index_t blk) {
    const index_t i0 = bounds[static_cast<std::size_t>(blk)];
    const index_t i1 = bounds[static_cast<std::size_t>(blk) + 1];
    BlockOut out(ws.slot(static_cast<std::size_t>(blk)));
    out.row_nnz.assign(static_cast<std::size_t>(i1 - i0), 0);
    for (index_t i = i0; i < i1; ++i) {
      const index_t r = rows[static_cast<std::size_t>(i)];
      const auto acols = a.row_cols(r);
      const auto avals = a.row_vals(r);
      const std::size_t first = out.colidx.size();
      // Row columns are sorted and unique, so the extraction needs no
      // accumulator: values pass through and positions emerge ascending.
      const auto keep = [&](index_t pos, std::size_t j) {
        out.colidx.push_back(pos);
        out.vals.push_back(avals[j]);
      };
      if (table) {
        for (std::size_t j = 0; j < acols.size(); ++j) {
          const index_t pos = table->pos[static_cast<std::size_t>(acols[j])];
          if (pos >= 0) keep(pos, j);
        }
      } else {
        intersect_sorted(acols, mask, keep);
      }
      out.row_nnz[static_cast<std::size_t>(i - i0)] =
          static_cast<nnz_t>(out.colidx.size() - first);
    }
  });

  return stitch(m, static_cast<index_t>(mask.size()), bounds, ws);
}

nnz_t spgemm_flops(const CsrMatrix& a, const CsrMatrix& b) {
  check(a.cols() == b.rows(), "spgemm_flops: inner dimension mismatch");
  nnz_t flops = 0;
  for (index_t r = 0; r < a.rows(); ++r) {
    for (const index_t k : a.row_cols(r)) flops += b.row_nnz(k);
  }
  return flops;
}

}  // namespace dms
