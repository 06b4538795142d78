// 1.5D distributed SpGEMM (Algorithm 2) and masked extraction: agreement
// with the single-node product (bitwise for integer-valued products, within
// rounding otherwise) / spgemm_masked across grid shapes, plus
// sparsity-aware vs oblivious volume comparisons.
#include <gtest/gtest.h>

#include <algorithm>

#include "comm/faults.hpp"
#include "common/rng.hpp"
#include "dist/spgemm_15d.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm_engine.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

using testutil::random_csr;
using testutil::random_pattern;
using testutil::same_bits;

Cluster make_cluster(int p, int c) {
  return Cluster(ProcessGrid(p, c), CostModel(LinkParams{}));
}

/// Splits a global Q into per-process-row blocks.
std::vector<CsrMatrix> split_rows(const CsrMatrix& q, int parts) {
  BlockPartition part(q.rows(), parts);
  std::vector<CsrMatrix> blocks;
  for (index_t i = 0; i < parts; ++i) {
    blocks.push_back(row_slice(q, part.begin(i), part.end(i)));
  }
  return blocks;
}

struct GridParam {
  int p, c;
};

class Spgemm15dGridSweep : public ::testing::TestWithParam<GridParam> {};

TEST_P(Spgemm15dGridSweep, MatchesSingleNodeProduct) {
  const auto [p, c] = GetParam();
  const auto product_15d = [&](const CsrMatrix& q_global, const CsrMatrix& a_global) {
    Cluster cluster = make_cluster(p, c);
    const DistBlockRowMatrix a(cluster.grid(), a_global);
    return vstack(spgemm_15d(cluster, split_rows(q_global, cluster.grid().rows()), a));
  };
  // The fold adds each entry's per-block partial sums in ascending block
  // order, which is not the single-node product's one pass over the row:
  // with random_csr values some bits differ (DESIGN §3.2).
  const CsrMatrix a_global = random_csr(96, 96, 0.08, 101);
  const CsrMatrix q_global = random_csr(40, 96, 0.05, 102);
  EXPECT_LT(max_abs_diff(product_15d(q_global, a_global), spgemm(q_global, a_global)), 1e-12)
      << "grid p=" << p << " c=" << c;
  // With unit values every partial sum is a small integer, so no addition
  // rounds and the bits cannot depend on the grid.
  const CsrMatrix a_unit = random_pattern(96, 96, 0.3, 103);
  const CsrMatrix q_unit = random_pattern(40, 96, 0.3, 104);
  EXPECT_TRUE(same_bits(product_15d(q_unit, a_unit), spgemm(q_unit, a_unit)))
      << "grid p=" << p << " c=" << c;
}

INSTANTIATE_TEST_SUITE_P(Grids, Spgemm15dGridSweep,
                         ::testing::Values(GridParam{1, 1}, GridParam{2, 1},
                                           GridParam{4, 1}, GridParam{4, 2},
                                           GridParam{8, 2}, GridParam{16, 4},
                                           GridParam{16, 2}, GridParam{8, 1},
                                           GridParam{8, 4}));

/// Per-process-row extraction batches over an n-row A: unsorted rows that
/// span every block (one repeated), a batch confined to one block, a batch
/// with no rows in block 0, a batch with an empty mask and an empty batch.
struct ExtractInput {
  std::vector<std::vector<std::vector<index_t>>> rows;   // [row][batch]
  std::vector<std::vector<std::vector<index_t>>> masks;  // [row][batch]
  std::vector<ExtractBatches> view() const {
    std::vector<ExtractBatches> out;
    for (std::size_t i = 0; i < rows.size(); ++i) out.push_back({rows[i], masks[i]});
    return out;
  }
};

ExtractInput make_extract_input(const BlockPartition& part, index_t process_rows,
                                std::uint64_t seed) {
  const index_t n = part.total();
  Pcg32 rng(seed, 0x5eed);
  const auto pick = [&](index_t lo, index_t hi) {
    return lo + static_cast<index_t>(rng.bounded(static_cast<std::uint32_t>(hi - lo)));
  };
  const auto mask = [&](index_t size) {
    std::vector<index_t> m;
    for (index_t t = 0; t < size; ++t) m.push_back(pick(0, n));
    std::sort(m.begin(), m.end());
    m.erase(std::unique(m.begin(), m.end()), m.end());
    return m;
  };
  ExtractInput in;
  in.rows.resize(static_cast<std::size_t>(process_rows));
  in.masks.resize(static_cast<std::size_t>(process_rows));
  for (index_t i = 0; i < process_rows; ++i) {
    auto& rows = in.rows[static_cast<std::size_t>(i)];
    auto& masks = in.masks[static_cast<std::size_t>(i)];
    std::vector<index_t> spread;
    for (index_t t = 0; t < 12; ++t) spread.push_back(pick(0, n));
    spread.push_back(spread[3]);
    rows.push_back(spread);
    masks.push_back(mask(24));
    const index_t k = i % part.parts();
    std::vector<index_t> one_block;
    for (index_t t = 0; t < 5; ++t) one_block.push_back(pick(part.begin(k), part.end(k)));
    rows.push_back(one_block);
    masks.push_back(mask(30));
    std::vector<index_t> not_block0;
    if (part.end(0) < n) {
      for (index_t t = 0; t < 7; ++t) not_block0.push_back(pick(part.end(0), n));
    }
    rows.push_back(not_block0);
    masks.push_back(mask(16));
    rows.push_back({pick(0, n), pick(0, n), pick(0, n)});
    masks.push_back({});
    rows.push_back({});
    masks.push_back(mask(8));
  }
  return in;
}

class MaskedExtract15dGridSweep : public ::testing::TestWithParam<GridParam> {};

TEST_P(MaskedExtract15dGridSweep, MatchesSpgemmMaskedOnTheGlobalMatrix) {
  const auto [p, c] = GetParam();
  const CsrMatrix a_global = random_csr(96, 96, 0.08, 121);
  Workspace ws;  // one workspace for every extraction of both modes
  for (const bool aware : {true, false}) {
    Cluster cluster = make_cluster(p, c);
    const DistBlockRowMatrix a(cluster.grid(), a_global);
    const ExtractInput in =
        make_extract_input(a.partition(), cluster.grid().rows(), 122);
    Spgemm15dOptions opts;
    opts.sparsity_aware = aware;
    opts.phase = "extraction";
    opts.local.workspace = &ws;
    const auto got = masked_extract_15d(cluster, a, in.view(), opts);
    ASSERT_EQ(got.size(), in.rows.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].size(), in.rows[i].size());
      for (std::size_t b = 0; b < got[i].size(); ++b) {
        const CsrMatrix ref =
            spgemm_masked(a_global, in.rows[i][b], in.masks[i][b]);
        EXPECT_TRUE(got[i][b] == ref) << "grid p=" << p << " c=" << c
                                      << (aware ? " aware" : " oblivious")
                                      << " row " << i << " batch " << b;
        got[i][b].validate();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, MaskedExtract15dGridSweep,
                         ::testing::Values(GridParam{1, 1}, GridParam{2, 1},
                                           GridParam{4, 2}, GridParam{8, 2},
                                           GridParam{16, 4}));

TEST(Spgemm15d, ObliviousVariantGivesSameProduct) {
  // The variants ship different data but run the same local products and
  // fold, so even non-integer results agree bit for bit on each grid, with
  // the serial and the parallel local engine alike. Under CI's
  // DMS_THREADS=4 pass the parallel engine splits every product and fold
  // into blocks, so this also compares thread counts.
  const CsrMatrix a_global = random_csr(96, 96, 0.3, 105);
  const CsrMatrix q_global = random_csr(40, 96, 0.3, 106);
  for (const GridParam g : {GridParam{2, 1}, GridParam{4, 1}, GridParam{4, 2},
                            GridParam{8, 1}, GridParam{8, 2}, GridParam{8, 4},
                            GridParam{16, 4}}) {
    std::vector<CsrMatrix> runs;
    for (const bool aware : {true, false}) {
      for (const bool parallel : {true, false}) {
        Cluster cluster = make_cluster(g.p, g.c);
        const DistBlockRowMatrix a(cluster.grid(), a_global);
        Spgemm15dOptions opts;
        opts.sparsity_aware = aware;
        opts.local.parallel = parallel;
        runs.push_back(
            vstack(spgemm_15d(cluster, split_rows(q_global, cluster.grid().rows()), a, opts)));
      }
    }
    for (std::size_t r = 1; r < runs.size(); ++r) {
      EXPECT_TRUE(same_bits(runs[r], runs[0])) << "grid p=" << g.p << " c=" << g.c
                                               << " run " << r;
    }
  }
}

TEST(Spgemm15d, SparsityAwareSendsFewerRowBytes) {
  // With a very sparse Q, the sparsity-aware variant (Ballard et al.) must
  // ship far less A-row data than broadcasting whole block rows.
  Cluster c1 = make_cluster(8, 2);
  Cluster c2 = make_cluster(8, 2);
  const CsrMatrix a_global = random_csr(128, 128, 0.1, 105);
  const CsrMatrix q_global = random_csr(16, 128, 0.01, 106);
  const DistBlockRowMatrix a1(c1.grid(), a_global);
  const auto q_blocks = split_rows(q_global, 4);

  Spgemm15dStats aware_stats, obl_stats;
  Spgemm15dOptions aware;
  aware.sparsity_aware = true;
  Spgemm15dOptions oblivious;
  oblivious.sparsity_aware = false;
  spgemm_15d(c1, q_blocks, a1, aware, &aware_stats);
  spgemm_15d(c2, q_blocks, a1, oblivious, &obl_stats);
  EXPECT_LT(aware_stats.row_data_bytes, obl_stats.row_data_bytes / 2);
  EXPECT_GT(aware_stats.id_bytes, 0u);
  EXPECT_EQ(obl_stats.id_bytes, 0u);

  // The masked extraction on the same grid: aware, what crosses process
  // rows is exactly one request (rows + mask) and one masked piece per
  // (batch, remote block) with rows there — and less than the Q_R·A path
  // that ships whole A-rows and routes A[R, :] to the keepers.
  const BlockPartition& part = a1.partition();
  const ExtractInput in = make_extract_input(part, 4, 107);
  std::size_t want_ids = 0, want_payload = 0;
  for (index_t i = 0; i < 4; ++i) {
    for (std::size_t b = 0; b < in.rows[static_cast<std::size_t>(i)].size(); ++b) {
      const auto& rows = in.rows[static_cast<std::size_t>(i)][b];
      const auto& mask = in.masks[static_cast<std::size_t>(i)][b];
      for (index_t k = 0; k < 4; ++k) {
        if (k == i) continue;
        std::vector<index_t> in_k;
        for (const index_t g : rows) {
          if (part.owner(g) == k) in_k.push_back(g);
        }
        if (in_k.empty()) continue;
        want_ids += (in_k.size() + mask.size()) * sizeof(index_t);
        want_payload += spgemm_masked(a_global, in_k, mask).bytes();
      }
    }
  }
  Cluster c3 = make_cluster(8, 2);
  Cluster c4 = make_cluster(8, 2);
  Cluster c5 = make_cluster(8, 2);
  Spgemm15dStats x_aware, x_obl, qr_stats;
  masked_extract_15d(c3, a1, in.view(), aware, &x_aware);
  masked_extract_15d(c4, a1, in.view(), oblivious, &x_obl);
  EXPECT_EQ(x_aware.id_bytes, want_ids);
  EXPECT_EQ(x_aware.row_data_bytes, want_payload);
  EXPECT_EQ(x_obl.id_bytes, 0u);
  EXPECT_EQ(x_obl.row_data_bytes, obl_stats.row_data_bytes);

  // The Q_R·A path: one Q row per frontier vertex, batch offsets as a
  // FrontierStack's, so both collectives route to the same keepers.
  std::vector<CsrMatrix> qr_blocks;
  std::vector<std::vector<index_t>> qr_batches;
  for (const auto& batches : in.rows) {
    std::vector<index_t> stacked, offsets = {0};
    for (const auto& rows : batches) {
      stacked.insert(stacked.end(), rows.begin(), rows.end());
      offsets.push_back(static_cast<index_t>(stacked.size()));
    }
    qr_blocks.push_back(CsrMatrix::one_nonzero_per_row(128, stacked));
    qr_batches.push_back(std::move(offsets));
  }
  spgemm_15d(c5, qr_blocks, a1, aware, &qr_stats, qr_batches);
  EXPECT_LT(x_aware.row_data_bytes, qr_stats.row_data_bytes);
  EXPECT_LT(x_aware.row_data_bytes + x_aware.id_bytes,
            qr_stats.row_data_bytes + qr_stats.id_bytes);
  EXPECT_LT(x_aware.route_bytes, qr_stats.route_bytes);
  EXPECT_EQ(x_aware.round_messages, qr_stats.round_messages);
  EXPECT_EQ(c3.comm_stats().at("spgemm_15d").messages - x_aware.exchange_messages,
            c5.comm_stats().at("spgemm_15d").messages - qr_stats.exchange_messages);
}

// --- the row exchange: each batch's result goes to its keeper ----------------

/// Grid positions, by column, of a process row's ranks after `dead` died:
/// its keepers, the stand-in that computes each chunk, and which columns
/// compute at all — derived from the keeper rule and the chunk split as
/// DESIGN.md §3.2 states them.
struct RowLayout {
  std::vector<int> keeper_cols;      // alive columns, ascending
  std::vector<int> worker_col;       // per chunk j
  std::vector<char> computes;        // per column
};

RowLayout row_layout(const ProcessGrid& grid, int i, const std::vector<int>& dead) {
  const int c = grid.replication();
  RowLayout l;
  const auto is_dead = [&](int r) {
    return std::find(dead.begin(), dead.end(), r) != dead.end();
  };
  for (int j = 0; j < c; ++j) {
    if (!is_dead(grid.rank_of(i, j))) l.keeper_cols.push_back(j);
  }
  const BlockPartition chunks(grid.rows(), c);
  l.computes.assign(static_cast<std::size_t>(c), 0);
  for (int j = 0; j < c; ++j) {
    const int w = is_dead(grid.rank_of(i, j)) ? l.keeper_cols.front() : j;
    l.worker_col.push_back(w);
    if (chunks.size(j) > 0) l.computes[static_cast<std::size_t>(w)] = 1;
  }
  return l;
}

/// CSR bytes of the given rows of m, or 0 when they hold no entries.
std::size_t rows_bytes(const CsrMatrix& m, const std::vector<index_t>& rows) {
  const CsrMatrix part = extract_rows(m, rows);
  return part.nnz() == 0 ? 0 : part.bytes();
}

struct ExchangeBytes {
  std::size_t gather = 0, route = 0;
};

/// spgemm_15d's exchange: keepers' Q rows to every other computing column,
/// each partial Q_i[:, block k]·A_k's rows from the column that computed it
/// to the keeper of their batch. batch_of[i][r] is Q row r's batch.
ExchangeBytes product_exchange(const ProcessGrid& grid, const CsrMatrix& a_global,
                               const BlockPartition& part,
                               const std::vector<CsrMatrix>& q_blocks,
                               const std::vector<std::vector<index_t>>& batch_of,
                               const std::vector<int>& dead) {
  ExchangeBytes want;
  const BlockPartition chunks(grid.rows(), grid.replication());
  for (int i = 0; i < grid.rows(); ++i) {
    const RowLayout l = row_layout(grid, i, dead);
    if (l.keeper_cols.size() < 2) continue;
    const CsrMatrix& q = q_blocks[static_cast<std::size_t>(i)];
    std::vector<std::vector<index_t>> rows_of(static_cast<std::size_t>(grid.replication()));
    for (index_t r = 0; r < q.rows(); ++r) {
      const auto b = static_cast<std::size_t>(
          batch_of[static_cast<std::size_t>(i)][static_cast<std::size_t>(r)]);
      rows_of[static_cast<std::size_t>(l.keeper_cols[b % l.keeper_cols.size()])].push_back(r);
    }
    for (int kc = 0; kc < grid.replication(); ++kc) {
      const std::size_t in = rows_bytes(q, rows_of[static_cast<std::size_t>(kc)]);
      for (int to = 0; to < grid.replication(); ++to) {
        if (to != kc && l.computes[static_cast<std::size_t>(to)] != 0) want.gather += in;
      }
    }
    for (index_t k = 0; k < part.parts(); ++k) {
      const CsrMatrix partial = spgemm(column_window(q, part.begin(k), part.end(k)),
                                       row_slice(a_global, part.begin(k), part.end(k)));
      const int holder = l.worker_col[static_cast<std::size_t>(chunks.owner(k))];
      for (int kc = 0; kc < grid.replication(); ++kc) {
        if (kc != holder) want.route += rows_bytes(partial, rows_of[static_cast<std::size_t>(kc)]);
      }
    }
  }
  return want;
}

/// masked_extract_15d's exchange: each batch's frontier and mask to every
/// other computing column, each masked piece A[R_b ∩ block k, S_b] from the
/// column that holds it to the batch's keeper.
ExchangeBytes extract_exchange(const ProcessGrid& grid, const CsrMatrix& a_global,
                               const BlockPartition& part, const ExtractInput& in,
                               const std::vector<int>& dead) {
  ExchangeBytes want;
  const BlockPartition chunks(grid.rows(), grid.replication());
  for (int i = 0; i < grid.rows(); ++i) {
    const RowLayout l = row_layout(grid, i, dead);
    if (l.keeper_cols.size() < 2) continue;
    const auto& rows = in.rows[static_cast<std::size_t>(i)];
    const auto& masks = in.masks[static_cast<std::size_t>(i)];
    for (std::size_t b = 0; b < rows.size(); ++b) {
      const int kc = l.keeper_cols[b % l.keeper_cols.size()];
      for (int to = 0; to < grid.replication(); ++to) {
        if (to != kc && l.computes[static_cast<std::size_t>(to)] != 0) {
          want.gather += (rows[b].size() + masks[b].size()) * sizeof(index_t);
        }
      }
      for (index_t k = 0; k < part.parts(); ++k) {
        std::vector<index_t> in_k;
        for (const index_t g : rows[b]) {
          if (part.owner(g) == k) in_k.push_back(g);
        }
        const CsrMatrix piece = spgemm_masked(a_global, in_k, masks[b]);
        const int holder = l.worker_col[static_cast<std::size_t>(chunks.owner(k))];
        if (holder != kc && piece.nnz() > 0) want.route += piece.bytes();
      }
    }
  }
  return want;
}

/// Per-row batches over stacked Q rows: batch b of row i owns 1 + (b + i) % 3
/// consecutive rows, so batch sizes differ and rows straddle keepers.
std::vector<std::vector<index_t>> stacked_offsets(const std::vector<CsrMatrix>& q_blocks) {
  std::vector<std::vector<index_t>> out;
  for (std::size_t i = 0; i < q_blocks.size(); ++i) {
    std::vector<index_t> off = {0};
    for (index_t b = 0; off.back() < q_blocks[i].rows(); ++b) {
      off.push_back(std::min<index_t>(q_blocks[i].rows(),
                                      off.back() + 1 + (b + static_cast<index_t>(i)) % 3));
    }
    out.push_back(std::move(off));
  }
  return out;
}

std::vector<std::vector<index_t>> batch_of_rows(const std::vector<CsrMatrix>& q_blocks,
                                                const std::vector<std::vector<index_t>>& offsets) {
  std::vector<std::vector<index_t>> out(q_blocks.size());
  for (std::size_t i = 0; i < q_blocks.size(); ++i) {
    for (index_t r = 0; r < q_blocks[i].rows(); ++r) {
      if (offsets.empty()) {
        out[i].push_back(r);  // the default: Q row r is batch r
        continue;
      }
      const auto& off = offsets[i];
      out[i].push_back(static_cast<index_t>(
          std::upper_bound(off.begin(), off.end(), r) - off.begin() - 1));
    }
  }
  return out;
}

class RowExchangeSweep : public ::testing::TestWithParam<GridParam> {};

TEST_P(RowExchangeSweep, VolumesAreTheNonKeepersPartsAndTheKeepersInputs) {
  const auto [p, c] = GetParam();
  const CsrMatrix a_global = random_csr(96, 96, 0.08, 131);
  const CsrMatrix q_global = random_csr(40, 96, 0.05, 132);
  for (const bool aware : {true, false}) {
    Spgemm15dOptions opts;
    opts.sparsity_aware = aware;
    const std::string label = std::string(aware ? "aware" : "oblivious");
    const ProcessGrid grid(p, c);
    const DistBlockRowMatrix a(grid, a_global);
    const auto q_blocks = split_rows(q_global, grid.rows());
    // Default (Q row b is batch b) and FrontierStack-style offsets.
    for (const bool stacked : {false, true}) {
      const auto offsets = stacked ? stacked_offsets(q_blocks)
                                   : std::vector<std::vector<index_t>>{};
      Cluster cluster = make_cluster(p, c);
      Spgemm15dStats stats;
      const auto got = spgemm_15d(cluster, q_blocks, a, opts, &stats, offsets);
      EXPECT_TRUE(vstack(got) == vstack(spgemm_15d(cluster, q_blocks, a, opts)));
      const ExchangeBytes want = product_exchange(
          grid, a_global, a.partition(), q_blocks, batch_of_rows(q_blocks, offsets), {});
      EXPECT_GT(want.route, 0u) << label;
      EXPECT_EQ(stats.gather_bytes, want.gather) << label << " stacked " << stacked;
      EXPECT_EQ(stats.route_bytes, want.route) << label << " stacked " << stacked;
      EXPECT_GT(stats.exchange_messages, 0u);
      EXPECT_LE(stats.exchange_messages,
                2 * static_cast<std::size_t>(grid.rows() * c * (c - 1)));
    }

    Cluster cluster = make_cluster(p, c);
    const ExtractInput in = make_extract_input(a.partition(), grid.rows(), 133);
    Spgemm15dStats stats;
    masked_extract_15d(cluster, a, in.view(), opts, &stats);
    const ExchangeBytes want = extract_exchange(grid, a_global, a.partition(), in, {});
    EXPECT_GT(want.route, 0u) << label;
    EXPECT_EQ(stats.gather_bytes, want.gather) << label;
    EXPECT_EQ(stats.route_bytes, want.route) << label;
    // The cluster's phase holds the rounds' and the exchange's messages.
    EXPECT_EQ(cluster.comm_stats().at("spgemm_15d").messages,
              stats.round_messages + stats.exchange_messages);
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, RowExchangeSweep,
                         ::testing::Values(GridParam{8, 2}, GridParam{8, 4}));

TEST(RowExchange, OneReplicaPerRowExchangesNothing) {
  const CsrMatrix a_global = random_csr(64, 64, 0.1, 134);
  const ProcessGrid grid(8, 1);
  const DistBlockRowMatrix a(grid, a_global);
  const auto q_blocks = split_rows(random_csr(24, 64, 0.06, 135), grid.rows());
  Cluster cluster = make_cluster(8, 1);
  Spgemm15dStats s, x;
  spgemm_15d(cluster, q_blocks, a, {}, &s);
  masked_extract_15d(cluster, a, make_extract_input(a.partition(), 8, 136).view(), {}, &x);
  for (const Spgemm15dStats& st : {s, x}) {
    EXPECT_EQ(st.gather_bytes, 0u);
    EXPECT_EQ(st.route_bytes, 0u);
    EXPECT_EQ(st.exchange_messages, 0u);
  }
  EXPECT_EQ(cluster.comm_stats().at("spgemm_15d").messages,
            s.round_messages + x.round_messages);
}

TEST(RowExchange, ADeadRequestersPartialsRouteFromItsSurvivor) {
  // (8, 4): two process rows, chunks {0}, {1}, {}, {} — columns 0 and 1
  // compute. Rank (0, 1) = 2 dies: row 0's first keeper, column 0, computes
  // its chunk and routes those partials; row 0's keepers are columns 0, 2
  // and 3, and every batch goes to one of them.
  const ProcessGrid grid(8, 4);
  const int dead = grid.rank_of(0, 1);
  const CsrMatrix a_global = random_csr(96, 96, 0.08, 137);
  const DistBlockRowMatrix a(grid, a_global);
  const auto q_blocks = split_rows(random_csr(40, 96, 0.05, 138), grid.rows());
  const ExtractInput in = make_extract_input(a.partition(), grid.rows(), 139);
  FaultPlanConfig cfg;
  cfg.crashes = {{dead, 0}};
  const FaultPlan plan(cfg);
  for (const bool aware : {true, false}) {
    Spgemm15dOptions opts;
    opts.sparsity_aware = aware;
    Cluster cluster = make_cluster(8, 4);
    cluster.install_faults(&plan);
    cluster.begin_superstep();
    ASSERT_FALSE(cluster.alive(dead));
    const std::vector<int> keepers = row_keepers(cluster, grid, 0);
    EXPECT_EQ(keepers, (std::vector<int>{grid.rank_of(0, 0), grid.rank_of(0, 2),
                                         grid.rank_of(0, 3)}));
    for (std::size_t b = 0; b < 12; ++b) {
      EXPECT_TRUE(cluster.alive(batch_keeper(keepers, b)));
    }
    Spgemm15dStats s;
    spgemm_15d(cluster, q_blocks, a, opts, &s);
    const ExchangeBytes want_s = product_exchange(
        grid, a_global, a.partition(), q_blocks, batch_of_rows(q_blocks, {}), {dead});
    EXPECT_EQ(s.gather_bytes, want_s.gather);
    EXPECT_EQ(s.route_bytes, want_s.route);
    Spgemm15dStats x;
    masked_extract_15d(cluster, a, in.view(), opts, &x);
    const ExchangeBytes want_x =
        extract_exchange(grid, a_global, a.partition(), in, {dead});
    EXPECT_EQ(x.gather_bytes, want_x.gather);
    EXPECT_EQ(x.route_bytes, want_x.route);
    // Billed as if the dead rank held its partials, the volumes differ.
    const ExchangeBytes healthy = product_exchange(
        grid, a_global, a.partition(), q_blocks, batch_of_rows(q_blocks, {}), {});
    EXPECT_NE(s.route_bytes, healthy.route);
  }
}

TEST(RowExchange, EachCallRecordsOneExchangeEvent) {
  // Every lost attempt is one comm event (max_attempts 2: each event loses
  // exactly its first attempt), so lost_messages counts events: one per
  // round that moved a message, plus one exchange when some row has two
  // alive replicas — the all-reduce's one event.
  const CsrMatrix a_global = random_csr(96, 96, 0.3, 140);
  const CsrMatrix q_global = random_csr(40, 96, 0.3, 141);
  FaultPlanConfig cfg;
  cfg.seed = 4;
  cfg.loss_rate = 1.0;
  const FaultPlan plan(cfg);
  RecoveryPolicy pol;
  pol.max_attempts = 2;
  for (const GridParam gp : {GridParam{8, 1}, GridParam{8, 2}, GridParam{8, 4},
                             GridParam{16, 4}}) {
    const ProcessGrid grid(gp.p, gp.c);
    const DistBlockRowMatrix a(grid, a_global);
    const auto q_blocks = split_rows(q_global, grid.rows());
    const ExtractInput in = make_extract_input(a.partition(), grid.rows(), 142);
    const std::size_t exchange_events = gp.c > 1 ? 1 : 0;
    for (const bool aware : {true, false}) {
      Spgemm15dOptions opts;
      opts.sparsity_aware = aware;
      Cluster cluster = make_cluster(gp.p, gp.c);
      cluster.install_faults(&plan, pol);
      Spgemm15dStats s;
      spgemm_15d(cluster, q_blocks, a, opts, &s);
      EXPECT_EQ(cluster.fault_stats().lost_messages, s.rounds + exchange_events)
          << "p=" << gp.p << " c=" << gp.c;
      Spgemm15dStats x;
      masked_extract_15d(cluster, a, in.view(), opts, &x);
      EXPECT_EQ(cluster.fault_stats().lost_messages,
                s.rounds + x.rounds + 2 * exchange_events)
          << "p=" << gp.p << " c=" << gp.c;
    }
  }
}

TEST(Spgemm15d, RecordsComputeAndCommPhases) {
  Cluster cluster = make_cluster(4, 2);
  const CsrMatrix a_global = random_csr(40, 40, 0.2, 107);
  const DistBlockRowMatrix a(cluster.grid(), a_global);
  const auto q_blocks = split_rows(random_csr(12, 40, 0.1, 108), 2);
  Spgemm15dOptions opts;
  opts.phase = "probability";
  spgemm_15d(cluster, q_blocks, a, opts);
  EXPECT_GT(cluster.compute_time().at("probability"), 0.0);
  EXPECT_GT(cluster.comm_stats().at("probability").seconds, 0.0);
  EXPECT_GT(cluster.comm_stats().at("probability").bytes, 0u);
}

TEST(Spgemm15d, SingleRankNeedsNoCommunication) {
  Cluster cluster = make_cluster(1, 1);
  const CsrMatrix a_global = random_csr(30, 30, 0.2, 109);
  const DistBlockRowMatrix a(cluster.grid(), a_global);
  const auto q_blocks = split_rows(random_csr(10, 30, 0.2, 110), 1);
  spgemm_15d(cluster, q_blocks, a);
  EXPECT_DOUBLE_EQ(cluster.total_comm(), 0.0);
}

TEST(Spgemm15d, RejectsMismatchedBlocks) {
  Cluster cluster = make_cluster(4, 2);
  const DistBlockRowMatrix a(cluster.grid(), random_csr(20, 20, 0.3, 111));
  std::vector<CsrMatrix> wrong_count = {CsrMatrix(2, 20)};
  EXPECT_THROW(spgemm_15d(cluster, wrong_count, a), DmsError);
  std::vector<CsrMatrix> wrong_dims = {CsrMatrix(2, 19), CsrMatrix(2, 19)};
  EXPECT_THROW(spgemm_15d(cluster, wrong_dims, a), DmsError);
}

TEST(Spgemm15d, MaskedExtractRejectsMismatchedBatches) {
  Cluster cluster = make_cluster(4, 2);
  const DistBlockRowMatrix a(cluster.grid(), random_csr(20, 20, 0.3, 113));
  const std::vector<std::vector<index_t>> rows = {{1, 2}}, masks = {{3}}, none;
  EXPECT_THROW(masked_extract_15d(cluster, a, {{rows, masks}}), DmsError);
  EXPECT_THROW(masked_extract_15d(cluster, a, {{rows, none}, {none, none}}), DmsError);
  const std::vector<std::vector<index_t>> out_of_range = {{20}};
  EXPECT_THROW(masked_extract_15d(cluster, a, {{out_of_range, masks}, {none, none}}),
               DmsError);
  // A bad mask is rejected like spgemm_masked on the whole matrix rejects
  // it, also when its batch has no rows for any owner to serve.
  const std::vector<std::vector<index_t>> no_rows = {{}};
  for (const std::vector<index_t>& bad :
       {std::vector<index_t>{20}, std::vector<index_t>{-1},
        std::vector<index_t>{5, 3}, std::vector<index_t>{3, 3}}) {
    const std::vector<std::vector<index_t>> bad_masks = {bad};
    EXPECT_THROW(masked_extract_15d(cluster, a, {{no_rows, bad_masks}, {none, none}}),
                 DmsError);
    EXPECT_THROW(masked_extract_15d(cluster, a, {{rows, bad_masks}, {none, none}}),
                 DmsError);
  }
  EXPECT_NO_THROW(masked_extract_15d(cluster, a, {{no_rows, masks}, {none, none}}));
}

TEST(Spgemm15d, RunsOnTheGlobalRanksOfAnyLargeEnoughCluster) {
  // The layout is A's grid: a (2, 1) matrix runs on ranks 0-1 of a 4-rank
  // cluster exactly as on a 2-rank one (same results, same volumes), and a
  // grid with more ranks than the cluster is rejected by both collectives.
  const CsrMatrix a_global = random_csr(40, 40, 0.2, 114);
  const DistBlockRowMatrix a(ProcessGrid(2, 1), a_global);
  const auto q_blocks = split_rows(random_csr(12, 40, 0.1, 115), 2);
  const ExtractInput in = make_extract_input(a.partition(), 2, 116);
  Cluster exact = make_cluster(2, 1);
  Cluster larger = make_cluster(4, 2);
  EXPECT_TRUE(vstack(spgemm_15d(exact, q_blocks, a)) ==
              vstack(spgemm_15d(larger, q_blocks, a)));
  const auto x_exact = masked_extract_15d(exact, a, in.view());
  const auto x_larger = masked_extract_15d(larger, a, in.view());
  ASSERT_EQ(x_exact.size(), x_larger.size());
  for (std::size_t i = 0; i < x_exact.size(); ++i) {
    ASSERT_EQ(x_exact[i].size(), x_larger[i].size());
    for (std::size_t b = 0; b < x_exact[i].size(); ++b) {
      EXPECT_TRUE(x_exact[i][b] == x_larger[i][b]) << "row " << i << " batch " << b;
    }
  }
  const CommStats& e = exact.comm_stats().at("spgemm_15d");
  const CommStats& l = larger.comm_stats().at("spgemm_15d");
  EXPECT_GT(e.messages, 0u);
  EXPECT_EQ(l.messages, e.messages);
  EXPECT_EQ(l.bytes, e.bytes);
  EXPECT_DOUBLE_EQ(l.seconds, e.seconds);

  const DistBlockRowMatrix wide(ProcessGrid(8, 2), a_global);
  const ExtractInput wide_in = make_extract_input(wide.partition(), 4, 117);
  EXPECT_THROW(spgemm_15d(larger, split_rows(random_csr(12, 40, 0.1, 118), 4), wide),
               DmsError);
  EXPECT_THROW(masked_extract_15d(larger, wide, wide_in.view()), DmsError);
}

TEST(DistBlockRowMatrix, GatherReassembles) {
  Cluster cluster = make_cluster(4, 1);
  const CsrMatrix a_global = random_csr(21, 17, 0.3, 112);  // non-divisible rows
  const DistBlockRowMatrix a(cluster.grid(), a_global);
  EXPECT_TRUE(a.gather() == a_global);
  EXPECT_EQ(a.num_blocks(), 4);
  EXPECT_EQ(a.partition().size(0), 6);  // 21 = 6+5+5+5
}

}  // namespace
}  // namespace dms
