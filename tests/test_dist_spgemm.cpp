// 1.5D distributed SpGEMM (Algorithm 2) and masked extraction: exact
// agreement with the single-node product / spgemm_masked across grid shapes,
// plus sparsity-aware vs oblivious volume comparisons.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "dist/spgemm_15d.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm_engine.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

using testutil::random_csr;

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
  Cluster cluster = make_cluster(p, c);
  const CsrMatrix a_global = random_csr(96, 96, 0.08, 101);
  const CsrMatrix q_global = random_csr(40, 96, 0.05, 102);
  const DistBlockRowMatrix a(cluster.grid(), a_global);
  const auto q_blocks = split_rows(q_global, cluster.grid().rows());

  const auto p_blocks = spgemm_15d(cluster, q_blocks, a);
  const CsrMatrix p_dist = vstack(p_blocks);
  const CsrMatrix p_ref = spgemm(q_global, a_global);
  EXPECT_LT(max_abs_diff(p_dist, p_ref), 1e-12)
      << "grid p=" << p << " c=" << c;
}

INSTANTIATE_TEST_SUITE_P(Grids, Spgemm15dGridSweep,
                         ::testing::Values(GridParam{1, 1}, GridParam{2, 1},
                                           GridParam{4, 1}, GridParam{4, 2},
                                           GridParam{8, 2}, GridParam{16, 4},
                                           GridParam{16, 2}, GridParam{8, 1}));

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
  Cluster cluster = make_cluster(8, 2);
  const CsrMatrix a_global = random_csr(64, 64, 0.1, 103);
  const CsrMatrix q_global = random_csr(24, 64, 0.06, 104);
  const DistBlockRowMatrix a(cluster.grid(), a_global);
  const auto q_blocks = split_rows(q_global, cluster.grid().rows());

  Spgemm15dOptions aware;
  aware.sparsity_aware = true;
  Spgemm15dOptions oblivious;
  oblivious.sparsity_aware = false;
  const CsrMatrix pa = vstack(spgemm_15d(cluster, q_blocks, a, aware));
  const CsrMatrix po = vstack(spgemm_15d(cluster, q_blocks, a, oblivious));
  EXPECT_TRUE(pa == po);
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
  // that ships whole A-rows and all-reduces A[R, :].
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

  std::vector<CsrMatrix> qr_blocks;
  for (const auto& batches : in.rows) {
    std::vector<index_t> stacked;
    for (const auto& rows : batches) stacked.insert(stacked.end(), rows.begin(), rows.end());
    qr_blocks.push_back(CsrMatrix::one_nonzero_per_row(128, stacked));
  }
  spgemm_15d(c5, qr_blocks, a1, aware, &qr_stats);
  EXPECT_LT(x_aware.row_data_bytes, qr_stats.row_data_bytes);
  EXPECT_LT(x_aware.row_data_bytes + x_aware.id_bytes,
            qr_stats.row_data_bytes + qr_stats.id_bytes);
  EXPECT_LT(x_aware.allreduce_bytes, qr_stats.allreduce_bytes);
  EXPECT_EQ(x_aware.messages, qr_stats.messages);
  EXPECT_EQ(c3.comm_stats().at("spgemm_15d").messages,
            c5.comm_stats().at("spgemm_15d").messages);
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
