// Minibatch scheduling, frontier construction, thread pool, dense matrix.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "common/threadpool.hpp"
#include "core/frontier.hpp"
#include "core/minibatch.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

TEST(Minibatch, CoversTrainingSetExactlyOnce) {
  std::vector<index_t> train;
  for (index_t i = 0; i < 103; ++i) train.push_back(i * 2);
  const auto batches = make_epoch_batches(train, 10, 1);
  EXPECT_EQ(batches.size(), 11u);
  EXPECT_EQ(batches.back().size(), 3u);
  std::multiset<index_t> seen;
  for (const auto& b : batches) seen.insert(b.begin(), b.end());
  EXPECT_EQ(seen.size(), train.size());
  for (const index_t v : train) EXPECT_EQ(seen.count(v), 1u);
}

TEST(Minibatch, PermutationDiffersAcrossEpochs) {
  std::vector<index_t> train;
  for (index_t i = 0; i < 100; ++i) train.push_back(i);
  const auto e1 = make_epoch_batches(train, 100, 1);
  const auto e2 = make_epoch_batches(train, 100, 2);
  EXPECT_NE(e1[0], e2[0]);
  const auto e1_again = make_epoch_batches(train, 100, 1);
  EXPECT_EQ(e1[0], e1_again[0]);
}

TEST(Minibatch, RejectsNonPositiveBatchSize) {
  EXPECT_THROW(make_epoch_batches({1, 2}, 0, 1), DmsError);
}

TEST(Frontier, RowsLeadAndDuplicatesMerge) {
  const std::vector<index_t> rows = {10, 20};
  // Row 0 sampled {30, 20}, row 1 {30, 40}, as a CSR slice whose rowptr
  // starts past 0.
  const std::vector<nnz_t> rowptr = {3, 5, 7};
  const std::vector<index_t> sampled = {-1, -1, -1, 30, 20, 30, 40};
  const LayerSample layer = build_layer_sample(rows, rowptr, sampled);
  EXPECT_EQ(layer.col_vertices, (std::vector<index_t>{10, 20, 30, 40}));
  EXPECT_EQ(layer.adj.rows(), 2);
  EXPECT_EQ(layer.adj.cols(), 4);
  // Row 0 sampled {30, 20} → columns 2 and 1.
  EXPECT_DOUBLE_EQ(layer.adj.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(layer.adj.at(0, 2), 1.0);
  // Row 1 sampled {30, 40} → columns 2 and 3.
  EXPECT_DOUBLE_EQ(layer.adj.at(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(layer.adj.at(1, 3), 1.0);
}

TEST(Frontier, RelabelsInStoredOrderThenSortsRows) {
  // Unsorted rows (the classic baseline's Floyd draw order): the first
  // sighting fixes the column order, each row's local ids come out sorted,
  // and a vertex sampled twice for one row is one edge.
  const std::vector<index_t> rows = {5};
  const std::vector<nnz_t> rowptr = {0, 4};
  const std::vector<index_t> sampled = {9, 7, 9, 5};
  const LayerSample layer = build_layer_sample(rows, rowptr, sampled);
  EXPECT_EQ(layer.col_vertices, (std::vector<index_t>{5, 9, 7}));
  layer.adj.validate();
  EXPECT_EQ(layer.adj.nnz(), 3);
  EXPECT_EQ(layer.adj.colidx(), (std::vector<index_t>{0, 1, 2}));
}

TEST(Frontier, MismatchedRowsThrow) {
  const std::vector<nnz_t> rowptr = {0, 1, 2};
  const std::vector<index_t> sampled = {2, 3};
  EXPECT_THROW(build_layer_sample({1}, rowptr, sampled), DmsError);
  // A rowptr past the sampled columns, or decreasing, is malformed too.
  EXPECT_THROW(build_layer_sample({1, 2}, std::vector<nnz_t>{0, 1, 3}, sampled),
               DmsError);
  EXPECT_THROW(build_layer_sample({1, 2}, std::vector<nnz_t>{0, 2, 1}, sampled),
               DmsError);
}

TEST(MinibatchSample, InputVerticesThrowsOnEmptyLayers) {
  // Regression: used to read layers.back() of an empty vector (UB).
  MinibatchSample ms;
  ms.batch_vertices = {1, 2};
  EXPECT_THROW(ms.input_vertices(), DmsError);
}

TEST(MinibatchSample, InputVerticesReturnsLastFrontier) {
  MinibatchSample ms;
  ms.layers.emplace_back();
  ms.layers.back().col_vertices = {4, 5};
  ms.layers.emplace_back();
  ms.layers.back().col_vertices = {7, 8, 9};
  EXPECT_EQ(ms.input_vertices(), (std::vector<index_t>{7, 8, 9}));
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](index_t i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SerialFallbackWorks) {
  ThreadPool pool(1);
  int sum = 0;
  pool.parallel_for(10, [&](index_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(50,
                                 [](index_t i) {
                                   if (i == 33) throw DmsError("boom");
                                 }),
               DmsError);
  // Pool remains usable after the exception.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](index_t) { count++; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](index_t) { FAIL(); });
}

TEST(ThreadPool, ResolvePoolSizeAcceptsOnlyStrictPositiveIntegers) {
  EXPECT_EQ(ThreadPool::resolve_pool_size("4", 8), 4);
  EXPECT_EQ(ThreadPool::resolve_pool_size("1", 8), 1);
  // Everything else falls back to the hardware size with a warning.
  EXPECT_EQ(ThreadPool::resolve_pool_size(nullptr, 8), 8);
  EXPECT_EQ(ThreadPool::resolve_pool_size("", 8), 8);
  EXPECT_EQ(ThreadPool::resolve_pool_size("0", 8), 8);
  EXPECT_EQ(ThreadPool::resolve_pool_size("-3", 8), 8);
  EXPECT_EQ(ThreadPool::resolve_pool_size("four", 8), 8);
  EXPECT_EQ(ThreadPool::resolve_pool_size("4x", 8), 8);   // trailing garbage
  EXPECT_EQ(ThreadPool::resolve_pool_size(" 4 ", 8), 8);  // whitespace tail
  EXPECT_EQ(ThreadPool::resolve_pool_size("99999999999999999999", 8), 8);
  // A degenerate hardware report still yields a runnable pool.
  EXPECT_EQ(ThreadPool::resolve_pool_size(nullptr, 0), 1);
  EXPECT_EQ(ThreadPool::resolve_pool_size("junk", -2), 1);
}

TEST(Dense, BasicAccessAndNorm) {
  DenseD d(2, 2);
  d(0, 0) = 3.0;
  d(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(d.norm(), 5.0);
  d.zero();
  EXPECT_DOUBLE_EQ(d.norm(), 0.0);
}

TEST(Dense, MaxAbsDiffRequiresSameShape) {
  EXPECT_THROW(DenseD::max_abs_diff(DenseD(2, 2), DenseD(2, 3)), DmsError);
  DenseD a(2, 2), b(2, 2);
  a(1, 0) = 5.0;
  b(1, 0) = 3.0;
  EXPECT_DOUBLE_EQ(DenseD::max_abs_diff(a, b), 2.0);
}

}  // namespace
}  // namespace dms
