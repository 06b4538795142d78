// Property tests for the feature-row cache (train/feature_cache.hpp) and
// the caching FeatureStore: capacity is never exceeded, LRU eviction order,
// cached fetches return bit-equal rows, and zero capacity degenerates to the
// uncached behavior.
#include <gtest/gtest.h>

#include "test_util.hpp"
#include "train/feature_store.hpp"

namespace dms {
namespace {

DenseF make_features(index_t n, index_t f) {
  DenseF h(n, f);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < f; ++j) {
      h(i, j) = static_cast<float>(i * 100 + j);
    }
  }
  return h;
}

std::vector<std::vector<index_t>> random_wanted(int ranks, index_t n,
                                                int rows_per_rank, Pcg32& rng) {
  std::vector<std::vector<index_t>> wanted(static_cast<std::size_t>(ranks));
  for (auto& w : wanted) {
    for (int i = 0; i < rows_per_rank; ++i) {
      w.push_back(static_cast<index_t>(rng.bounded64(static_cast<std::uint64_t>(n))));
    }
  }
  return wanted;
}

TEST(FeatureRowCache, CapacityNeverExceededUnderRandomWorkload) {
  FeatureRowCache cache(FeatureCacheConfig{CachePolicy::kLru, 8});
  Pcg32 rng(123);
  for (int op = 0; op < 2000; ++op) {
    const auto v = static_cast<index_t>(rng.bounded64(64));
    if (!cache.lookup(v)) cache.insert(v);
    ASSERT_LE(cache.size(), cache.capacity());
  }
  EXPECT_EQ(cache.size(), 8);
}

TEST(FeatureRowCache, EvictsLeastRecentlyUsedFirst) {
  FeatureRowCache cache(FeatureCacheConfig{CachePolicy::kLru, 3});
  cache.insert(1);
  cache.insert(2);
  cache.insert(3);
  EXPECT_TRUE(cache.lookup(1));  // refresh: order is now 2, 3, 1
  cache.insert(4);               // evicts 2
  EXPECT_FALSE(cache.lookup(2));
  EXPECT_TRUE(cache.lookup(3));
  EXPECT_TRUE(cache.lookup(4));
  const std::vector<index_t> order = cache.lru_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order.back(), 4);  // most recent
}

TEST(FeatureRowCache, ZeroCapacityNeverAdmits) {
  for (const CachePolicy policy :
       {CachePolicy::kNone, CachePolicy::kLru, CachePolicy::kDegreePinned}) {
    FeatureRowCache cache(FeatureCacheConfig{policy, 0});
    EXPECT_FALSE(cache.enabled());
    cache.insert(5);
    EXPECT_FALSE(cache.lookup(5));
    EXPECT_EQ(cache.size(), 0);
  }
}

TEST(FeatureRowCache, PinnedRowsAreStaticAndNeverEvicted) {
  FeatureRowCache cache(FeatureCacheConfig{CachePolicy::kDegreePinned, 2});
  cache.pin({7, 9});
  EXPECT_TRUE(cache.lookup(7));
  EXPECT_TRUE(cache.lookup(9));
  cache.insert(5);  // pinned caches admit nothing dynamically
  EXPECT_FALSE(cache.lookup(5));
  EXPECT_TRUE(cache.lookup(7));
  EXPECT_THROW(cache.pin({1, 2, 3}), DmsError);  // beyond capacity
}

TEST(FeatureCache, CachedFetchesReturnBitEqualRows) {
  const DenseF h = make_features(64, 4);
  Cluster c_plain(ProcessGrid(4, 2), CostModel(LinkParams{}));
  Cluster c_cached(ProcessGrid(4, 2), CostModel(LinkParams{}));
  FeatureStore plain(c_plain.grid(), h);
  FeatureStore cached(c_cached.grid(), h,
                      FeatureStoreOptions{.cache = {CachePolicy::kLru, 16}});
  Pcg32 rng(7);
  for (int step = 0; step < 8; ++step) {
    const auto wanted = random_wanted(4, 64, 12, rng);
    const auto a = plain.fetch_all(c_plain, wanted);
    const auto b = cached.fetch_all(c_cached, wanted);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t r = 0; r < a.size(); ++r) {
      EXPECT_TRUE(a[r] == b[r]) << "step " << step << " rank " << r;
      // ... and both match the source rows exactly.
      for (std::size_t q = 0; q < wanted[r].size(); ++q) {
        for (index_t j = 0; j < h.cols(); ++j) {
          ASSERT_EQ(b[r](static_cast<index_t>(q), j), h(wanted[r][q], j));
        }
      }
    }
  }
  EXPECT_GT(cached.cache_stats().hits, 0u);
  EXPECT_LT(cached.cache_stats().bytes_moved, plain.cache_stats().bytes_moved);
}

TEST(FeatureCache, ZeroCapacityDegeneratesToUncachedBehavior) {
  const DenseF h = make_features(64, 4);
  Cluster c_none(ProcessGrid(4, 1), CostModel(LinkParams{}));
  Cluster c_zero(ProcessGrid(4, 1), CostModel(LinkParams{}));
  FeatureStore none(c_none.grid(), h);
  FeatureStore zero(c_zero.grid(), h,
                    FeatureStoreOptions{.cache = {CachePolicy::kLru, 0}});
  Pcg32 rng(11);
  for (int step = 0; step < 4; ++step) {
    const auto wanted = random_wanted(4, 64, 10, rng);
    none.fetch_all(c_none, wanted);
    zero.fetch_all(c_zero, wanted);
  }
  EXPECT_EQ(zero.cache_stats().hits, 0u);
  EXPECT_EQ(zero.cache_stats().bytes_moved, none.cache_stats().bytes_moved);
  EXPECT_EQ(c_zero.comm_stats().at("fetch").bytes,
            c_none.comm_stats().at("fetch").bytes);
  EXPECT_EQ(c_zero.comm_stats().at("fetch").seconds,
            c_none.comm_stats().at("fetch").seconds);
}

TEST(FeatureCache, RepeatFetchesHitAndMoveNoBytes) {
  const DenseF h = make_features(40, 2);
  Cluster cluster(ProcessGrid(4, 1), CostModel(LinkParams{}));
  FeatureStore store(cluster.grid(), h,
                     FeatureStoreOptions{.cache = {CachePolicy::kLru, 32}});
  // Rank 0 owns rows [0,10); request remote rows twice.
  const std::vector<std::vector<index_t>> wanted = {{20, 21, 22}, {}, {}, {}};
  store.fetch_all(cluster, wanted);
  const std::size_t after_first = store.cache_stats().bytes_moved;
  EXPECT_GT(after_first, 0u);
  store.fetch_all(cluster, wanted);
  EXPECT_EQ(store.cache_stats().bytes_moved, after_first);
  EXPECT_EQ(store.cache_stats().hits, 3u);
  EXPECT_EQ(store.cache_stats().misses, 3u);
}

TEST(FeatureCache, AccountingCoversEveryRequestedRow) {
  const DenseF h = make_features(64, 4);
  Cluster cluster(ProcessGrid(8, 2), CostModel(LinkParams{}));
  FeatureStore store(cluster.grid(), h,
                     FeatureStoreOptions{.cache = {CachePolicy::kLru, 8}});
  Pcg32 rng(3);
  std::size_t expected = 0;
  for (int step = 0; step < 6; ++step) {
    const auto wanted = random_wanted(8, 64, 9, rng);
    for (const auto& w : wanted) expected += w.size();
    store.fetch_all(cluster, wanted);
  }
  const FeatureCacheStats& s = store.cache_stats();
  EXPECT_EQ(s.requested, expected);
  EXPECT_EQ(s.requested, s.hits + s.misses + s.local);
}

TEST(FeatureCache, StatsDeltaChecksSnapshotOrderInsteadOfWrapping) {
  // Regression: the per-interval delta `later - earlier` subtracted raw
  // unsigned fields, so swapping the operands wrapped every counter into a
  // ~2^64 garbage delta that polluted epoch reports downstream. The
  // subtraction now checks per-field ordering.
  FeatureCacheStats earlier{/*requested=*/10, /*hits=*/4,       /*misses=*/5,
                            /*local=*/1,     /*pinned_hits=*/2, /*bytes_moved=*/80,
                            /*bytes_saved=*/64};
  FeatureCacheStats later{/*requested=*/25, /*hits=*/12,      /*misses=*/10,
                          /*local=*/3,     /*pinned_hits=*/6, /*bytes_moved=*/160,
                          /*bytes_saved=*/192};
  const FeatureCacheStats d = later - earlier;
  EXPECT_EQ(d.requested, 15u);
  EXPECT_EQ(d.hits, 8u);
  EXPECT_EQ(d.misses, 5u);
  EXPECT_EQ(d.local, 2u);
  EXPECT_EQ(d.pinned_hits, 4u);
  EXPECT_EQ(d.bytes_moved, 80u);
  EXPECT_EQ(d.bytes_saved, 128u);
  EXPECT_THROW(earlier - later, DmsError);  // the swapped-operand bug
  // A single out-of-order field trips it too, even when the others pass.
  FeatureCacheStats skewed = later;
  skewed.hits = earlier.hits - 1;
  EXPECT_THROW(skewed - earlier, DmsError);
  // Equal snapshots are a valid (all-zero) interval.
  const FeatureCacheStats zero = earlier - earlier;
  EXPECT_EQ(zero.requested, 0u);
  EXPECT_EQ(zero.bytes_saved, 0u);
}

TEST(FeatureCache, PinnedRemoteRowsNeverCrossTheWire) {
  const DenseF h = make_features(40, 2);
  Cluster cluster(ProcessGrid(4, 1), CostModel(LinkParams{}));
  FeatureStore store(cluster.grid(), h,
                     FeatureStoreOptions{.cache = {CachePolicy::kDegreePinned, 4}});
  store.pin_rows({20, 21});
  const std::vector<std::vector<index_t>> wanted = {{20, 21}, {}, {}, {}};
  store.fetch_all(cluster, wanted);
  EXPECT_EQ(store.cache_stats().hits, 2u);
  EXPECT_EQ(store.cache_stats().bytes_moved, 0u);
  EXPECT_EQ(cluster.comm_stats().at("fetch").bytes, 0u);
}

}  // namespace
}  // namespace dms
