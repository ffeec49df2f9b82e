#include "buffer/lru_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/rng.h"

namespace rtq::buffer {
namespace {

TEST(LruCache, MissThenHit) {
  LruCache cache(4);
  EXPECT_FALSE(cache.Lookup(1));
  cache.Insert(1);
  EXPECT_TRUE(cache.Lookup(1));
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache cache(3);
  cache.Insert(1);
  cache.Insert(2);
  cache.Insert(3);
  cache.Lookup(1);   // 1 becomes MRU; 2 is LRU
  cache.Insert(4);   // evicts 2
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(4));
}

TEST(LruCache, ContainsDoesNotPromote) {
  LruCache cache(2);
  cache.Insert(1);
  cache.Insert(2);
  cache.Contains(1);  // no promotion
  cache.Insert(3);    // evicts 1 (still LRU)
  EXPECT_FALSE(cache.Contains(1));
}

TEST(LruCache, ReinsertPromotes) {
  LruCache cache(2);
  cache.Insert(1);
  cache.Insert(2);
  cache.Insert(1);  // promote
  cache.Insert(3);  // evicts 2
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
}

TEST(LruCache, ShrinkingCapacityEvicts) {
  LruCache cache(4);
  for (uint64_t k = 1; k <= 4; ++k) cache.Insert(k);
  cache.SetCapacity(2);
  EXPECT_EQ(cache.size(), 2);
  EXPECT_TRUE(cache.Contains(4));
  EXPECT_TRUE(cache.Contains(3));
}

TEST(LruCache, ZeroCapacityInsertsNothing) {
  LruCache cache(0);
  cache.Insert(1);
  EXPECT_EQ(cache.size(), 0);
  EXPECT_FALSE(cache.Lookup(1));
}

TEST(LruCache, EraseRemovesEntry) {
  LruCache cache(4);
  cache.Insert(1);
  cache.Insert(2);
  cache.Erase(1);
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  cache.Erase(99);  // no-op
  EXPECT_EQ(cache.size(), 1);
}

TEST(LruCache, ClearEmptiesEverything) {
  LruCache cache(4);
  for (uint64_t k = 0; k < 4; ++k) cache.Insert(k);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0);
  EXPECT_FALSE(cache.Contains(0));
}

// Randomized Lookup/Find+Touch/Insert/Erase/SetCapacity/Clear
// interleavings checked against a std::list reference (MRU first) written
// from the header contract alone, the same pattern as the EventQueue and
// DiskCache fuzz tests. Keys are BufferPool::PageKey values over a few
// disks and short page runs: clustered like the engine's, so probe runs
// meet, wrap around the table's end, and get repaired by backward-shift
// deletion on every erase and eviction. Fixed seeds so failures
// reproduce.
TEST(LruCache, FuzzMatchesListReferenceModel) {
  for (uint64_t seed : {1u, 7u, 99u, 1234u}) {
    Rng rng(seed);
    PageCount capacity = 64;
    LruCache cache(capacity);
    std::list<uint64_t> ref;  // front = MRU
    int64_t hits = 0;
    int64_t misses = 0;
    auto ref_find = [&](uint64_t key) {
      return std::find(ref.begin(), ref.end(), key);
    };
    auto ref_evict = [&] {
      while (static_cast<PageCount>(ref.size()) > capacity) ref.pop_back();
    };
    for (int step = 0; step < 6000; ++step) {
      const uint64_t key = BufferPool::PageKey(
          static_cast<DiskId>(rng.UniformInt(0, 3)), rng.UniformInt(0, 150));
      const int64_t op = rng.UniformInt(0, 99);
      if (op < 35) {
        cache.Insert(key);
        if (capacity > 0) {
          auto it = ref_find(key);
          if (it != ref.end()) ref.erase(it);
          ref.push_front(key);
          ref_evict();
        }
      } else if (op < 55) {
        auto it = ref_find(key);
        const bool hit = it != ref.end();
        if (hit) {
          ref.erase(it);
          ref.push_front(key);
          ++hits;
        } else {
          ++misses;
        }
        ASSERT_EQ(cache.Lookup(key), hit) << "seed " << seed;
      } else if (op < 70) {
        // The engine's coverage probe: Find without side effects, then
        // Touch on the hit.
        const LruCache::Handle h = cache.Find(key);
        auto it = ref_find(key);
        ASSERT_EQ(h != LruCache::kNullHandle, it != ref.end())
            << "seed " << seed;
        if (h != LruCache::kNullHandle) {
          cache.Touch(h);
          ref.erase(it);
          ref.push_front(key);
          ++hits;
        }
      } else if (op < 90) {
        cache.Erase(key);
        auto it = ref_find(key);
        if (it != ref.end()) ref.erase(it);
      } else if (op < 98) {
        // Shrink below and grow past the resident count, through zero.
        capacity = rng.UniformInt(0, 4) == 0 ? 0 : rng.UniformInt(1, 400);
        cache.SetCapacity(capacity);
        ref_evict();
      } else {
        cache.Clear();
        ref.clear();
      }
      ASSERT_EQ(cache.Keys(), std::vector<uint64_t>(ref.begin(), ref.end()))
          << "seed " << seed << " step " << step;
      ASSERT_EQ(cache.hits(), hits) << "seed " << seed;
      ASSERT_EQ(cache.misses(), misses) << "seed " << seed;
      ASSERT_EQ(cache.size(), static_cast<PageCount>(ref.size()));
      ASSERT_EQ(cache.Contains(key), ref_find(key) != ref.end());
    }
  }
}

}  // namespace
}  // namespace rtq::buffer
