#include "buffer/buffer_pool.h"

#include <gtest/gtest.h>

namespace rtq::buffer {
namespace {

TEST(BufferPool, StartsFullyUnreserved) {
  BufferPool pool(2560);
  EXPECT_EQ(pool.total(), 2560);
  EXPECT_EQ(pool.reserved(), 0);
  EXPECT_EQ(pool.unreserved(), 2560);
  EXPECT_EQ(pool.page_cache().capacity(), 2560);
}

TEST(BufferPool, SetReservationTracksAbsolute) {
  BufferPool pool(1000);
  EXPECT_TRUE(pool.Resize(0, 300).ok());
  EXPECT_EQ(pool.reserved(), 300);
  EXPECT_TRUE(pool.Resize(300, 500).ok());  // absolute, not delta
  EXPECT_EQ(pool.reserved(), 500);
  EXPECT_TRUE(pool.Resize(500, 100).ok());
  EXPECT_EQ(pool.reserved(), 100);
}

TEST(BufferPool, RejectsOversubscription) {
  BufferPool pool(1000);
  EXPECT_TRUE(pool.Resize(0, 700).ok());
  Status s = pool.Resize(0, 400);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  // The failed call must not corrupt state.
  EXPECT_EQ(pool.reserved(), 700);
  EXPECT_EQ(pool.page_cache().capacity(), 300);
  // Growing another reservation within the pool is fine.
  EXPECT_TRUE(pool.Resize(0, 300).ok());
}

TEST(BufferPool, RejectsNegative) {
  BufferPool pool(100);
  EXPECT_EQ(pool.Resize(0, -5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.Resize(-5, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.reserved(), 0);
}

TEST(BufferPool, ZeroReservationRemoves) {
  BufferPool pool(100);
  EXPECT_TRUE(pool.Resize(0, 40).ok());
  EXPECT_EQ(pool.reserved(), 40);
  EXPECT_TRUE(pool.Resize(40, 0).ok());
  EXPECT_EQ(pool.reserved(), 0);
  EXPECT_EQ(pool.page_cache().capacity(), 100);
}

TEST(BufferPool, ReleaseAllDropsReservation) {
  BufferPool pool(100);
  EXPECT_TRUE(pool.Resize(0, 40).ok());
  EXPECT_TRUE(pool.Resize(0, 30).ok());
  EXPECT_TRUE(pool.Resize(40, 0).ok());
  EXPECT_EQ(pool.reserved(), 30);
  EXPECT_TRUE(pool.Resize(0, 0).ok());  // a query that held nothing
  EXPECT_EQ(pool.reserved(), 30);
}

TEST(BufferPool, LruCapacityTracksUnreserved) {
  BufferPool pool(100);
  for (uint64_t k = 0; k < 100; ++k) pool.page_cache().Insert(k);
  EXPECT_EQ(pool.page_cache().size(), 100);
  EXPECT_TRUE(pool.Resize(0, 60).ok());
  // Reservation shrinks the cache area; LRU pages were evicted.
  EXPECT_EQ(pool.page_cache().capacity(), 40);
  EXPECT_EQ(pool.page_cache().size(), 40);
  EXPECT_TRUE(pool.Resize(60, 0).ok());
  EXPECT_EQ(pool.page_cache().capacity(), 100);
}

TEST(BufferPool, PageKeyIsInjectiveAcrossDisks) {
  uint64_t a = BufferPool::PageKey(0, 12345);
  uint64_t b = BufferPool::PageKey(1, 12345);
  uint64_t c = BufferPool::PageKey(0, 12346);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
}

TEST(BufferPool, FullPoolReservation) {
  BufferPool pool(500);
  EXPECT_TRUE(pool.Resize(0, 500).ok());
  EXPECT_EQ(pool.unreserved(), 0);
  EXPECT_EQ(pool.page_cache().capacity(), 0);
  EXPECT_FALSE(pool.Resize(0, 1).ok());
}

}  // namespace
}  // namespace rtq::buffer
