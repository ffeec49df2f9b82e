// Page-granular LRU cache.
//
// Backs the unreserved portion of the buffer pool: "page replacement for
// non-reserved buffers is handled according to the LRU policy" (paper
// Section 4.2). Keys are global page ids (disk, page) packed into 64 bits
// by the buffer pool.
//
// Storage is one intrusive slab: recency links live inside the node
// vector (indices, not list pointers), and freed slots are reused. The
// key->slot index is an open-addressing table of slot indices over that
// slab (linear probing, backward-shift deletion, load factor at most
// 1/2). It doubles when the resident count reaches a new high and never
// shrinks, so once the pool has been full the cache performs zero heap
// allocation. The Find/Touch handle pair lets the engine's multi-page
// coverage probe hash each page ONCE (Find) and promote on the hit path
// (Touch) without re-hashing.

#ifndef RTQ_BUFFER_LRU_CACHE_H_
#define RTQ_BUFFER_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace rtq::buffer {

class LruCache {
 public:
  /// Stable slot index of a resident page, valid until the next mutation
  /// (Insert/Erase/SetCapacity/Clear) — NOT across them.
  using Handle = uint32_t;
  static constexpr Handle kNullHandle = UINT32_MAX;

  explicit LruCache(PageCount capacity);

  /// Changes capacity; evicts LRU entries if shrinking below current size.
  void SetCapacity(PageCount capacity);

  /// Resident slot of `key`, or kNullHandle. No counters, no promotion —
  /// for probing several pages before deciding (pair with Touch).
  Handle Find(uint64_t key) const;

  /// Counts a hit and promotes the (resident) slot to MRU.
  void Touch(Handle h);

  /// True (and counts a hit + promotes to MRU) when `key` is resident;
  /// counts a miss otherwise.
  bool Lookup(uint64_t key);

  /// True without promoting or counting.
  bool Contains(uint64_t key) const { return Find(key) != kNullHandle; }

  /// Inserts `key` as MRU, evicting the LRU page if full. No-op for a
  /// resident key beyond promotion (no hit is counted), and for zero
  /// capacity.
  void Insert(uint64_t key);

  /// Removes a specific page if present (e.g. invalidation on write).
  void Erase(uint64_t key);

  void Clear();

  /// Resident keys in recency order (MRU first) — the snapshot digest's
  /// view of cache contents, where order matters as much as membership.
  std::vector<uint64_t> Keys() const;

  PageCount size() const { return static_cast<PageCount>(size_); }
  PageCount capacity() const { return capacity_; }
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }

 private:
  struct Node {
    uint64_t key;
    uint32_t prev;
    uint32_t next;
  };

  void LinkFront(uint32_t slot);
  void Unlink(uint32_t slot);
  void EvictToCapacity();

  /// Home bucket of `key`. Fibonacci hashing spreads the clustered
  /// (disk, page) keys of BufferPool::PageKey across the table.
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  /// The bucket holding `key`, or the empty bucket ending its probe. The
  /// table must be non-empty.
  size_t Probe(uint64_t key) const;
  /// Empties `bucket`, shifting later entries of its probe run back so
  /// no lookup stops early.
  void EraseBucket(size_t bucket);
  /// Doubles the table (16 buckets at first) and re-inserts every key.
  void Grow();

  PageCount capacity_;
  /// Slot per bucket, kNullHandle when empty; size 0 or a power of two.
  std::vector<uint32_t> table_;
  /// 64 - log2(table_.size()): Home() keeps the hash's top bits.
  int shift_ = 64;
  size_t size_ = 0;
  std::vector<Node> nodes_;
  std::vector<uint32_t> free_slots_;
  uint32_t head_ = kNullHandle;  // MRU
  uint32_t tail_ = kNullHandle;  // LRU
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

}  // namespace rtq::buffer

#endif  // RTQ_BUFFER_LRU_CACHE_H_
