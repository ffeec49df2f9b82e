#include "buffer/lru_cache.h"

#include <algorithm>

#include "common/check.h"

namespace rtq::buffer {

LruCache::LruCache(PageCount capacity) : capacity_(capacity) {
  RTQ_CHECK_MSG(capacity >= 0, "LRU capacity must be >= 0");
}

void LruCache::SetCapacity(PageCount capacity) {
  RTQ_CHECK_MSG(capacity >= 0, "LRU capacity must be >= 0");
  capacity_ = capacity;
  EvictToCapacity();
}

void LruCache::LinkFront(uint32_t slot) {
  Node& n = nodes_[slot];
  n.prev = kNullHandle;
  n.next = head_;
  if (head_ != kNullHandle) nodes_[head_].prev = slot;
  head_ = slot;
  if (tail_ == kNullHandle) tail_ = slot;
}

void LruCache::Unlink(uint32_t slot) {
  Node& n = nodes_[slot];
  if (n.prev != kNullHandle) {
    nodes_[n.prev].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kNullHandle) {
    nodes_[n.next].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
}

void LruCache::EvictToCapacity() {
  while (static_cast<PageCount>(size_) > capacity_) {
    uint32_t victim = tail_;
    RTQ_DCHECK(victim != kNullHandle);
    Unlink(victim);
    EraseBucket(Probe(nodes_[victim].key));
    free_slots_.push_back(victim);
  }
}

size_t LruCache::Probe(uint64_t key) const {
  const size_t mask = table_.size() - 1;
  size_t b = Home(key);
  while (table_[b] != kNullHandle && nodes_[table_[b]].key != key) {
    b = (b + 1) & mask;
  }
  return b;
}

void LruCache::EraseBucket(size_t bucket) {
  const size_t mask = table_.size() - 1;
  size_t hole = bucket;
  for (size_t b = (hole + 1) & mask; table_[b] != kNullHandle;
       b = (b + 1) & mask) {
    // The entry at b may fill the hole only if its home does not lie
    // cyclically in (hole, b]: otherwise its probe would never reach it.
    const size_t home = Home(nodes_[table_[b]].key);
    if (((b - home) & mask) >= ((b - hole) & mask)) {
      table_[hole] = table_[b];
      hole = b;
    }
  }
  table_[hole] = kNullHandle;
  --size_;
}

void LruCache::Grow() {
  const size_t buckets = table_.empty() ? 16 : 2 * table_.size();
  table_.assign(buckets, kNullHandle);
  shift_ = 64 - __builtin_ctzll(buckets);
  const size_t mask = buckets - 1;
  for (uint32_t s = head_; s != kNullHandle; s = nodes_[s].next) {
    size_t b = Home(nodes_[s].key);
    while (table_[b] != kNullHandle) b = (b + 1) & mask;
    table_[b] = s;
  }
}

LruCache::Handle LruCache::Find(uint64_t key) const {
  return table_.empty() ? kNullHandle : table_[Probe(key)];
}

void LruCache::Touch(Handle h) {
  RTQ_DCHECK(h < nodes_.size());
  ++hits_;
  if (head_ == h) return;
  Unlink(h);
  LinkFront(h);
}

bool LruCache::Lookup(uint64_t key) {
  Handle h = Find(key);
  if (h == kNullHandle) {
    ++misses_;
    return false;
  }
  Touch(h);
  return true;
}

void LruCache::Insert(uint64_t key) {
  if (capacity_ == 0) return;
  // The new key may briefly make size_ exceed capacity_ until the LRU
  // page is evicted; keep the load factor at most 1/2 counting it.
  if (2 * (size_ + 1) > table_.size()) Grow();
  // One probe covers both the residency check and the insert.
  const size_t b = Probe(key);
  if (table_[b] != kNullHandle) {
    // Resident: promote only, no hit counted (matches the historical
    // std::list splice semantics the state digests pin).
    Handle h = table_[b];
    if (head_ != h) {
      Unlink(h);
      LinkFront(h);
    }
    return;
  }
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(Node{0, kNullHandle, kNullHandle});
  }
  nodes_[slot].key = key;
  LinkFront(slot);
  table_[b] = slot;
  ++size_;
  EvictToCapacity();
}

void LruCache::Erase(uint64_t key) {
  if (table_.empty()) return;
  const size_t b = Probe(key);
  const uint32_t slot = table_[b];
  if (slot == kNullHandle) return;
  Unlink(slot);
  EraseBucket(b);
  free_slots_.push_back(slot);
}

void LruCache::Clear() {
  for (uint32_t s = head_; s != kNullHandle; s = nodes_[s].next) {
    free_slots_.push_back(s);
  }
  std::fill(table_.begin(), table_.end(), kNullHandle);
  size_ = 0;
  head_ = tail_ = kNullHandle;
}

std::vector<uint64_t> LruCache::Keys() const {
  std::vector<uint64_t> keys;
  keys.reserve(size_);
  for (uint32_t s = head_; s != kNullHandle; s = nodes_[s].next) {
    keys.push_back(nodes_[s].key);
  }
  return keys;
}

}  // namespace rtq::buffer
