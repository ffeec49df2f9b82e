// The buffer pool: reservations + LRU for the remainder.
//
// Paper Section 4.2: "A reservation mechanism allows query operators,
// including sorts and joins, to reserve buffers for use as workspaces.
// These reserved buffers are managed by the operators themselves, while
// page replacement for non-reserved buffers is handled according to the
// LRU policy."
//
// The memory-management policies (src/core) decide each query's
// reservation; the pool enforces that reservations never exceed the pool
// and resizes the LRU area to whatever is left.

#ifndef RTQ_BUFFER_BUFFER_POOL_H_
#define RTQ_BUFFER_BUFFER_POOL_H_

#include "buffer/lru_cache.h"
#include "common/status.h"
#include "common/types.h"

namespace rtq::buffer {

class BufferPool {
 public:
  explicit BufferPool(PageCount total_pages);

  /// Moves one query's reservation from `from` to `to` pages (absolute
  /// values: the engine holds each query's current one). Fails with
  /// InvalidArgument on a negative value, and with OutOfRange when the
  /// pool cannot cover the increase; a failed call changes nothing.
  Status Resize(PageCount from, PageCount to);

  PageCount total() const { return total_; }
  PageCount reserved() const { return reserved_; }
  /// Pages not reserved by anyone (the LRU area size).
  PageCount unreserved() const { return total_ - reserved_; }

  /// Page cache over the unreserved area. The pool keeps the cache's
  /// capacity in sync with unreserved().
  LruCache& page_cache() { return cache_; }
  const LruCache& page_cache() const { return cache_; }

  /// Packs (disk, page) into the LRU key space.
  static uint64_t PageKey(DiskId disk, PageCount page) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(disk)) << 40) |
           static_cast<uint64_t>(page);
  }

 private:
  PageCount total_;
  PageCount reserved_ = 0;
  LruCache cache_;
};

}  // namespace rtq::buffer

#endif  // RTQ_BUFFER_BUFFER_POOL_H_
