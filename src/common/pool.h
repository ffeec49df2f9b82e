#ifndef RTQ_COMMON_POOL_H_
#define RTQ_COMMON_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace rtq {

// Size-classed free-list pool for container nodes. Allocations up to
// kMaxBytes are served from 64KB slabs and recycled through per-class
// free lists, so a container that churns nodes (map/unordered_map on a
// hot path) stops touching the heap once its working set has been seen.
// Larger requests (e.g. unordered_map bucket arrays) fall through to
// ::operator new — those grow monotonically and stabilise after warmup.
//
// Declare the pool BEFORE any container using it so the containers are
// destroyed first.
class NodePool {
 public:
  static constexpr std::size_t kGranularity = 16;
  static constexpr std::size_t kMaxBytes = 256;
  static constexpr std::size_t kSlabBytes = 64 * 1024;

  NodePool() = default;
  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  void* Allocate(std::size_t bytes) {
    if (bytes == 0) bytes = 1;
    if (bytes > kMaxBytes) return ::operator new(bytes);
    const std::size_t cls = (bytes - 1) / kGranularity;
    if (FreeNode* n = free_[cls]) {
      free_[cls] = n->next;
      return n;
    }
    const std::size_t size = (cls + 1) * kGranularity;
    if (slab_remaining_ < size) {
      // Default-initialised: every node is constructed before it is read,
      // so zero-filling 64KB per slab would only cost setup time and RSS.
      slabs_.emplace_back(new unsigned char[kSlabBytes]);
      slab_ptr_ = slabs_.back().get();
      slab_remaining_ = kSlabBytes;
    }
    void* p = slab_ptr_;
    slab_ptr_ += size;
    slab_remaining_ -= size;
    return p;
  }

  void Deallocate(void* p, std::size_t bytes) noexcept {
    if (bytes == 0) bytes = 1;
    if (bytes > kMaxBytes) {
      ::operator delete(p);
      return;
    }
    const std::size_t cls = (bytes - 1) / kGranularity;
    auto* n = static_cast<FreeNode*>(p);
    n->next = free_[cls];
    free_[cls] = n;
  }

  std::size_t slab_count() const { return slabs_.size(); }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  FreeNode* free_[kMaxBytes / kGranularity] = {};
  std::vector<std::unique_ptr<unsigned char[]>> slabs_;
  unsigned char* slab_ptr_ = nullptr;
  std::size_t slab_remaining_ = 0;
};

// Std-compatible allocator over a NodePool. Default-constructed
// (nullptr-pool) instances go straight to the heap, keeping the type
// usable where no pool is wired up. Allocators compare equal only when
// they share a pool, so containers with different pools move
// element-wise instead of stealing nodes across pools.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "over-aligned types not supported");

  PoolAllocator() noexcept : pool_(nullptr) {}
  explicit PoolAllocator(NodePool* pool) noexcept : pool_(pool) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) noexcept  // NOLINT
      : pool_(other.pool()) {}

  T* allocate(std::size_t n) {
    if (pool_ != nullptr) {
      return static_cast<T*>(pool_->Allocate(n * sizeof(T)));
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (pool_ != nullptr) {
      pool_->Deallocate(p, n * sizeof(T));
    } else {
      ::operator delete(p);
    }
  }

  NodePool* pool() const { return pool_; }

  friend bool operator==(const PoolAllocator& a, const PoolAllocator& b) {
    return a.pool_ == b.pool_;
  }
  friend bool operator!=(const PoolAllocator& a, const PoolAllocator& b) {
    return !(a == b);
  }

 private:
  NodePool* pool_;
};

}  // namespace rtq

#endif  // RTQ_COMMON_POOL_H_
