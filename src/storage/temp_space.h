// Temporary-file space allocator.
//
// The paper places temporary files on the inner or outer cylinders of each
// disk (relations occupy the middle band). TempSpace manages those two
// arenas per disk with a coalescing free list, and spreads
// allocations across disks round-robin so spill traffic does not pile
// onto one spindle.

#ifndef RTQ_STORAGE_TEMP_SPACE_H_
#define RTQ_STORAGE_TEMP_SPACE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/database.h"

namespace rtq::storage {

/// A granted temp extent. Valid until Free()d.
struct TempFile {
  DiskId disk = -1;
  PageCount start_page = 0;
  PageCount pages = 0;
  /// Internal handle used by Free(); opaque to callers.
  uint64_t handle = 0;
};

class TempSpace {
 public:
  /// Builds per-disk arenas from the database layout: [0, relation_begin)
  /// is the outer arena, [relation_end, capacity) the inner arena.
  TempSpace(const Database& db, const model::DiskParams& disk_params);

  /// Allocates `pages` contiguous pages. Tries the preferred disk first
  /// (pass -1 for "no preference"), then the other disks round-robin.
  /// Fails with OutOfRange when no disk has a large-enough hole.
  StatusOr<TempFile> Allocate(PageCount pages, DiskId preferred = -1);

  /// Returns an extent to the free pool, coalescing with neighbours.
  void Free(const TempFile& file);

  PageCount free_pages(DiskId disk) const;
  PageCount total_free_pages() const;
  int64_t live_allocations() const { return live_allocations_; }

 private:
  struct Hole {
    PageCount start = 0;
    PageCount pages = 0;
  };
  struct DiskArena {
    // Sorted by start, non-overlapping, coalesced. A disk holds a handful
    // of holes, so the vector stays small and its growth stops at the
    // high-water mark.
    std::vector<Hole> holes;
    PageCount free_pages = 0;
  };

  StatusOr<TempFile> AllocateOn(DiskId disk, PageCount pages);

  /// Middle of the relation band per disk; allocations are placed in the
  /// hole position closest to it, so temp traffic seeks as little as
  /// possible from the clustered relations.
  std::vector<PageCount> band_center_;
  std::vector<DiskArena> arenas_;
  int32_t next_disk_ = 0;  // round-robin cursor
  uint64_t next_handle_ = 1;
  int64_t live_allocations_ = 0;
};

}  // namespace rtq::storage

#endif  // RTQ_STORAGE_TEMP_SPACE_H_
