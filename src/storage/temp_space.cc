#include "storage/temp_space.h"

#include <algorithm>
#include <iterator>
#include <string>

#include "common/check.h"

namespace rtq::storage {

TempSpace::TempSpace(const Database& db,
                     const model::DiskParams& disk_params) {
  arenas_.resize(db.num_disks());
  band_center_.resize(db.num_disks());
  for (DiskId d = 0; d < db.num_disks(); ++d) {
    band_center_[d] =
        (db.relation_area_begin(d) + db.relation_area_end(d)) / 2;
    DiskArena& arena = arenas_[d];
    PageCount outer_len = db.relation_area_begin(d);
    if (outer_len > 0) {
      arena.holes.push_back({0, outer_len});
      arena.free_pages += outer_len;
    }
    PageCount inner_start = db.relation_area_end(d);
    PageCount inner_len = disk_params.capacity() - inner_start;
    if (inner_len > 0) {
      arena.holes.push_back({inner_start, inner_len});
      arena.free_pages += inner_len;
    }
  }
}

StatusOr<TempFile> TempSpace::AllocateOn(DiskId disk, PageCount pages) {
  DiskArena& arena = arenas_[disk];
  if (arena.free_pages < pages)
    return Status::OutOfRange("disk temp arena full");
  // Best-fit by proximity: among holes large enough, carve the extent at
  // the position nearest the relation band so temp seeks stay short.
  PageCount center = band_center_[disk];
  std::vector<Hole>& holes = arena.holes;
  auto best = holes.end();
  PageCount best_start = 0;
  PageCount best_dist = 0;
  for (auto it = holes.begin(); it != holes.end(); ++it) {
    if (it->pages < pages) continue;
    PageCount hole_begin = it->start;
    PageCount hole_end = it->start + it->pages;
    // Candidate position inside this hole closest to the band center.
    PageCount start;
    if (hole_end <= center) {
      start = hole_end - pages;  // hole below the band: carve from its top
    } else if (hole_begin >= center) {
      start = hole_begin;  // hole above the band: carve from its bottom
    } else {
      start = std::min(std::max(center - pages / 2, hole_begin),
                       hole_end - pages);
    }
    PageCount mid = start + pages / 2;
    PageCount dist = mid > center ? mid - center : center - mid;
    if (best == holes.end() || dist < best_dist) {
      best = it;
      best_start = start;
      best_dist = dist;
    }
  }
  if (best == holes.end())
    return Status::OutOfRange("fragmented: no hole large enough");

  TempFile file;
  file.disk = disk;
  file.start_page = best_start;
  file.pages = pages;
  file.handle = next_handle_++;

  // Replace the hole by what is left of it below and above the extent.
  const Hole hole = *best;
  const PageCount end = best_start + pages;
  auto at = holes.erase(best);
  if (end < hole.start + hole.pages) {
    at = holes.insert(at, Hole{end, hole.start + hole.pages - end});
  }
  if (best_start > hole.start) {
    holes.insert(at, Hole{hole.start, best_start - hole.start});
  }
  arena.free_pages -= pages;
  ++live_allocations_;
  return file;
}

StatusOr<TempFile> TempSpace::Allocate(PageCount pages, DiskId preferred) {
  RTQ_CHECK_MSG(pages > 0, "temp allocation must be > 0 pages");
  int32_t n = static_cast<int32_t>(arenas_.size());
  if (preferred >= 0 && preferred < n) {
    auto result = AllocateOn(preferred, pages);
    if (result.ok()) return result;
  }
  for (int32_t i = 0; i < n; ++i) {
    DiskId d = next_disk_;
    next_disk_ = (next_disk_ + 1) % n;
    if (d == preferred) continue;
    auto result = AllocateOn(d, pages);
    if (result.ok()) return result;
  }
  return Status::OutOfRange("no temp space for " + std::to_string(pages) +
                            " pages on any disk");
}

void TempSpace::Free(const TempFile& file) {
  RTQ_CHECK_MSG(file.disk >= 0 &&
                    file.disk < static_cast<DiskId>(arenas_.size()),
                "bad temp file disk");
  RTQ_CHECK_MSG(file.pages > 0, "freeing empty temp file");
  DiskArena& arena = arenas_[file.disk];
  std::vector<Hole>& holes = arena.holes;

  // The first hole starting at or after the extent, and the one before.
  auto next = std::lower_bound(
      holes.begin(), holes.end(), file.start_page,
      [](const Hole& h, PageCount start) { return h.start < start; });
  auto prev = next == holes.begin() ? holes.end() : std::prev(next);
  const PageCount end = file.start_page + file.pages;
  RTQ_CHECK_MSG((prev == holes.end() ||
                 prev->start + prev->pages <= file.start_page) &&
                    (next == holes.end() || end <= next->start),
                "double free of temp extent");
  arena.free_pages += file.pages;
  --live_allocations_;

  // Coalesce with the neighbours the extent touches.
  const bool joins_prev =
      prev != holes.end() && prev->start + prev->pages == file.start_page;
  const bool joins_next = next != holes.end() && end == next->start;
  if (joins_prev && joins_next) {
    prev->pages += file.pages + next->pages;
    holes.erase(next);
  } else if (joins_prev) {
    prev->pages += file.pages;
  } else if (joins_next) {
    next->start = file.start_page;
    next->pages += file.pages;
  } else {
    holes.insert(next, Hole{file.start_page, file.pages});
  }
}

PageCount TempSpace::free_pages(DiskId disk) const {
  RTQ_CHECK_MSG(disk >= 0 && disk < static_cast<DiskId>(arenas_.size()),
                "bad disk id");
  return arenas_[disk].free_pages;
}

PageCount TempSpace::total_free_pages() const {
  PageCount total = 0;
  for (const DiskArena& a : arenas_) total += a.free_pages;
  return total;
}

}  // namespace rtq::storage
