// Disk timing and geometry model (paper Table 3 + Section 4.2).
//
// DiskAccess = Seek + RotateDelay + Transfer, with the [Bitt88] seek
// model Seek(n) = SeekFactor * sqrt(n) across n cylinders. The default
// parameters reproduce the paper's disk: 16.7 ms rotation, 1500 cylinders
// of 90 pages, 8 KB pages, SeekFactor 0.617 ms.

#ifndef RTQ_MODEL_DISK_GEOMETRY_H_
#define RTQ_MODEL_DISK_GEOMETRY_H_

#include "common/status.h"
#include "common/types.h"

namespace rtq::model {

struct DiskParams {
  /// Seek-time multiplier in seconds: seek(n) = seek_factor * sqrt(n).
  double seek_factor = 0.617e-3;
  /// Full-rotation time in seconds.
  double rotation_time = 16.7e-3;
  /// Cylinders per disk.
  int64_t num_cylinders = 1500;
  /// Pages per cylinder.
  PageCount cylinder_size = 90;
  /// Pages per track: one rotation streams one track past the head, so
  /// this fixes the media-transfer rate (72 KB @ 16.7 ms/rev = 4.3 MB/s).
  /// Table 3 gives only the 90-page cylinder; 9-page tracks (10 surfaces)
  /// were calibrated so Table 7's execution-time scale and the Figure 3
  /// policy ordering reproduce.
  PageCount track_size = 9;
  /// Pages the on-disk prefetch cache can hold (256 KB / 8 KB = 32).
  PageCount cache_pages = 32;

  /// Validates that every field is physically meaningful.
  Status Validate() const;

  /// Total pages addressable on the disk.
  PageCount capacity() const { return num_cylinders * cylinder_size; }
};

class DiskGeometry {
 public:
  explicit DiskGeometry(const DiskParams& params);

  const DiskParams& params() const { return params_; }

  /// Cylinder that holds absolute page address `page`.
  Cylinder CylinderOf(PageCount page) const;

  /// Seek time between cylinders; zero for a same-cylinder access.
  SimTime SeekTime(Cylinder from, Cylinder to) const;

  /// Expected rotational delay: half a rotation.
  SimTime RotationalDelay() const;

  /// Media-transfer time for `pages` consecutive pages.
  SimTime TransferTime(PageCount pages) const;

  /// Full access time for `pages` pages starting at absolute page address
  /// `start_page`, with the head currently at `head`.
  SimTime AccessTime(Cylinder head, PageCount start_page,
                     PageCount pages) const;

 private:
  DiskParams params_;
};

}  // namespace rtq::model

#endif  // RTQ_MODEL_DISK_GEOMETRY_H_
