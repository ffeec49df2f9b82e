// One disk of the engine's N-disk farm, with Earliest-Deadline queueing
// (paper Section 4.2). The engine builds SystemConfig::num_disks of
// these (Table 3 default: 10), each running its own independent elevator
// over its own queue; the database layout stripes relations across them.
//
// "Every disk manages its own queue by the ED policy; any disk requests
// that ED assigns the same priority to are serviced according to the
// elevator algorithm." Service is non-preemptive: an access in progress
// completes even if a more urgent request arrives, and even if its issuing
// query is aborted (the callback is simply dropped in that case).
//
// Queue layout: requests are grouped by exact deadline (a small sorted
// vector of groups, earliest first); each group holds a cylinder bitmap
// plus per-cylinder intrusive FIFO lists. The scheduling decision —
// earliest deadline first, elevator sweep among deadline ties, FIFO among
// same-cylinder ties — is a front-group bitmap scan, and submit/removal
// are O(1) list splices, instead of red-black-tree descents over a queue
// that routinely holds hundreds of requests. A request that finds the disk
// idle (its queue is then empty) starts service directly, with the same
// sweep reversal the elevator pick would have made. Cancellation happens
// once per disk per deadline miss, rare next to submits, so it scans the
// queue instead of keeping a per-query index up to date on every submit.
//
// Cancellation model: CancelQuery() removes only *queued* requests. A
// request already in service keeps the disk busy until its mechanical
// access finishes — service is non-preemptive — but its completion
// callback is dropped. The cancelled query therefore still occupies the
// head for the remainder of the access; a subsequent request (even one
// resubmitted by the same query id) waits behind it and is scheduled
// normally once the access completes. Only the in-service request being
// serviced *at the time of the call* is suppressed: a resubmission under
// the same query id is a new request and completes normally.

#ifndef RTQ_MODEL_DISK_H_
#define RTQ_MODEL_DISK_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/inline_callback.h"
#include "common/types.h"
#include "model/disk_cache.h"
#include "model/disk_geometry.h"
#include "sim/simulator.h"
#include "stats/time_weighted.h"

namespace rtq::model {

/// Completion continuation. 32 bytes covers the engine's cache-insert
/// read chain (engine/rtdbs.cc: query context plus extent) inline; larger
/// captures are a compile error (common/inline_callback.h).
using DiskCallback = InlineCallback<32>;

struct DiskRequest {
  QueryId query = kInvalidQueryId;
  /// ED priority: earlier deadline is served first.
  SimTime deadline = kNoDeadline;
  /// Absolute page address of the first page of the access.
  PageCount start_page = 0;
  /// Number of consecutive pages transferred.
  PageCount pages = 1;
  bool is_write = false;
  /// Invoked at completion time. Dropped if the query was cancelled.
  DiskCallback on_complete;
};

class Disk {
 public:
  Disk(sim::Simulator* sim, const DiskParams& params, DiskId id);

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Enqueues a request; service starts immediately if the disk is idle.
  void Submit(DiskRequest request);

  /// Removes all queued requests belonging to `query` and drops the
  /// completion callback of an in-service request of that query (the
  /// mechanical access itself still finishes; see the cancellation model
  /// above). Returns the number of queued requests removed.
  int64_t CancelQuery(QueryId query);

  /// Fraction of time the disk was busy since construction.
  double Utilization(SimTime now) const { return busy_.Average(now); }
  /// Total busy seconds since construction (windowed utilizations are
  /// computed by differencing snapshots of this integral).
  double busy_seconds(SimTime now) const { return busy_.Integral(now); }

  DiskId id() const { return id_; }
  const DiskGeometry& geometry() const { return geometry_; }
  Cylinder head() const { return head_; }
  bool busy() const { return in_service_; }
  size_t queue_length() const { return static_cast<size_t>(queued_count_); }

  /// Lifetime counters, for metrics and tests.
  int64_t completed_requests() const { return completed_requests_; }
  int64_t completed_pages() const { return completed_pages_; }
  int64_t cache_hits() const { return cache_hits_; }

 private:
  struct DeadlineGroup;

  /// One queued request, doubly linked into its (group, cylinder) FIFO
  /// (circular; tail == head->fifo_prev). A free node is linked into
  /// free_nodes_ through fifo_next.
  struct RequestNode {
    DiskRequest req;
    RequestNode* fifo_prev;
    RequestNode* fifo_next;
    DeadlineGroup* group;
    Cylinder cyl;
  };

  /// Request nodes are built on demand in blocks of this many bytes,
  /// each reserved whole when it is opened, so the nodes never move and
  /// a block's untouched tail costs no resident memory.
  static constexpr size_t kNodeBlockBytes = 64 * 1024;
  static constexpr size_t kNodesPerBlock =
      kNodeBlockBytes / sizeof(RequestNode);

  /// All queued requests sharing one exact deadline. `bits` marks the
  /// cylinders with a non-empty FIFO; `heads[cyl]` is only meaningful
  /// while the cylinder's bit is set, which is what lets a recycled
  /// group reset with a bitmap memset instead of clearing the 12 KB
  /// heads array.
  struct DeadlineGroup {
    int64_t count = 0;
    DeadlineGroup* next_free = nullptr;
    std::unique_ptr<uint64_t[]> bits;       // bitmap_words_ words
    std::unique_ptr<RequestNode*[]> heads;  // num_cylinders entries
  };

  /// Picks the next request per ED + elevator and starts service.
  void StartNext();
  /// Starts servicing current_.
  void StartService();
  void OnServiceComplete();

  /// Chooses the next request: earliest-deadline group (front of
  /// groups_), nearest non-empty cylinder in the sweep direction
  /// (bitmap scan), FIFO head within that cylinder.
  RequestNode* PickByElevator();

  /// Finds (or creates, via the free list) the group for `deadline`.
  DeadlineGroup* GroupFor(SimTime deadline);

  /// A free node: recycled, else built in the open block.
  RequestNode* NewNode();
  /// Unlinks `node` from its group's FIFO, drops its callback and frees
  /// it. The caller retires the group once its count reaches zero.
  void RemoveFromQueue(RequestNode* node);
  /// Returns the drained group at groups_[index] to the free list.
  void RetireGroup(size_t index);

  sim::Simulator* sim_;
  DiskGeometry geometry_;
  DiskCache cache_;
  DiskId id_;

  /// Every request node ever built; grows to the queue's high-water
  /// mark, after which submits recycle free nodes.
  std::vector<std::vector<RequestNode>> node_blocks_;
  RequestNode* free_nodes_ = nullptr;
  /// Every deadline group ever built, live or free.
  std::vector<std::unique_ptr<DeadlineGroup>> group_storage_;
  /// Live deadline groups, sorted ascending by deadline (exact-equality
  /// grouping, same as the former (deadline, cylinder, seq) map key).
  /// Distinct live deadlines number in the tens, so the vector stays
  /// small and its front() is the ED pick.
  std::vector<std::pair<SimTime, DeadlineGroup*>> groups_;
  DeadlineGroup* free_groups_ = nullptr;
  size_t bitmap_words_;
  int64_t queued_count_ = 0;
  bool in_service_ = false;
  DiskRequest current_;
  bool current_cancelled_ = false;

  Cylinder head_ = 0;
  bool sweep_up_ = true;  // elevator direction

  stats::TimeWeightedAverage busy_;
  int64_t completed_requests_ = 0;
  int64_t completed_pages_ = 0;
  int64_t cache_hits_ = 0;
};

}  // namespace rtq::model

#endif  // RTQ_MODEL_DISK_H_
