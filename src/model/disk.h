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
// vector of groups, earliest first), so the ED pick is the front group.
// A group holding one request keeps it inline and picks it with the
// same sweep reversal as an idle direct start. A group that gains a
// second request borrows a cylinder bitmap plus a per-cylinder FIFO-head
// array from a per-disk pool; the pick is then a bitmap scan from the
// head in the sweep direction, FIFO within a cylinder, and submit/removal
// are O(1) list splices. Traffic fits this split: a query has one read
// in flight, carrying its own deadline, so most groups hold one read,
// while the deep part of a queue is background spool writes sharing
// kNoDeadline in one spread group. A queued request is a 40-byte node
// in fixed-size blocks, linked by 32-bit indices; its deadline lives in
// its group and its callback, if it has one, in a recycled side slot.
// A request that finds the disk idle (its queue is then empty) starts
// service directly. Cancellation happens once per disk per deadline
// miss, rare next to submits, so it scans the queue instead of keeping a
// per-query index up to date on every submit.
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
  /// The null index of nodes, callback slots and pooled arrays.
  static constexpr uint32_t kNil = ~uint32_t{0};

  /// Index-addressed pool grown in blocks of 2^Shift elements, so
  /// elements never move and opening a block is the only allocation.
  /// Freed elements are recycled first, linked through their `Link`
  /// field. New elements are default-initialised: a trivial type leaves
  /// a block's untouched tail unwritten.
  template <typename T, int Shift, uint32_t T::*Link>
  class Pool {
   public:
    T& operator[](uint32_t i) {
      return blocks_[i >> Shift][i & ((uint32_t{1} << Shift) - 1)];
    }
    /// Index of a free element; indices stay below kNil.
    uint32_t New();
    void Free(uint32_t i) {
      (*this)[i].*Link = free_;
      free_ = i;
    }

   private:
    std::vector<std::unique_ptr<T[]>> blocks_;
    uint32_t size_ = 0;
    uint32_t free_ = kNil;
  };

  /// One queued request. Its deadline is its group's. A node in a spread
  /// group is doubly linked into its cylinder's circular FIFO (tail ==
  /// head's prev); a free node is linked through next.
  struct Node {
    QueryId query;
    PageCount start_page;
    uint32_t pages;
    uint32_t cyl;
    uint32_t prev;
    uint32_t next;
    uint32_t callback;  // slot in callbacks_, kNil when none
    bool is_write;
  };
  static_assert(sizeof(Node) == 40, "a queued request is 40 bytes");

  /// A queued request's completion callback.
  struct CallbackSlot {
    DiskCallback fn;
    uint32_t next_free;
  };

  /// All queued requests sharing one exact deadline. While `arrays` is
  /// kNil the group holds exactly one request, `single`.
  struct Group {
    SimTime deadline;
    uint32_t count;
    uint32_t single;
    uint32_t arrays;  // index into arrays_ once spread
  };

  /// A spread group's cylinder bitmap and FIFO heads. `heads[cyl]` is
  /// only meaningful while the cylinder's bit is set, and a group hands
  /// its arrays back once drained, bits all clear, so reuse needs no
  /// reset. Both are allocated when the set is first handed out.
  struct ElevatorArrays {
    std::unique_ptr<uint64_t[]> bits;   // bitmap_words_ words
    std::unique_ptr<uint32_t[]> heads;  // num_cylinders entries
    uint32_t next_free;
  };

  /// Picks the next request per ED + elevator and starts service.
  void StartNext();
  /// Starts servicing current_.
  void StartService();
  void OnServiceComplete();

  /// Reverses the sweep if `cyl` lies behind the head: the elevator's
  /// choice when `cyl` is the only candidate.
  void SweepToward(Cylinder cyl) {
    if (sweep_up_ ? cyl < head_ : cyl > head_) sweep_up_ = !sweep_up_;
  }
  /// Nearest non-empty cylinder in the sweep direction (reversing when
  /// none lies ahead), FIFO head within it.
  uint32_t PickByElevator(const ElevatorArrays& a);

  /// Gives a one-request group pooled arrays holding that request.
  void Spread(Group& g);
  /// Appends node `n` to its cylinder's FIFO in `a`.
  void Link(ElevatorArrays& a, uint32_t n);
  /// Unlinks node `n` from group `g` and frees it and its callback
  /// slot. The caller retires the group once its count reaches zero.
  void Remove(Group& g, uint32_t n);
  /// Erases the drained group at groups_[index], returning its arrays.
  void RetireGroup(size_t index);

  sim::Simulator* sim_;
  DiskGeometry geometry_;
  DiskCache cache_;
  DiskId id_;

  /// Every node, callback slot and array set ever built; each grows to
  /// its high-water mark, after which submits recycle free ones. Blocks
  /// are small (256 nodes, 10 KB) because queue high waters vary from
  /// none to thousands across disks, and a block carved from memory a
  /// finished session freed is resident whole. Only queued reads carry
  /// callbacks, a handful per disk.
  Pool<Node, 8, &Node::next> nodes_;
  Pool<CallbackSlot, 3, &CallbackSlot::next_free> callbacks_;
  Pool<ElevatorArrays, 2, &ElevatorArrays::next_free> arrays_;
  /// Live deadline groups, sorted ascending by deadline (exact-equality
  /// grouping). Distinct live deadlines number in the tens, so the
  /// vector stays small and its front() is the ED pick.
  std::vector<Group> groups_;
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
