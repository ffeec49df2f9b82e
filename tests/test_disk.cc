#include "model/disk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace rtq::model {
namespace {

DiskRequest MakeRequest(QueryId q, SimTime deadline, PageCount start,
                        PageCount pages, std::function<void()> cb,
                        bool write = false) {
  DiskRequest r;
  r.query = q;
  r.deadline = deadline;
  r.start_page = start;
  r.pages = pages;
  r.is_write = write;
  r.on_complete = std::move(cb);
  return r;
}

TEST(Disk, SingleRequestTiming) {
  sim::Simulator sim;
  DiskParams params;
  Disk disk(&sim, params, 0);
  SimTime done_at = -1.0;
  PageCount start = 90 * 10;  // cylinder 10
  disk.Submit(MakeRequest(1, 100.0, start, 6,
                          [&] { done_at = sim.Now(); }));
  sim.RunToCompletion();
  DiskGeometry geom(params);
  EXPECT_NEAR(done_at, geom.AccessTime(0, start, 6), 1e-9);
  EXPECT_EQ(disk.completed_requests(), 1);
  EXPECT_EQ(disk.completed_pages(), 6);
}

TEST(Disk, EarliestDeadlineServedFirst) {
  sim::Simulator sim;
  Disk disk(&sim, DiskParams(), 0);
  std::vector<int> order;
  // Queue three while the first is in service.
  disk.Submit(MakeRequest(1, 50.0, 0, 6, [&] { order.push_back(1); }));
  disk.Submit(MakeRequest(2, 300.0, 900, 6, [&] { order.push_back(2); }));
  disk.Submit(MakeRequest(3, 100.0, 1800, 6, [&] { order.push_back(3); }));
  disk.Submit(MakeRequest(4, 200.0, 2700, 6, [&] { order.push_back(4); }));
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4, 2}));
}

TEST(Disk, ElevatorBreaksDeadlineTies) {
  sim::Simulator sim;
  Disk disk(&sim, DiskParams(), 0);
  std::vector<int> order;
  // Same deadline: elevator order by cylinder from head position 0,
  // sweeping up.
  disk.Submit(MakeRequest(1, 50.0, 90 * 200, 6, [&] { order.push_back(1); }));
  disk.Submit(MakeRequest(2, 50.0, 90 * 400, 6, [&] { order.push_back(2); }));
  disk.Submit(MakeRequest(3, 50.0, 90 * 100, 6, [&] { order.push_back(3); }));
  disk.Submit(MakeRequest(4, 50.0, 90 * 300, 6, [&] { order.push_back(4); }));
  sim.RunToCompletion();
  // First request starts service immediately (head 0 -> cyl 200); the
  // rest are tie-broken by the sweep: from cyl 200 upward: 300, 400, then
  // reverse to 100.
  EXPECT_EQ(order, (std::vector<int>{1, 4, 2, 3}));
}

TEST(Disk, CancelQueryRemovesQueuedRequests) {
  sim::Simulator sim;
  Disk disk(&sim, DiskParams(), 0);
  int fired = 0;
  disk.Submit(MakeRequest(1, 10.0, 0, 6, [&] { ++fired; }));
  disk.Submit(MakeRequest(2, 20.0, 900, 6, [&] { ++fired; }));
  disk.Submit(MakeRequest(2, 30.0, 1800, 6, [&] { ++fired; }));
  EXPECT_EQ(disk.CancelQuery(2), 2);
  sim.RunToCompletion();
  EXPECT_EQ(fired, 1);
}

TEST(Disk, CancelInServiceDropsCallbackButFinishesAccess) {
  sim::Simulator sim;
  Disk disk(&sim, DiskParams(), 0);
  int fired = 0;
  disk.Submit(MakeRequest(1, 10.0, 0, 6, [&] { ++fired; }));
  EXPECT_EQ(disk.CancelQuery(1), 0);  // in service, not queued
  sim.RunToCompletion();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(disk.completed_requests(), 1);  // access still completed
}

// Regression test for the documented cancellation model: cancelling an
// in-service request leaves the access occupying the head (only its
// callback is dropped), and a resubmission under the same query id is a
// brand-new request that must complete normally behind it.
TEST(Disk, CancelInServiceThenResubmitCompletesNormally) {
  sim::Simulator sim;
  Disk disk(&sim, DiskParams(), 0);
  int old_fired = 0;
  int new_fired = 0;
  disk.Submit(MakeRequest(1, 10.0, 0, 6, [&] { ++old_fired; }));
  EXPECT_TRUE(disk.busy());  // started service immediately
  EXPECT_EQ(disk.CancelQuery(1), 0);  // in service: nothing queued removed
  // Resubmit while the cancelled access still holds the head.
  disk.Submit(MakeRequest(1, 10.0, 900, 6, [&] { ++new_fired; }));
  sim.RunToCompletion();
  EXPECT_EQ(old_fired, 0);  // suppressed by the cancel
  EXPECT_EQ(new_fired, 1);  // the resubmission is not suppressed
  EXPECT_EQ(disk.completed_requests(), 2);  // both accesses finished
  EXPECT_EQ(disk.queue_length(), 0u);
}

TEST(Disk, UtilizationTracksBusyTime) {
  sim::Simulator sim;
  DiskParams params;
  Disk disk(&sim, params, 0);
  disk.Submit(MakeRequest(1, 10.0, 0, 6, [] {}));
  sim.RunToCompletion();
  SimTime busy = DiskGeometry(params).AccessTime(0, 0, 6);
  EXPECT_NEAR(disk.busy_seconds(sim.Now()), busy, 1e-9);
  sim.RunUntil(sim.Now() + busy);  // idle for an equal period
  EXPECT_NEAR(disk.Utilization(sim.Now()), 0.5, 1e-6);
}

TEST(Disk, SequentialRereadHitsPrefetchCache) {
  sim::Simulator sim;
  Disk disk(&sim, DiskParams(), 0);
  disk.Submit(MakeRequest(1, 10.0, 0, 6, [] {}));
  sim.RunToCompletion();
  SimTime before = sim.Now();
  disk.Submit(MakeRequest(1, 10.0, 2, 3, [] {}));  // subset of cached range
  sim.RunToCompletion();
  EXPECT_EQ(disk.cache_hits(), 1);
  EXPECT_LT(sim.Now() - before, 1e-3);  // served at cache speed
}

TEST(Disk, WriteInvalidatesCache) {
  sim::Simulator sim;
  Disk disk(&sim, DiskParams(), 0);
  disk.Submit(MakeRequest(1, 10.0, 0, 6, [] {}));
  sim.RunToCompletion();
  disk.Submit(MakeRequest(1, 10.0, 100, 6, [] {}, /*write=*/true));
  sim.RunToCompletion();
  disk.Submit(MakeRequest(1, 10.0, 0, 6, [] {}));
  sim.RunToCompletion();
  EXPECT_EQ(disk.cache_hits(), 0);
}

TEST(Disk, HeadMovesToEndOfAccess) {
  sim::Simulator sim;
  Disk disk(&sim, DiskParams(), 0);
  disk.Submit(MakeRequest(1, 10.0, 90 * 7, 6, [] {}));
  sim.RunToCompletion();
  EXPECT_EQ(disk.head(), 7);
}

TEST(Disk, RejectsRequestsBeyondCapacity) {
  sim::Simulator sim;
  DiskParams params;
  Disk disk(&sim, params, 0);
  EXPECT_DEATH(
      disk.Submit(MakeRequest(1, 1.0, params.capacity() - 2, 6, [] {})),
      "capacity");
}

// A queued request keeps its page count and cylinder in 32 bits, so a
// disk refuses geometry and requests that would not fit rather than
// truncate them.
TEST(Disk, RejectsCylinderCountBeyond32Bits) {
  sim::Simulator sim;
  DiskParams params;
  params.num_cylinders = int64_t{1} << 32;
  EXPECT_DEATH({ Disk disk(&sim, params, 0); }, "num_cylinders");
}

TEST(Disk, RejectsPageCountBeyond32Bits) {
  sim::Simulator sim;
  DiskParams params;
  params.cylinder_size = int64_t{1} << 32;
  params.track_size = 8;
  Disk disk(&sim, params, 0);
  EXPECT_DEATH(disk.Submit(MakeRequest(1, 1.0, 0, (int64_t{1} << 32) + 1,
                                       [] {})),
               "pages must fit");
}

TEST(Disk, BackgroundDeadlineSortsLast) {
  sim::Simulator sim;
  Disk disk(&sim, DiskParams(), 0);
  std::vector<int> order;
  disk.Submit(MakeRequest(1, 10.0, 0, 6, [&] { order.push_back(1); }));
  // Background write (infinite deadline) queued before an urgent read.
  disk.Submit(MakeRequest(2, kNoDeadline, 900, 6,
                          [&] { order.push_back(2); }, true));
  disk.Submit(MakeRequest(3, 99.0, 1800, 6, [&] { order.push_back(3); }));
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

// A request that finds the disk idle starts at once, but the elevator
// state must end up as if the pick had run: a request behind the head
// reverses the sweep, which decides the order of later deadline ties.
TEST(Disk, IdleDirectStartBehindHeadReversesSweep) {
  sim::Simulator sim;
  Disk disk(&sim, DiskParams(), 0);
  std::vector<int> order;
  disk.Submit(MakeRequest(1, 50.0, 90 * 10, 6, [&] { order.push_back(1); }));
  sim.RunToCompletion();
  EXPECT_EQ(disk.head(), 10);
  // Idle disk, sweeping up, request behind the head at cylinder 5.
  disk.Submit(MakeRequest(2, 50.0, 90 * 5, 6, [&] { order.push_back(2); }));
  EXPECT_TRUE(disk.busy());
  EXPECT_EQ(disk.queue_length(), 0u);
  // Deadline ties on both sides of cylinder 5: the reversed (downward)
  // sweep takes cylinder 2 first, then reverses again for cylinder 8.
  disk.Submit(MakeRequest(3, 50.0, 90 * 8, 6, [&] { order.push_back(3); }));
  disk.Submit(MakeRequest(4, 50.0, 90 * 2, 6, [&] { order.push_back(4); }));
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
  EXPECT_EQ(disk.head(), 8);
}

// Drives a Disk and a reference written from the header contract alone
// (the same pattern as the EventQueue and DiskCache fuzz tests) side by
// side: a flat request list scanned for the earliest deadline, the
// nearest cylinder in the sweep direction (reversing when none lies
// ahead), and submission order within a cylinder. Service timing is the
// geometry's and the prefetch cache's own business (both fuzzed
// separately), so the reference reuses them and steps one completion at a
// time. Each request's callback reports a payload; Matches() compares
// the delivered payloads and the disk's observable state.
class DiskVsReference {
 public:
  struct Req {
    QueryId query;
    SimTime deadline;
    PageCount start;
    PageCount pages;
    bool is_write;
    bool has_callback;
    Cylinder cyl;
    uint64_t seq;
  };

  explicit DiskVsReference(const DiskParams& params)
      : disk_(&sim_, params, 0), geom_(params), cache_(params.cache_pages) {}

  void Submit(QueryId query, SimTime deadline, PageCount start,
              PageCount pages, bool is_write, bool has_callback) {
    const Req r{query, deadline, start, pages, is_write, has_callback,
                geom_.CylinderOf(start), seq_++};
    DiskRequest req;
    req.query = query;
    req.deadline = deadline;
    req.start_page = start;
    req.pages = pages;
    req.is_write = is_write;
    if (has_callback) {
      req.on_complete = [this, payload = r.seq] { got_.push_back(payload); };
    }
    disk_.Submit(std::move(req));
    queue_.push_back(r);
    if (!busy_) StartNext();
  }

  /// Cancels `query` on both sides; returns the reference's count of
  /// removed requests (a disagreeing disk count fails Matches()).
  int64_t Cancel(QueryId query) {
    int64_t removed = 0;
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->query == query) {
        it = queue_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    if (busy_ && current_.query == query) current_cancelled_ = true;
    const int64_t disk_removed = disk_.CancelQuery(query);
    if (disk_removed != removed && cancel_mismatch_.empty()) {
      cancel_mismatch_ = "CancelQuery(" + std::to_string(query) +
                         ") removed " + std::to_string(disk_removed) +
                         ", reference " + std::to_string(removed);
    }
    return removed;
  }

  /// Completes the in-service request on both sides and returns it.
  Req Complete() {
    EXPECT_TRUE(busy_);
    EXPECT_TRUE(sim_.Step());
    busy_ = false;
    const Req done = current_;
    const bool deliver = !current_cancelled_ && done.has_callback;
    StartNext();
    if (deliver) want_.push_back(done.seq);
    return done;
  }

  ::testing::AssertionResult Matches() const {
    if (!cancel_mismatch_.empty()) {
      return ::testing::AssertionFailure() << cancel_mismatch_;
    }
    if (got_ != want_) {
      return ::testing::AssertionFailure()
             << "delivered " << got_.size() << " callbacks, reference "
             << want_.size() << " (or a different order)";
    }
    if (disk_.busy() != busy_ || disk_.head() != head_ ||
        disk_.cache_hits() != cache_hits_ ||
        disk_.queue_length() != queue_.size()) {
      return ::testing::AssertionFailure()
             << "busy " << disk_.busy() << "/" << busy_ << ", head "
             << disk_.head() << "/" << head_ << ", cache hits "
             << disk_.cache_hits() << "/" << cache_hits_ << ", queued "
             << disk_.queue_length() << "/" << queue_.size();
    }
    return ::testing::AssertionSuccess();
  }

  bool busy() const { return busy_; }
  const std::vector<Req>& queue() const { return queue_; }
  const std::vector<uint64_t>& delivered() const { return want_; }

 private:
  // Earliest deadline, then the nearest cylinder at-or-ahead of the head
  // in the sweep direction, then submission order; -1 if none.
  int Pick(bool up) const {
    SimTime earliest = kNoDeadline;
    for (const Req& r : queue_) earliest = std::min(earliest, r.deadline);
    int best = -1;
    for (size_t i = 0; i < queue_.size(); ++i) {
      const Req& r = queue_[i];
      if (r.deadline != earliest || (up ? r.cyl < head_ : r.cyl > head_)) {
        continue;
      }
      if (best < 0) {
        best = static_cast<int>(i);
        continue;
      }
      const Req& b = queue_[static_cast<size_t>(best)];
      if ((up ? r.cyl < b.cyl : r.cyl > b.cyl) ||
          (r.cyl == b.cyl && r.seq < b.seq)) {
        best = static_cast<int>(i);
      }
    }
    return best;
  }

  void StartNext() {
    if (queue_.empty()) return;
    int i = Pick(sweep_up_);
    if (i < 0) {
      sweep_up_ = !sweep_up_;
      i = Pick(sweep_up_);
    }
    current_ = queue_[static_cast<size_t>(i)];
    queue_.erase(queue_.begin() + i);
    current_cancelled_ = false;
    busy_ = true;
    if (!current_.is_write && cache_.Contains(current_.start, current_.pages)) {
      ++cache_hits_;
      return;
    }
    head_ = geom_.CylinderOf(current_.start + current_.pages - 1);
    if (current_.is_write) {
      cache_.Invalidate();
    } else {
      cache_.Insert(current_.start, current_.pages);
    }
  }

  sim::Simulator sim_;
  Disk disk_;
  std::vector<uint64_t> got_;

  const DiskGeometry geom_;
  DiskCache cache_;
  std::vector<Req> queue_;
  bool busy_ = false;
  Req current_{};
  bool current_cancelled_ = false;
  Cylinder head_ = 0;
  bool sweep_up_ = true;
  int64_t cache_hits_ = 0;
  uint64_t seq_ = 0;
  std::vector<uint64_t> want_;
  std::string cancel_mismatch_;
};

// Randomized Submit/CancelQuery/complete interleavings against the
// reference. A few cylinders, deadlines and query ids force ties, direct
// starts behind the head and sweep reversals. Fixed seeds so failures
// reproduce.
TEST(Disk, FuzzMatchesLinearScanReferenceModel) {
  const DiskParams params;
  const SimTime kDeadlines[] = {1.0, 2.0, 3.0, kNoDeadline};
  for (uint64_t seed : {1u, 7u, 99u, 1234u}) {
    Rng rng(seed);
    DiskVsReference d(params);
    for (int step = 0; step < 3000; ++step) {
      const int64_t op = rng.UniformInt(0, 9);
      if (op < 5) {
        const auto query = static_cast<QueryId>(rng.UniformInt(1, 4));
        const SimTime deadline = kDeadlines[rng.UniformInt(0, 3)];
        // Twelve cylinders; a re-read of a recent extent may hit the
        // prefetch cache, and an extent may straddle two cylinders.
        const PageCount start =
            rng.UniformInt(0, 12 * params.cylinder_size - 1);
        const PageCount pages = rng.UniformInt(1, 8);
        const bool is_write = rng.UniformInt(0, 9) == 0;
        d.Submit(query, deadline, start, pages, is_write,
                 /*has_callback=*/true);
      } else if (op < 7) {
        d.Cancel(static_cast<QueryId>(rng.UniformInt(1, 4)));
      } else if (d.busy()) {
        d.Complete();
      }
      ASSERT_TRUE(d.Matches()) << "seed " << seed << " step " << step;
    }
  }
}

// The engine's traffic shape over all 1,500 cylinders (the fuzz test
// above draws from twelve, so its bitmap scans never leave word 0). Each
// query keeps one read in flight at its own deadline; spool writes with
// no deadline pile up to several hundred, one in eight with a callback;
// bursts of exact deadline ties, some on one cylinder, spread a group and
// drain it, and each later burst, at a new deadline, reuses the drained
// group's pooled arrays. Cancels hit lone reads, spread burst requests
// and queued writes.
TEST(Disk, EngineShapedTrafficMatchesReference) {
  const DiskParams params;
  const PageCount capacity = params.capacity();
  constexpr int kQueries = 40;
  constexpr QueryId kBurstQuery = 1000;
  constexpr QueryId kFinishedQuery = 2000;
  for (uint64_t seed : {5u, 42u}) {
    Rng rng(seed);
    DiskVsReference d(params);
    // Query slot q runs query ids[q] with deadline deadlines[q]; a
    // cancelled query's slot starts a new query.
    std::vector<QueryId> ids(kQueries);
    std::vector<SimTime> deadlines(kQueries);
    std::vector<bool> reading(kQueries, false);
    QueryId next_id = 1;
    auto new_query = [&](int q) {
      ids[q] = next_id++;
      deadlines[q] = 10.0 + 0.001 * static_cast<double>(ids[q]);
      reading[q] = false;
    };
    for (int q = 0; q < kQueries; ++q) new_query(q);
    // Spool writes outlive their query: most come from finished ones.
    auto submit_write = [&] {
      const QueryId query = rng.UniformInt(0, 3) == 0
                                ? ids[rng.UniformInt(0, kQueries - 1)]
                                : kFinishedQuery;
      const PageCount pages = rng.UniformInt(1, 8);
      d.Submit(query, kNoDeadline, rng.UniformInt(0, capacity - pages),
               pages, /*is_write=*/true, rng.UniformInt(0, 7) == 0);
    };
    auto complete = [&] {
      const DiskVsReference::Req done = d.Complete();
      for (int q = 0; q < kQueries; ++q) {
        if (!done.is_write && done.query == ids[q]) reading[q] = false;
      }
    };
    auto queued_writes = [&] {
      return std::count_if(d.queue().begin(), d.queue().end(),
                           [](const auto& r) { return r.is_write; });
    };

    // A backlog of spool writes, served one in ten as it builds.
    for (int i = 0; i < 500; ++i) {
      submit_write();
      if (i % 10 == 9) complete();
      ASSERT_TRUE(d.Matches()) << "seed " << seed << " write " << i;
    }
    int64_t min_writes = queued_writes();
    int lone_cancels = 0;
    int spread_cancels = 0;
    int bursts = 0;
    for (int step = 0; step < 6000; ++step) {
      const int64_t op = rng.UniformInt(0, 99);
      if (step % 600 == 300) {
        // A burst of exact deadline ties ahead of every read: four
        // requests on one cylinder, the rest anywhere.
        const SimTime tie = 1.0 + bursts;
        const PageCount shared = rng.UniformInt(0, capacity - 8);
        for (int i = 0; i < 24; ++i) {
          const PageCount start =
              i < 4 ? shared : rng.UniformInt(0, capacity - 8);
          d.Submit(kBurstQuery + static_cast<QueryId>(i % 3), tie, start,
                   rng.UniformInt(1, 8), /*is_write=*/i % 5 == 4,
                   /*has_callback=*/true);
        }
        ASSERT_TRUE(d.Matches()) << "seed " << seed << " step " << step;
        for (int i = 0; i < 6; ++i) complete();
        if (d.Cancel(kBurstQuery + static_cast<QueryId>(bursts % 3)) > 0) {
          ++spread_cancels;
        }
        auto tie_queued = [&] {
          return std::any_of(
              d.queue().begin(), d.queue().end(),
              [tie](const auto& r) { return r.deadline == tie; });
        };
        while (tie_queued()) {
          complete();
          ASSERT_TRUE(d.Matches()) << "seed " << seed << " step " << step;
        }
        ++bursts;
      } else if (op < 45) {
        if (d.busy()) complete();
      } else if (op < 80) {
        const auto q = static_cast<int>(rng.UniformInt(0, kQueries - 1));
        if (!reading[q]) {
          d.Submit(ids[q], deadlines[q],
                   rng.UniformInt(0, capacity - 8), rng.UniformInt(1, 8),
                   /*is_write=*/false, /*has_callback=*/true);
          reading[q] = true;
        }
      } else if (op < 97) {
        submit_write();
      } else {
        const auto q = static_cast<int>(rng.UniformInt(0, kQueries - 1));
        const bool lone_read = std::any_of(
            d.queue().begin(), d.queue().end(), [&](const auto& r) {
              return r.query == ids[q] && !r.is_write;
            });
        const int64_t writes_before = queued_writes();
        d.Cancel(ids[q]);
        lone_cancels += lone_read;
        spread_cancels += queued_writes() < writes_before;
        new_query(q);
      }
      min_writes = std::min(min_writes, queued_writes());
      ASSERT_TRUE(d.Matches()) << "seed " << seed << " step " << step;
    }
    // The traffic reached every case the test is named for.
    EXPECT_GE(min_writes, 300) << "seed " << seed;
    EXPECT_GE(bursts, 10) << "seed " << seed;
    EXPECT_GT(lone_cancels, 0) << "seed " << seed;
    EXPECT_GT(spread_cancels, 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rtq::model
