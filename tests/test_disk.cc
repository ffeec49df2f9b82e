#include "model/disk.h"

#include <gtest/gtest.h>

#include <algorithm>
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

// Randomized Submit/CancelQuery/complete interleavings checked against a
// reference written from the header contract alone (the same pattern as
// the EventQueue and DiskCache fuzz tests): a flat request list scanned
// for the earliest deadline, the nearest cylinder in the sweep direction
// (reversing when none lies ahead), and submission order within a
// cylinder. Service timing is the geometry's and the prefetch cache's own
// business (both fuzzed separately), so the reference reuses them and
// steps one completion at a time. A few cylinders, deadlines and query ids
// force ties, direct starts behind the head and sweep reversals. Fixed
// seeds so failures reproduce.
TEST(Disk, FuzzMatchesLinearScanReferenceModel) {
  struct RefReq {
    QueryId query;
    SimTime deadline;
    PageCount start;
    PageCount pages;
    bool is_write;
    Cylinder cyl;
    uint64_t seq;
    int payload;
  };
  const DiskParams params;
  const SimTime kDeadlines[] = {1.0, 2.0, 3.0, kNoDeadline};
  for (uint64_t seed : {1u, 7u, 99u, 1234u}) {
    Rng rng(seed);
    sim::Simulator sim;
    Disk disk(&sim, params, 0);
    std::vector<int> got;

    const DiskGeometry geom(params);
    DiskCache cache(params.cache_pages);
    std::vector<RefReq> queue;
    bool busy = false;
    RefReq current{};
    bool current_cancelled = false;
    Cylinder head = 0;
    bool sweep_up = true;
    int64_t cache_hits = 0;
    uint64_t seq = 0;
    std::vector<int> want;
    // Earliest deadline, then the nearest cylinder at-or-ahead of the
    // head in the sweep direction, then submission order; -1 if none.
    auto pick = [&](bool up) {
      SimTime earliest = kNoDeadline;
      for (const RefReq& r : queue) earliest = std::min(earliest, r.deadline);
      int best = -1;
      for (size_t i = 0; i < queue.size(); ++i) {
        const RefReq& r = queue[i];
        if (r.deadline != earliest || (up ? r.cyl < head : r.cyl > head)) {
          continue;
        }
        if (best < 0) {
          best = static_cast<int>(i);
          continue;
        }
        const RefReq& b = queue[static_cast<size_t>(best)];
        if ((up ? r.cyl < b.cyl : r.cyl > b.cyl) ||
            (r.cyl == b.cyl && r.seq < b.seq)) {
          best = static_cast<int>(i);
        }
      }
      return best;
    };
    auto start_next = [&] {
      if (queue.empty()) return;
      int i = pick(sweep_up);
      if (i < 0) {
        sweep_up = !sweep_up;
        i = pick(sweep_up);
      }
      current = queue[static_cast<size_t>(i)];
      queue.erase(queue.begin() + i);
      current_cancelled = false;
      busy = true;
      if (!current.is_write && cache.Contains(current.start, current.pages)) {
        ++cache_hits;
        return;
      }
      head = geom.CylinderOf(current.start + current.pages - 1);
      if (current.is_write) {
        cache.Invalidate();
      } else {
        cache.Insert(current.start, current.pages);
      }
    };

    int next_payload = 0;
    for (int step = 0; step < 3000; ++step) {
      const int64_t op = rng.UniformInt(0, 9);
      if (op < 5) {
        RefReq r{};
        r.query = static_cast<QueryId>(rng.UniformInt(1, 4));
        r.deadline = kDeadlines[rng.UniformInt(0, 3)];
        // Twelve cylinders; a re-read of a recent extent may hit the
        // prefetch cache, and an extent may straddle two cylinders.
        r.start = rng.UniformInt(0, 12 * params.cylinder_size - 1);
        r.pages = rng.UniformInt(1, 8);
        r.is_write = rng.UniformInt(0, 9) == 0;
        r.cyl = geom.CylinderOf(r.start);
        r.seq = seq++;
        r.payload = next_payload++;
        const int payload = r.payload;
        disk.Submit(MakeRequest(r.query, r.deadline, r.start, r.pages,
                                [&got, payload] { got.push_back(payload); },
                                r.is_write));
        queue.push_back(r);
        if (!busy) start_next();
      } else if (op < 7) {
        const auto query = static_cast<QueryId>(rng.UniformInt(1, 4));
        int64_t removed = 0;
        for (auto it = queue.begin(); it != queue.end();) {
          if (it->query == query) {
            it = queue.erase(it);
            ++removed;
          } else {
            ++it;
          }
        }
        if (busy && current.query == query) current_cancelled = true;
        ASSERT_EQ(disk.CancelQuery(query), removed)
            << "seed " << seed << " step " << step;
      } else if (busy) {
        ASSERT_TRUE(sim.Step());
        busy = false;
        const RefReq done = current;
        const bool deliver = !current_cancelled;
        start_next();
        if (deliver) want.push_back(done.payload);
      }
      ASSERT_EQ(got, want) << "seed " << seed << " step " << step;
      ASSERT_EQ(disk.busy(), busy) << "seed " << seed << " step " << step;
      ASSERT_EQ(disk.head(), head) << "seed " << seed << " step " << step;
      ASSERT_EQ(disk.cache_hits(), cache_hits) << "seed " << seed;
      ASSERT_EQ(disk.queue_length(), queue.size()) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace rtq::model
