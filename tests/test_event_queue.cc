#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace rtq::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
  EXPECT_EQ(q.total_scheduled(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(3.0, [&] { fired.push_back(3); });
  q.Schedule(1.0, [&] { fired.push_back(1); });
  q.Schedule(2.0, [&] { fired.push_back(2); });
  while (!q.Empty()) q.Pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(5.0, [&fired, i] { fired.push_back(i); });
  }
  while (!q.Empty()) q.Pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueue, PeekTimeReportsEarliestLive) {
  EventQueue q;
  q.Schedule(7.0, [] {});
  EventId early = q.Schedule(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.PeekTime(), 2.0);
  EXPECT_TRUE(q.Cancel(early));
  EXPECT_DOUBLE_EQ(q.PeekTime(), 7.0);
}

TEST(EventQueue, CancelPreventsDelivery) {
  EventQueue q;
  bool fired = false;
  EventId id = q.Schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  EventId id = q.Schedule(1.0, [] {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueue, CancelUnknownIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(12345));
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
}

TEST(EventQueue, CancelAfterPopFails) {
  EventQueue q;
  EventId id = q.Schedule(1.0, [] {});
  q.Pop().second();
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueue, SizeCountsLiveOnly) {
  EventQueue q;
  EventId a = q.Schedule(1.0, [] {});
  q.Schedule(2.0, [] {});
  EXPECT_EQ(q.Size(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.Size(), 1u);
}

TEST(EventQueue, PopReturnsTimeAndCallback) {
  EventQueue q;
  int hits = 0;
  q.Schedule(4.5, [&] { ++hits; });
  auto [when, cb] = q.Pop();
  EXPECT_DOUBLE_EQ(when, 4.5);
  cb();
  EXPECT_EQ(hits, 1);
}

TEST(EventQueue, TotalScheduledCountsEverything) {
  EventQueue q;
  EventId a = q.Schedule(1.0, [] {});
  q.Schedule(2.0, [] {});
  q.Cancel(a);
  EXPECT_EQ(q.total_scheduled(), 2u);
}

// Randomized interleavings of Schedule/Cancel/Pop checked against a
// naive reference model (a flat vector scanned for the (time, sequence)
// minimum). Fixed seeds so failures reproduce. This exercises slab
// recycling, generation churn after cancels, and the lazy skim — the
// machinery the indexed-heap rewrite added.
TEST(EventQueue, FuzzMatchesNaiveReferenceModel) {
  struct RefEvent {
    double time;
    uint64_t seq;  // global schedule order, the deterministic tie-break
    EventId id;
    int payload;
  };
  for (uint64_t seed : {1u, 7u, 99u, 1234u}) {
    Rng rng(seed);
    EventQueue q;
    std::vector<RefEvent> live;    // reference: still-pending events
    std::vector<EventId> retired;  // popped or cancelled ids
    uint64_t seq = 0;
    int next_payload = 0;
    int fired = -1;
    auto ref_min = [&] {
      return std::min_element(live.begin(), live.end(),
                              [](const RefEvent& a, const RefEvent& b) {
                                return a.time != b.time ? a.time < b.time
                                                        : a.seq < b.seq;
                              });
    };
    for (int step = 0; step < 4000; ++step) {
      int64_t op = rng.UniformInt(0, 9);
      if (op < 5 || live.empty()) {
        // Coarse times force plenty of exact ties.
        double t = static_cast<double>(rng.UniformInt(0, 49));
        int payload = next_payload++;
        EventId id = q.Schedule(t, [&fired, payload] { fired = payload; });
        live.push_back(RefEvent{t, ++seq, id, payload});
      } else if (op < 7) {
        size_t victim =
            static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
        EXPECT_TRUE(q.Cancel(live[victim].id));
        retired.push_back(live[victim].id);
        live.erase(live.begin() + victim);
      } else if (op < 8 && !retired.empty()) {
        // Cancelling a dead id (popped, cancelled, or recycled) fails.
        size_t idx =
            static_cast<size_t>(rng.UniformInt(0, retired.size() - 1));
        EXPECT_FALSE(q.Cancel(retired[idx]));
      } else {
        auto expect = ref_min();
        ASSERT_DOUBLE_EQ(q.PeekTime(), expect->time);
        auto [when, cb] = q.Pop();
        ASSERT_DOUBLE_EQ(when, expect->time);
        cb();
        ASSERT_EQ(fired, expect->payload);
        retired.push_back(expect->id);
        live.erase(expect);
      }
      ASSERT_EQ(q.Size(), live.size());
      ASSERT_EQ(q.Empty(), live.empty());
    }
    // Drain: the remaining events must come out in exact reference order.
    while (!live.empty()) {
      auto expect = ref_min();
      auto [when, cb] = q.Pop();
      ASSERT_DOUBLE_EQ(when, expect->time);
      cb();
      ASSERT_EQ(fired, expect->payload);
      live.erase(expect);
    }
    EXPECT_TRUE(q.Empty());
  }
}

// An EventQueue driven in step with the naive reference model that
// FuzzMatchesNaiveReferenceModel uses: pending events in a flat vector,
// the next one found by scanning for the (time, sequence) minimum.
// Check() compares Size, Empty, PeekTime and ExportPending.
class CheckedQueue {
 public:
  CheckedQueue() = default;
  CheckedQueue(const CheckedQueue&) = delete;
  CheckedQueue& operator=(const CheckedQueue&) = delete;

  EventId Schedule(double t) {
    int payload = next_payload_++;
    EventId id = q_.Schedule(t, [this, payload] { fired_ = payload; });
    live_.push_back(RefEvent{t, ++seq_, id, payload});
    return id;
  }

  /// The queue must agree with the model on whether `id` was live.
  void Cancel(EventId id) {
    auto it = std::find_if(live_.begin(), live_.end(),
                           [id](const RefEvent& e) { return e.id == id; });
    EXPECT_EQ(q_.Cancel(id), it != live_.end());
    if (it != live_.end()) live_.erase(it);
  }

  /// Pops the earliest event; the clock only moves forward.
  void Pop() {
    auto expect = Earliest();
    EventQueue::Callback cb;
    SimTime when = q_.PopInto(&cb);
    ASSERT_EQ(when, expect->time);
    ASSERT_GE(when, now_);
    cb();
    ASSERT_EQ(fired_, expect->payload);
    now_ = when;
    live_.erase(expect);
  }

  void Check() const {
    ASSERT_EQ(q_.Size(), live_.size());
    ASSERT_EQ(q_.Empty(), live_.empty());
    if (!live_.empty()) {
      ASSERT_EQ(q_.PeekTime(), Earliest()->time);
    }
    std::vector<std::pair<SimTime, uint64_t>> want;
    for (const RefEvent& e : live_) want.emplace_back(e.time, e.seq);
    std::sort(want.begin(), want.end());
    ASSERT_EQ(q_.ExportPending(), want);
  }

  /// Pops every event, checking after each.
  void Drain() {
    while (!live_.empty()) {
      ASSERT_NO_FATAL_FAILURE(Pop());
      ASSERT_NO_FATAL_FAILURE(Check());
    }
  }

  double now() const { return now_; }
  size_t size() const { return live_.size(); }
  double time_of(size_t i) const { return live_[i].time; }

 private:
  struct RefEvent {
    double time;
    uint64_t seq;  // global schedule order, the deterministic tie-break
    EventId id;
    int payload;
  };

  std::vector<RefEvent>::const_iterator Earliest() const {
    return std::min_element(live_.begin(), live_.end(),
                            [](const RefEvent& a, const RefEvent& b) {
                              return a.time != b.time ? a.time < b.time
                                                      : a.seq < b.seq;
                            });
  }

  EventQueue q_;
  std::vector<RefEvent> live_;
  uint64_t seq_ = 0;
  int next_payload_ = 0;
  int fired_ = -1;
  double now_ = 0.0;
};

// The engine's traffic: near-term completions due within 50 ms, far
// deadlines 10-100 s out of which half are cancelled before they fire,
// and exact ties. Schedule walks back over at most 8 entries before it
// binary-searches, so the scripted cases pin both sides of that edge.
TEST(EventQueue, EngineShapedTrafficMatchesReference) {
  {
    SCOPED_TRACE("equal-time run longer than the walk stays FIFO");
    CheckedQueue m;
    m.Schedule(0.5);
    for (int i = 0; i < 20; ++i) m.Schedule(1.0);
    m.Schedule(2.0);
    for (int i = 0; i < 5; ++i) m.Schedule(1.0);
    ASSERT_NO_FATAL_FAILURE(m.Check());
    ASSERT_NO_FATAL_FAILURE(m.Drain());
  }
  // With 1..12 pending, 7.5 lands behind 7 entries (inside the walk),
  // 8.0 and 8.5 behind exactly 8 (the walk's edge; 8.0 ties there) and
  // 9.5 behind 9 (found by binary search).
  for (double t : {7.5, 8.0, 8.5, 9.5}) {
    SCOPED_TRACE(t);
    CheckedQueue m;
    for (int i = 1; i <= 12; ++i) m.Schedule(i);
    m.Schedule(t);
    ASSERT_NO_FATAL_FAILURE(m.Check());
    ASSERT_NO_FATAL_FAILURE(m.Drain());
  }
  for (uint64_t seed : {3u, 42u, 2024u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    CheckedQueue m;
    std::vector<EventId> doomed;  // deadlines to cancel before they fire
    size_t deepest = 0;
    uint64_t deadlines = 0;
    for (int step = 0; step < 8000; ++step) {
      // Depth saws up to 200 and back to empty, so far deadlines fire.
      int phase = step % 1000;
      size_t target = phase < 600 ? static_cast<size_t>(phase / 3) : 0;
      bool grow = m.size() < target ? rng.UniformInt(0, 3) != 0
                                    : rng.UniformInt(0, 3) == 0;
      if (grow || m.size() == 0) {
        int64_t kind = rng.UniformInt(0, 9);
        if (kind == 0) {
          EventId id = m.Schedule(m.now() + rng.Uniform(10.0, 100.0));
          if (++deadlines % 2 == 0) doomed.push_back(id);
        } else if (kind == 1 && m.size() > 0) {
          auto i = static_cast<size_t>(rng.UniformInt(0, m.size() - 1));
          m.Schedule(m.time_of(i));  // exact tie with a pending event
        } else {
          m.Schedule(m.now() + rng.Uniform(0.0, 0.05));
        }
      } else {
        ASSERT_NO_FATAL_FAILURE(m.Pop());
      }
      if (!doomed.empty() && rng.UniformInt(0, 7) == 0) {
        auto i = static_cast<size_t>(rng.UniformInt(0, doomed.size() - 1));
        m.Cancel(doomed[i]);
        doomed.erase(doomed.begin() + static_cast<std::ptrdiff_t>(i));
      }
      ASSERT_NO_FATAL_FAILURE(m.Check());
      deepest = std::max(deepest, m.size());
    }
    ASSERT_NO_FATAL_FAILURE(m.Drain());
    EXPECT_GE(deepest, 150u);
  }
}

TEST(EventQueue, ManyInterleavedOpsKeepOrder) {
  EventQueue q;
  std::vector<double> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    double t = static_cast<double>((i * 37) % 100);
    ids.push_back(q.Schedule(t, [&fired, t] { fired.push_back(t); }));
  }
  // Cancel every third.
  for (size_t i = 0; i < ids.size(); i += 3) q.Cancel(ids[i]);
  double last = -1.0;
  while (!q.Empty()) {
    auto [when, cb] = q.Pop();
    EXPECT_GE(when, last);
    last = when;
    cb();
  }
  EXPECT_EQ(fired.size(), 100u - 34u);
}

}  // namespace
}  // namespace rtq::sim
