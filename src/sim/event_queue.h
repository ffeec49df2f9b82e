// Calendar of pending simulation events.
//
// One vector of entries keyed on (time, sequence number), kept sorted
// latest-first: the next event is back() and popping is pop_back().
// Events at equal simulated times fire in scheduling order, which makes
// runs fully deterministic. A new entry carries the highest sequence
// number yet, so it belongs just in front of every entry due at or
// before its time. Schedule finds that place by walking back from the
// end over at most kWalk entries, then by binary search, and inserts
// with one vector::insert (a memmove of the entries due before it).
//
// The layout is chosen for the engine's traffic, which is nearly FIFO.
// Most events are CPU and disk completions due within milliseconds: on
// rtqbench's four workloads over half of all inserts become the earliest
// event, at least 99.7% land within 8 entries of the back, and an insert
// shifts 1.4 entries or fewer on average. The far inserts, a query's
// deadline and the next arrival, are the rare ones. The calendar stays
// shallow, since its depth is bounded by live queries plus disks,
// classes and one tick (at most 91 entries, stale ones included, on
// those workloads).
//
// Worst case: an insert moves O(n) entries, so a deep calendar with
// uniformly random times, where a heap's O(log n) wins, gets slow
// (bench_micro's BM_EventQueueScheduleAndPop/16384). The engine never
// builds one.
//
// Callbacks live in recycled slab slots addressed by index, so
// scheduling does no hash-map insert and popping does no hash-map
// lookup; slots carry a generation counter so Cancel() is O(1) — it
// retires the slot immediately and the stale entry, recognized by its
// outdated generation, is dropped for free when it reaches the back.

#ifndef RTQ_SIM_EVENT_QUEUE_H_
#define RTQ_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/inline_callback.h"
#include "common/types.h"

namespace rtq::sim {

/// Opaque token identifying a scheduled event; used to cancel it.
using EventId = uint64_t;

inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  // Inline small-buffer callback: scheduling never heap-allocates, and
  // capture sizes are bounded at compile time (see
  // common/inline_callback.h). 48 bytes covers the widest simulator
  // capture with headroom.
  using Callback = InlineCallback<48>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `f` to fire at absolute simulated time `when`. The
  /// callable is constructed directly in its slab slot: no intermediate
  /// Callback holder, no relocation on the way in.
  template <typename F>
  EventId Schedule(SimTime when, F&& f) {
    RTQ_CHECK_MSG(when == when, "event time must not be NaN");  // NaN check
    uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.cb = std::forward<F>(f);
    ++s.gen;  // even -> odd: slot is live
    Insert(Entry{when, ++scheduled_, slot, s.gen});
    ++live_count_;
    return MakeId(slot, s.gen);
  }

  /// Cancels a pending event in O(1). Returns false if the event already
  /// fired, was already cancelled, or never existed.
  bool Cancel(EventId id);

  /// True if no live (non-cancelled) events remain.
  bool Empty() const { return live_count_ == 0; }

  /// Number of live events.
  size_t Size() const { return live_count_; }

  /// Time of the earliest live event. Requires !Empty().
  SimTime PeekTime() const;

  /// Removes and returns the earliest live event. Requires !Empty().
  /// The returned pair is (time, callback).
  std::pair<SimTime, Callback> Pop();

  /// Like Pop(), but moves the callback into `*cb` (overwriting it) and
  /// returns only the event time — the simulator loop reuses one local
  /// holder instead of materializing a pair per event.
  SimTime PopInto(Callback* cb);

  /// Total events ever scheduled (live + fired + cancelled); for stats.
  uint64_t total_scheduled() const { return scheduled_; }

  /// The live calendar contents as (time, seq) keys in firing order —
  /// the snapshot digest's view of pending events. Callbacks are not
  /// exported; deterministic restore reconstructs them by replaying the
  /// run up to the snapshot position.
  std::vector<std::pair<SimTime, uint64_t>> ExportPending() const;

 private:
  /// A recycled callback slot. `gen` is odd while the slot holds a live
  /// event and even while it is free; every hand-over bumps it, so an
  /// EventId or calendar entry minted for an earlier occupant can never
  /// match a recycled slot.
  struct Slot {
    Callback cb;
    uint32_t gen = 0;
  };

  /// One calendar entry. The ordering key (time, seq) is stored inline
  /// so placing an entry never dereferences the slab; (slot, gen)
  /// identifies the event and exposes stale (cancelled) entries by
  /// generation mismatch.
  struct Entry {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
    uint32_t gen;
  };

  /// Entries Schedule compares walking back from the end before it
  /// switches to binary search: enough for 99.7% or more of the engine's
  /// inserts, while a far insert into a deep calendar still takes
  /// O(log n) comparisons.
  static constexpr size_t kWalk = 8;

  /// True when the entry refers to a cancelled (or recycled) slot.
  bool Stale(const Entry& e) const { return slots_[e.slot].gen != e.gen; }

  /// Places `e` in front of every entry due at or before its time.
  void Insert(const Entry& e);
  /// Drops stale entries from the back. Observationally const: it only
  /// discards entries whose events no longer exist.
  void SkimCancelled() const;

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<EventId>(slot) + 1) << 32 | gen;
  }

  /// Sorted latest-first; back() fires next. Stale entries stay until
  /// they reach the back. Mutable so the const accessors can skim.
  mutable std::vector<Entry> run_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  uint64_t scheduled_ = 0;
  size_t live_count_ = 0;
};

}  // namespace rtq::sim

#endif  // RTQ_SIM_EVENT_QUEUE_H_
