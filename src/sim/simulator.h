// The discrete-event simulation driver.
//
// This is the reproduction's substitute for DeNet [Livn90], the simulation
// language the paper's simulator was written in: a clock plus an event
// calendar, with helpers for relative scheduling and bounded runs. All
// model components (CPU, disks, source, PMM) hang off one Simulator and
// interact purely by scheduling callbacks.

#ifndef RTQ_SIM_SIMULATOR_H_
#define RTQ_SIM_SIMULATOR_H_

#include <cstdint>

#include "common/check.h"
#include "common/types.h"
#include "sim/event_queue.h"

namespace rtq::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time in seconds.
  SimTime Now() const { return now_; }

  /// Schedules `f` after `delay` seconds of simulated time. The callable
  /// is forwarded through to the calendar slot (see EventQueue::Schedule).
  template <typename F>
  EventId ScheduleAfter(SimTime delay, F&& f) {
    RTQ_CHECK_MSG(delay >= 0.0, "negative event delay");
    return events_.Schedule(now_ + delay, std::forward<F>(f));
  }

  /// Schedules `f` at absolute simulated time `when` (>= Now()).
  template <typename F>
  EventId ScheduleAt(SimTime when, F&& f) {
    RTQ_CHECK_MSG(when >= now_, "event scheduled in the past");
    return events_.Schedule(when, std::forward<F>(f));
  }

  /// Cancels a pending event; see EventQueue::Cancel.
  bool Cancel(EventId id) { return events_.Cancel(id); }

  /// Runs until the calendar is empty or the clock passes `until`.
  /// Events at exactly `until` still fire. Returns the number of events
  /// dispatched by this call.
  uint64_t RunUntil(SimTime until);

  /// Runs until the calendar drains completely.
  uint64_t RunToCompletion();

  /// Dispatches a single event if one exists. Returns false when empty.
  bool Step();

  /// Total events dispatched over the simulator's lifetime.
  uint64_t events_dispatched() const { return dispatched_; }

  /// Live events awaiting dispatch.
  size_t pending_events() const { return events_.Size(); }

  /// Read-only view of the event calendar; snapshot digests export its
  /// pending (time, seq) keys through this.
  const EventQueue& queue() const { return events_; }

 private:
  EventQueue events_;
  SimTime now_ = 0.0;
  uint64_t dispatched_ = 0;
};

}  // namespace rtq::sim

#endif  // RTQ_SIM_SIMULATOR_H_
