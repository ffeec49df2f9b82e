#include "sim/simulator.h"

namespace rtq::sim {

uint64_t Simulator::RunUntil(SimTime until) {
  uint64_t count = 0;
  EventQueue::Callback cb;
  while (!events_.Empty()) {
    if (events_.PeekTime() > until) break;
    SimTime when = events_.PopInto(&cb);
    RTQ_DCHECK(when >= now_);
    now_ = when;
    cb();
    ++dispatched_;
    ++count;
  }
  // Advance the clock to the horizon so repeated bounded runs compose.
  if (now_ < until) now_ = until;
  return count;
}

uint64_t Simulator::RunToCompletion() {
  uint64_t count = 0;
  EventQueue::Callback cb;
  while (!events_.Empty()) {
    SimTime when = events_.PopInto(&cb);
    RTQ_DCHECK(when >= now_);
    now_ = when;
    cb();
    ++dispatched_;
    ++count;
  }
  return count;
}

bool Simulator::Step() {
  if (events_.Empty()) return false;
  EventQueue::Callback cb;
  SimTime when = events_.PopInto(&cb);
  RTQ_DCHECK(when >= now_);
  now_ = when;
  cb();
  ++dispatched_;
  return true;
}

}  // namespace rtq::sim
