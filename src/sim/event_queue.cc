#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace rtq::sim {

bool EventQueue::Cancel(EventId id) {
  uint64_t slot_plus_one = id >> 32;
  if (slot_plus_one == 0 || slot_plus_one > slots_.size()) return false;
  uint32_t slot = static_cast<uint32_t>(slot_plus_one - 1);
  uint32_t gen = static_cast<uint32_t>(id);
  Slot& s = slots_[slot];
  if (s.gen != gen) return false;  // already fired, cancelled, or recycled
  s.cb = nullptr;
  ++s.gen;  // odd -> even: slot is free; its entry is now stale
  free_slots_.push_back(slot);
  --live_count_;
  return true;
}

void EventQueue::Insert(const Entry& e) {
  // Walk back over the entries due at or before e.time; if the walk
  // runs out, binary-search the rest. The run is sorted latest-first, so
  // the entries due after e form a prefix.
  auto pos = run_.end();
  const auto walk_end = run_.size() > kWalk ? pos - kWalk : run_.begin();
  while (pos != walk_end && (pos - 1)->time <= e.time) --pos;
  if (pos == walk_end && pos != run_.begin()) {
    auto due_after = [&e](const Entry& x) { return x.time > e.time; };
    pos = std::partition_point(run_.begin(), pos, due_after);
  }
  run_.insert(pos, e);
}

void EventQueue::SkimCancelled() const {
  while (!run_.empty() && Stale(run_.back())) run_.pop_back();
}

std::vector<std::pair<SimTime, uint64_t>> EventQueue::ExportPending() const {
  std::vector<std::pair<SimTime, uint64_t>> pending;
  pending.reserve(live_count_);
  for (auto it = run_.rbegin(); it != run_.rend(); ++it) {
    if (!Stale(*it)) pending.emplace_back(it->time, it->seq);
  }
  return pending;
}

SimTime EventQueue::PeekTime() const {
  SkimCancelled();
  RTQ_CHECK_MSG(!run_.empty(), "PeekTime on empty queue");
  return run_.back().time;
}

std::pair<SimTime, EventQueue::Callback> EventQueue::Pop() {
  Callback cb;
  SimTime when = PopInto(&cb);
  return {when, std::move(cb)};
}

SimTime EventQueue::PopInto(Callback* cb) {
  SkimCancelled();
  RTQ_CHECK_MSG(!run_.empty(), "Pop on empty queue");
  const Entry next = run_.back();
  run_.pop_back();
  Slot& s = slots_[next.slot];
  RTQ_DCHECK(s.gen == next.gen);
  *cb = std::move(s.cb);  // leaves the slot's callback empty
  ++s.gen;  // odd -> even: recycle the slot
  free_slots_.push_back(next.slot);
  --live_count_;
  return next.time;
}

}  // namespace rtq::sim
