#include "model/cpu.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace rtq::model {

Cpu::Cpu(sim::Simulator* sim, double mips) : sim_(sim), mips_(mips) {
  RTQ_CHECK(sim != nullptr);
  RTQ_CHECK_MSG(mips > 0.0, "CPU speed must be positive");
  busy_.Start(sim->Now(), 0.0);
}

SimTime Cpu::ExecutionTime(Instructions instructions) const {
  RTQ_DCHECK(instructions >= 0);
  return static_cast<double>(instructions) / (mips_ * 1e6);
}

uint32_t Cpu::AllocSlot(double instructions, CpuCallback&& on_complete) {
  if (free_slots_.empty()) {
    slab_.push_back(JobState{instructions, std::move(on_complete)});
    return static_cast<uint32_t>(slab_.size() - 1);
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slab_[slot].remaining_instructions = instructions;
  slab_[slot].on_complete = std::move(on_complete);
  return slot;
}

void Cpu::FreeSlot(uint32_t slot) {
  slab_[slot].on_complete = nullptr;
  free_slots_.push_back(slot);
}

void Cpu::PushReady(const JobKey& key, uint32_t slot) {
  ready_.push_back(ReadyEntry{key, slot});
  std::push_heap(ready_.begin(), ready_.end(), Later);
}

void Cpu::Submit(CpuJob job) {
  RTQ_CHECK_MSG(job.instructions >= 0, "negative instruction count");
  const JobKey key{job.deadline, job.query, next_seq_++};
  const uint32_t slot = AllocSlot(static_cast<double>(job.instructions),
                                  std::move(job.on_complete));
  if (!running_) {
    // Every completion or cancellation dispatches the next ready job, so
    // an idle CPU has nothing queued: the new job runs at once.
    RTQ_DCHECK(ready_.empty());
    Run(key, slot);
    return;
  }
  // Preemption only for strictly earlier deadlines: a deadline tie is not
  // worth a context switch, so ties run the incumbent to completion. The
  // running job's deadline is the earliest queued one, so a preemptor is
  // also the next job ED would pick.
  if (job.deadline < running_key_.deadline) {
    PreemptRunning();
    PushReady(running_key_, running_slot_);
    Run(key, slot);
    return;
  }
  PushReady(key, slot);
}

int64_t Cpu::CancelQuery(QueryId query) {
  int64_t removed = 0;
  if (running_ && running_key_.query == query) {
    // Stopping a job mid-execution counts as a preemption.
    PreemptRunning();
    FreeSlot(running_slot_);
    ++removed;
  }
  auto kept = ready_.begin();
  for (const ReadyEntry& e : ready_) {
    if (e.key.query == query) {
      FreeSlot(e.slot);
      ++removed;
    } else {
      *kept++ = e;
    }
  }
  if (kept != ready_.end()) {
    ready_.erase(kept, ready_.end());
    std::make_heap(ready_.begin(), ready_.end(), Later);
  }
  if (!running_) Dispatch();
  return removed;
}

void Cpu::PreemptRunning() {
  RTQ_DCHECK(running_);
  JobState& job = slab_[running_slot_];
  double executed = (sim_->Now() - running_since_) * mips_ * 1e6;
  job.remaining_instructions -= executed;
  if (job.remaining_instructions < 0.0) job.remaining_instructions = 0.0;
  sim_->Cancel(completion_event_);
  completion_event_ = sim::kInvalidEventId;
  running_ = false;
  ++preemptions_;
  busy_.Update(sim_->Now(), 0.0);
}

void Cpu::Run(const JobKey& key, uint32_t slot) {
  RTQ_DCHECK(!running_);
  running_ = true;
  running_key_ = key;
  running_slot_ = slot;
  running_since_ = sim_->Now();
  busy_.Update(sim_->Now(), 1.0);
  SimTime duration = slab_[slot].remaining_instructions / (mips_ * 1e6);
  completion_event_ =
      sim_->ScheduleAfter(duration, [this] { OnJobComplete(); });
}

void Cpu::Dispatch() {
  RTQ_DCHECK(!running_);
  if (ready_.empty()) return;
  std::pop_heap(ready_.begin(), ready_.end(), Later);
  const ReadyEntry next = ready_.back();
  ready_.pop_back();
  Run(next.key, next.slot);
}

void Cpu::OnJobComplete() {
  RTQ_DCHECK(running_);
  auto callback = std::move(slab_[running_slot_].on_complete);
  FreeSlot(running_slot_);
  running_ = false;
  completion_event_ = sim::kInvalidEventId;
  ++completed_jobs_;
  busy_.Update(sim_->Now(), 0.0);
  // Dispatch the next job before delivering the callback so a callback
  // that submits fresh work observes a consistent CPU.
  Dispatch();
  if (callback) callback();
}

}  // namespace rtq::model
