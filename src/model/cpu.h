// Preemptive Earliest-Deadline CPU server (paper Section 4.2).
//
// "The CPU, which has a MIPS rating of CPUSpeed, is scheduled by the
// Earliest Deadline discipline." Jobs are instruction counts; the job
// with the earliest deadline executes, and an arriving job with an
// earlier deadline preempts the running one (the preempted job keeps its
// remaining instruction count). Ties break by query id, then submission
// order, so runs are deterministic.
//
// Layout: the running job sits outside the ready queue, so a job that
// finds the CPU idle (most submits) starts without touching it. Waiting
// jobs form a binary min-heap of (key, slot) entries over a slab of job
// states whose slots recycle through a free list, so the scheduler
// allocates nothing once the slab has reached its high-water mark. The
// key is a total order, so the pop order does not depend on the heap's
// layout.

#ifndef RTQ_MODEL_CPU_H_
#define RTQ_MODEL_CPU_H_

#include <cstdint>
#include <vector>

#include "common/inline_callback.h"
#include "common/types.h"
#include "sim/simulator.h"
#include "stats/time_weighted.h"

namespace rtq::model {

/// Completion continuation. 40 bytes holds the engine's widest submit
/// capture (the spool-write chain in engine/rtdbs.cc: engine, query id,
/// disk, extent) without touching the heap; bigger captures fail to
/// compile (common/inline_callback.h).
using CpuCallback = InlineCallback<40>;

struct CpuJob {
  QueryId query = kInvalidQueryId;
  /// ED priority: earlier deadline runs first.
  SimTime deadline = kNoDeadline;
  Instructions instructions = 0;
  /// Invoked when the job's instruction budget has been executed.
  CpuCallback on_complete;
};

class Cpu {
 public:
  Cpu(sim::Simulator* sim, double mips);

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  /// Enqueues a job; may preempt the running job.
  void Submit(CpuJob job);

  /// Removes all jobs (queued or running) belonging to `query`. Unlike a
  /// disk access, CPU work stops instantly on abort. Returns the number
  /// of jobs removed.
  int64_t CancelQuery(QueryId query);

  /// Time to execute `instructions` at this CPU's speed.
  SimTime ExecutionTime(Instructions instructions) const;

  /// Fraction of time the CPU was busy since construction.
  double Utilization(SimTime now) const { return busy_.Average(now); }
  /// Total busy seconds since construction (windowed utilizations are
  /// computed by differencing snapshots of this integral).
  double busy_seconds(SimTime now) const { return busy_.Integral(now); }

  /// Jobs submitted and not yet finished or cancelled, the running one
  /// included.
  size_t pending_jobs() const { return ready_.size() + (running_ ? 1 : 0); }
  int64_t completed_jobs() const { return completed_jobs_; }
  int64_t preemptions() const { return preemptions_; }

 private:
  struct JobKey {
    SimTime deadline;
    QueryId query;
    uint64_t seq;
    bool operator<(const JobKey& other) const {
      if (deadline != other.deadline) return deadline < other.deadline;
      if (query != other.query) return query < other.query;
      return seq < other.seq;
    }
  };
  struct JobState {
    double remaining_instructions;
    CpuCallback on_complete;
  };
  struct ReadyEntry {
    JobKey key;
    uint32_t slot;
  };
  /// Heap order for std::push_heap/pop_heap: the earliest key on top.
  static bool Later(const ReadyEntry& a, const ReadyEntry& b) {
    return b.key < a.key;
  }

  /// Stores a job's state in a free slab slot.
  uint32_t AllocSlot(double instructions, CpuCallback&& on_complete);
  /// Drops the slot's callback and returns the slot to the free list.
  void FreeSlot(uint32_t slot);
  void PushReady(const JobKey& key, uint32_t slot);
  /// Stops the running job, crediting executed instructions. The caller
  /// re-queues or discards it.
  void PreemptRunning();
  /// Starts (or resumes) the job in `slot`; the CPU must be idle.
  void Run(const JobKey& key, uint32_t slot);
  /// Runs the highest-priority ready job, if any.
  void Dispatch();
  void OnJobComplete();

  sim::Simulator* sim_;
  double mips_;

  std::vector<JobState> slab_;
  std::vector<uint32_t> free_slots_;
  /// Binary min-heap on key (ordered by Later); every job but the
  /// running one.
  std::vector<ReadyEntry> ready_;
  bool running_ = false;
  JobKey running_key_{};
  uint32_t running_slot_ = 0;
  SimTime running_since_ = 0.0;
  sim::EventId completion_event_ = sim::kInvalidEventId;
  uint64_t next_seq_ = 0;

  stats::TimeWeightedAverage busy_;
  int64_t completed_jobs_ = 0;
  int64_t preemptions_ = 0;
};

}  // namespace rtq::model

#endif  // RTQ_MODEL_CPU_H_
