// The memory-adaptive operator protocol.
//
// Queries in the paper are single-operator plans (a hash join or an
// external sort) built on the memory-adaptive primitives of [Pang93a] and
// [Pang93b]. The protocol between the memory manager and an operator is:
//
//   * min_memory() / max_memory() — the operator's workspace demands.
//   * SetAllocation(p) — the memory manager granted / revised the
//     workspace to p pages. p == 0 suspends the operator (it spools its
//     in-memory state and goes quiet); p >= min_memory() lets it run.
//     Takes effect at the next step boundary (a block of work, ~6 pages),
//     spooling or reloading state as needed.
//   * Start(ctx) — begin execution. The allocation must already be set to
//     a runnable value.
//   * Abort() — the query missed its deadline; release temp space and
//     stop. The engine has already cancelled outstanding CPU/disk work.
//
// Operators drive themselves: each step issues asynchronous CPU/disk
// demands through the ExecContext and re-enters the state machine from
// the completion callback. Exactly one asynchronous chain is outstanding
// per operator at any time.

#ifndef RTQ_EXEC_OPERATOR_H_
#define RTQ_EXEC_OPERATOR_H_

#include <functional>
#include <optional>

#include "common/types.h"
#include "exec/cost_model.h"
#include "exec/exec_context.h"

namespace rtq::exec {

/// Aggregate I/O and CPU counters an operator maintains; used by metrics,
/// tests, and the workload monitor.
struct OperatorCounters {
  int64_t read_requests = 0;
  int64_t write_requests = 0;
  PageCount pages_read = 0;
  PageCount pages_written = 0;
  Instructions cpu_instructions = 0;
};

/// The protocol above, plus the step bookkeeping and the temp-file
/// primitives both concrete operators (HashJoin, ExternalSort) share;
/// they implement the workspace demands and the three hooks below.
class Operator {
 public:
  explicit Operator(const ExecParams& params);
  virtual ~Operator() = default;

  /// Smallest workspace the operator can make progress with.
  virtual PageCount min_memory() const = 0;
  /// Workspace that lets the operator run without any temp-file I/O.
  virtual PageCount max_memory() const = 0;

  /// Memory manager grants/revises the workspace. 0 suspends.
  void SetAllocation(PageCount pages);

  /// Begins execution; requires a prior SetAllocation(>= min_memory()).
  void Start(ExecContext* ctx);

  /// Deadline miss: free temp space, stop issuing work.
  void Abort();

  bool started() const { return started_; }
  bool finished() const { return finished_; }

  PageCount allocation() const { return allocation_; }
  const OperatorCounters& counters() const { return counters_; }

  /// Invoked exactly once when the operator completes all its work.
  std::function<void()> on_finished;

 protected:
  /// Issues the next unit of asynchronous work through the helpers below;
  /// implementations must not leave more than one chain outstanding.
  virtual void Step() = 0;

  /// Reconfigure internal plans for allocation() pages; called at step
  /// boundaries when the granted allocation changed. Implementations may
  /// enqueue spool/reload I/O by adjusting their state before the next
  /// Step() runs.
  virtual void OnAllocationApplied() = 0;

  /// Frees the operator's temp extents (ReleaseTemp each); called from
  /// Abort() and Complete().
  virtual void ReleaseTempSpace() = 0;

  // --- helpers for subclasses -------------------------------------------

  /// True when the operator should run the next step now.
  bool CanRun() const { return started_ && !finished_ && !aborted_; }

  /// Runs `instructions` of CPU then re-enters the state machine.
  void StepCpu(Instructions instructions);
  /// Reads then re-enters.
  void StepRead(DiskId disk, PageCount start, PageCount pages);
  /// Reads `pages` of `file` at `*cursor` (see Advance), then re-enters.
  void StepRead(const storage::TempFile& file, PageCount* cursor,
                PageCount pages);

  // --- temp files -------------------------------------------------------
  // Both operators spill the same way: pages owed to temp accumulate as a
  // fractional count and leave in blocks, written to an extent allocated
  // on first use and walked by a cursor.

  /// Takes the next spool block off `*pending`: a full block_size, or on
  /// a final flush the sub-block tail (at least one page); 0 when none is
  /// due.
  PageCount TakeSpoolBlock(double* pending, bool final_flush) const;

  /// `*file`, allocated as `pages` pages near `disk` on first use. Temp
  /// space exhaustion is fatal.
  const storage::TempFile& EnsureTemp(std::optional<storage::TempFile>* file,
                                      PageCount pages, DiskId disk);
  /// Frees `*file` if it is allocated.
  void ReleaseTemp(std::optional<storage::TempFile>* file);

  /// Fire-and-forget spool write of `pages` at `*cursor` in `file`, the
  /// only kind of write: it is queued on the disk at background priority
  /// and the operator does NOT wait for it — PPHJ's "priority spooling"
  /// and the sort's block-spooled output. Does not consume the current
  /// step.
  void SpoolWrite(const storage::TempFile& file, PageCount* cursor,
                  PageCount pages);

  /// Marks completion and fires on_finished.
  void Complete();

  /// Declares that this step issues no work (suspended or waiting for a
  /// larger allocation). Step() must call exactly one of StepCpu,
  /// StepRead, Complete, or Idle.
  void Idle() { in_flight_ = false; }

  /// Re-enters the state machine: applies any pending allocation change,
  /// then either idles (suspended / below min) or calls Step().
  void Continue();

  ExecParams params_;
  ExecContext* ctx_ = nullptr;
  OperatorCounters counters_;

 private:
  /// The first page of an access of `pages` at `*cursor` in `file`, and
  /// moves the cursor past it. An access that would run past the end of
  /// the extent starts over at its first page.
  static PageCount Advance(const storage::TempFile& file, PageCount* cursor,
                           PageCount pages);

  PageCount allocation_ = 0;
  PageCount applied_allocation_ = -1;  // force first application
  bool started_ = false;
  bool finished_ = false;
  bool aborted_ = false;
  bool in_flight_ = false;  // an async chain is outstanding
};

}  // namespace rtq::exec

#endif  // RTQ_EXEC_OPERATOR_H_
