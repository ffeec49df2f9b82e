// The services an executing operator may request from the system.
//
// The engine implements this per query, binding the query's id and
// deadline into every CPU job and disk request so that ED scheduling and
// per-query cancellation work transparently. Tests implement it with a
// synchronous mock, which makes the operator state machines unit-testable
// without the full system.

#ifndef RTQ_EXEC_EXEC_CONTEXT_H_
#define RTQ_EXEC_EXEC_CONTEXT_H_

#include "common/inline_callback.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/temp_space.h"

namespace rtq::exec {

/// Continuation passed to the asynchronous ExecContext services. Inline
/// small-buffer (no heap): operator continuations capture only `this`,
/// and 24 bytes leaves room for a small extra word in mocks. Oversized
/// captures fail to compile (common/inline_callback.h).
using DoneCallback = InlineCallback<24>;

class ExecContext {
 public:
  virtual ~ExecContext() = default;

  virtual SimTime Now() const = 0;

  /// Executes `instructions` on the CPU (ED-scheduled, preemptible), then
  /// invokes `done`. Implementations add the per-request start-I/O CPU
  /// charge to Read/Write themselves; callers only pass algorithmic work.
  virtual void RunCpu(Instructions instructions, DoneCallback done) = 0;

  /// Reads `pages` consecutive pages starting at `start_page` on `disk`,
  /// then invokes `done`.
  virtual void Read(DiskId disk, PageCount start_page, PageCount pages,
                    DoneCallback done) = 0;

  /// Queues a write of `pages` consecutive pages starting at `start_page`
  /// on `disk`. Writes are fire-and-forget spool writes: the operator
  /// never waits on one, and each carries the lowest disk priority (spool
  /// traffic must never delay deadline-critical reads — PPHJ's "priority
  /// spooling"). Callers pass an empty `done` and `background` = true;
  /// the engine rejects anything else. The two parameters remain only
  /// because existing implementations (the rtqbench harness) override
  /// this signature.
  virtual void Write(DiskId disk, PageCount start_page, PageCount pages,
                     DoneCallback done, bool background) = 0;

  /// Allocates / frees temp-file extents (inner/outer cylinders).
  virtual StatusOr<storage::TempFile> AllocateTemp(PageCount pages,
                                                   DiskId preferred) = 0;
  virtual void FreeTemp(const storage::TempFile& file) = 0;
};

}  // namespace rtq::exec

#endif  // RTQ_EXEC_EXEC_CONTEXT_H_
