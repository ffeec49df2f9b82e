#include "exec/operator.h"

#include "common/check.h"

namespace rtq::exec {

void Operator::SetAllocation(PageCount pages) {
  RTQ_CHECK_MSG(pages >= 0, "allocation must be >= 0");
  allocation_ = pages;
  // If the operator is idle (not mid-chain), apply the change now; a
  // suspended operator may wake up. Mid-chain changes are picked up by
  // Continue() at the next step boundary.
  if (started_ && !finished_ && !aborted_ && !in_flight_) Continue();
}

void Operator::Start(ExecContext* ctx) {
  RTQ_CHECK(ctx != nullptr);
  RTQ_CHECK_MSG(!started_, "operator started twice");
  RTQ_CHECK_MSG(allocation_ >= min_memory(),
                "Start requires a runnable allocation");
  ctx_ = ctx;
  started_ = true;
  Continue();
}

void Operator::Abort() {
  if (aborted_ || finished_) return;
  aborted_ = true;
  ReleaseTempSpace();
}

void Operator::Continue() {
  if (!CanRun()) return;
  if (allocation_ != applied_allocation_) {
    applied_allocation_ = allocation_;
    OnAllocationApplied();
    if (!CanRun()) return;  // OnAllocationApplied may complete/abort
  }
  // Suspended (allocation 0) still steps, so queued spool writes drain.
  in_flight_ = true;
  Step();
  // Step() either issued async work (callbacks re-enter Continue()) or
  // decided to idle by calling neither helper; detect the latter via the
  // flag it clears.
}

void Operator::StepCpu(Instructions instructions) {
  RTQ_DCHECK(in_flight_);
  counters_.cpu_instructions += instructions;
  ctx_->RunCpu(instructions, [this] {
    if (aborted_ || finished_) return;
    in_flight_ = false;
    Continue();
  });
}

void Operator::StepRead(DiskId disk, PageCount start, PageCount pages) {
  RTQ_DCHECK(in_flight_);
  ++counters_.read_requests;
  counters_.pages_read += pages;
  ctx_->Read(disk, start, pages, [this] {
    if (aborted_ || finished_) return;
    in_flight_ = false;
    Continue();
  });
}

void Operator::FireWrite(DiskId disk, PageCount start, PageCount pages) {
  ++counters_.write_requests;
  counters_.pages_written += pages;
  ctx_->Write(disk, start, pages, nullptr, /*background=*/true);
}

void Operator::Complete() {
  RTQ_CHECK(!finished_);
  finished_ = true;
  in_flight_ = false;
  ReleaseTempSpace();
  if (on_finished) on_finished();
}

}  // namespace rtq::exec
