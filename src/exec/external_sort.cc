#include "exec/external_sort.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace rtq::exec {

ExternalSort::ExternalSort(const ExecParams& params, const Inputs& inputs,
                           Arena* arena)
    : Operator(params), in_(inputs), runs_(ArenaAllocator<PageCount>(arena)) {
  RTQ_CHECK_MSG(inputs.pages > 0, "sort operand must be non-empty");
}

PageCount ExternalSort::HeapPages() const {
  if (!spilling_) return std::max<PageCount>(allocation(), 1);
  return std::max<PageCount>(allocation() - 2, 1);
}

int64_t ExternalSort::FanIn() const {
  return std::max<int64_t>(allocation() - 1, 2);
}

void ExternalSort::ReleaseTempSpace() {
  ReleaseTemp(&temp_a_);
  ReleaseTemp(&temp_b_);
}

void ExternalSort::CloseCurrentRun() {
  if (cur_run_pages_ > 0) {
    runs_.push_back(cur_run_pages_);
    ++runs_formed_;
    cur_run_pages_ = 0;
  }
}

void ExternalSort::FlushOutput(bool final_flush) {
  // Run formation spools to the first extent, the merge phases to the
  // second. The writes are asynchronous; the sort does not stall on them
  // (double-buffered output in [Pang93b]).
  std::optional<storage::TempFile>* dest =
      phase_ == Phase::kFormRead ? &temp_a_ : &temp_b_;
  while (PageCount pages = TakeSpoolBlock(&pend_write_, final_flush)) {
    SpoolWrite(EnsureTemp(dest, in_.pages, in_.disk), &write_cursor_, pages);
  }
}

void ExternalSort::SplitCurrentStep() {
  if (!merging_active_) return;
  // Output produced so far becomes a run of its own; unconsumed input
  // pages continue as (up to) step_fan_ smaller runs. For a final step
  // the emitted output cannot be taken back, so it is written out as a
  // run and the final merge restarts later over the leftovers.
  if (step_consumed_ > 0) {
    if (step_is_final_) pend_write_ += static_cast<double>(step_consumed_);
    runs_.push_front(step_consumed_);
  }
  PageCount remaining = step_total_ - step_consumed_;
  if (remaining > 0) {
    int64_t pieces =
        std::min<int64_t>(step_fan_, static_cast<int64_t>(remaining));
    PageCount base = remaining / pieces;
    PageCount extra = remaining % pieces;
    for (int64_t i = 0; i < pieces; ++i) {
      runs_.push_back(base + (i < extra ? 1 : 0));
    }
  }
  merging_active_ = false;
  step_fan_ = 0;
  step_total_ = 0;
  step_consumed_ = 0;
  step_is_final_ = false;
}

void ExternalSort::OnAllocationApplied() {
  switch (phase_) {
    case Phase::kInit:
    case Phase::kTerminate:
    case Phase::kDone:
      return;
    case Phase::kFormRead:
    case Phase::kFormCpu: {
      PageCount held = cur_run_pages_;
      if (!spilling_ && held > 0 &&
          allocation() < held) {
        // The workspace no longer holds what replacement selection has
        // accumulated: spool it and switch to spilling mode.
        spilling_ = true;
        pend_write_ += static_cast<double>(held);
      }
      if (allocation() == 0 && spilling_ == false && held > 0) {
        spilling_ = true;
        pend_write_ += static_cast<double>(held);
      }
      if (allocation() == 0 && cur_run_pages_ > 0) {
        // Suspension closes the forming run.
        CloseCurrentRun();
      }
      return;
    }
    case Phase::kMergePlan:
      return;
    case Phase::kMergeRead:
    case Phase::kMergeCpu:
      // Step splitting on shrink is handled at the next page boundary in
      // kMergeRead (FanIn() < step_fan_); suspension splits immediately
      // so all state is on disk.
      if (allocation() == 0) SplitCurrentStep();
      return;
    case Phase::kFinalScan:
    case Phase::kFinalScanCpu:
      return;
  }
}

void ExternalSort::Step() {
  const int64_t tpp = params_.tuples.tuples_per_page();
  const CpuCosts& c = params_.costs;

  switch (phase_) {
    case Phase::kInit:
      phase_ = Phase::kFormRead;
      StepCpu(c.initiate_op);
      return;

    case Phase::kFormRead: {
      FlushOutput(/*final_flush=*/allocation() == 0);
      if (allocation() == 0) {
        Idle();
        return;
      }
      if (read_ >= in_.pages) {
        // Formation complete.
        if (!spilling_) {
          // Whole relation sorted in memory; output pipelines to the
          // client with no temp I/O.
          cur_run_pages_ = 0;
          phase_ = Phase::kTerminate;
          Continue();
          return;
        }
        // Close the last (partial) run and drain the spool, then merge.
        CloseCurrentRun();
        FlushOutput(/*final_flush=*/true);
        phase_ = Phase::kMergePlan;
        Continue();
        return;
      }
      cur_block_ =
          std::min<PageCount>(params_.block_size, in_.pages - read_);
      phase_ = Phase::kFormCpu;
      StepRead(in_.disk, in_.start + read_, cur_block_);
      return;
    }

    case Phase::kFormCpu: {
      read_ += cur_block_;
      int64_t heap_tuples = HeapPages() * tpp;
      Instructions per_tuple =
          Log2Ceil(std::max<int64_t>(heap_tuples, 2)) * c.key_compare +
          c.sort_copy;
      Instructions instr = cur_block_ * tpp * per_tuple;

      if (!spilling_ && cur_run_pages_ + cur_block_ > allocation()) {
        // Heap can no longer absorb the input: start spilling. Everything
        // accumulated so far is (conceptually) streamed through the heap
        // onto disk as the first run.
        spilling_ = true;
        pend_write_ += static_cast<double>(cur_run_pages_);
      }
      cur_run_pages_ += cur_block_;
      if (spilling_) {
        pend_write_ += static_cast<double>(cur_block_);
        // Replacement selection: runs average twice the heap size.
        PageCount run_target = 2 * HeapPages();
        if (cur_run_pages_ >= run_target) CloseCurrentRun();
      }
      phase_ = Phase::kFormRead;
      StepCpu(instr);
      return;
    }

    case Phase::kMergePlan: {
      FlushOutput(/*final_flush=*/true);
      if (allocation() < min_memory()) {
        Idle();
        return;
      }
      if (runs_.empty()) {
        phase_ = Phase::kTerminate;
        Continue();
        return;
      }
      if (runs_.size() == 1) {
        // A single spilled run: stream it back to the client.
        final_scan_left_ = runs_.front();
        runs_.pop_front();
        read_cursor_ = 0;
        phase_ = Phase::kFinalScan;
        Continue();
        return;
      }
      int64_t fan = std::min<int64_t>(
          FanIn(), static_cast<int64_t>(runs_.size()));
      step_fan_ = fan;
      step_total_ = 0;
      for (int64_t i = 0; i < fan; ++i) {
        step_total_ += runs_.front();
        runs_.pop_front();
      }
      step_consumed_ = 0;
      step_is_final_ = runs_.empty();
      merging_active_ = true;
      ++merge_steps_;
      phase_ = Phase::kMergeRead;
      Continue();
      return;
    }

    case Phase::kMergeRead: {
      FlushOutput(/*final_flush=*/false);
      if (allocation() == 0) {
        // OnAllocationApplied already split the step.
        FlushOutput(/*final_flush=*/true);
        Idle();
        return;
      }
      if (merging_active_ && FanIn() < step_fan_) {
        // Memory shrank below the step's fan-in: split the step.
        SplitCurrentStep();
        phase_ = Phase::kMergePlan;
        Continue();
        return;
      }
      if (!merging_active_) {
        phase_ = Phase::kMergePlan;
        Continue();
        return;
      }
      if (step_consumed_ >= step_total_) {
        // Step done: its output (already spooled unless final) becomes a
        // run for the next level.
        merging_active_ = false;
        if (!step_is_final_) {
          runs_.push_back(step_total_);
          phase_ = Phase::kMergePlan;
        } else {
          phase_ = Phase::kMergePlan;  // runs_ empty -> terminate
        }
        Continue();
        return;
      }
      // Merge-phase reads are single-page: inputs are scattered across
      // runs, so the prefetch block would be wasted (paper Section 4.2).
      phase_ = Phase::kMergeCpu;
      StepRead(EnsureTemp(&temp_a_, in_.pages, in_.disk), &read_cursor_, 1);
      return;
    }

    case Phase::kMergeCpu: {
      ++step_consumed_;
      if (!step_is_final_) pend_write_ += 1.0;
      Instructions per_tuple =
          Log2Ceil(std::max<int64_t>(step_fan_, 2)) * c.key_compare +
          c.sort_copy;
      phase_ = Phase::kMergeRead;
      StepCpu(tpp * per_tuple);
      return;
    }

    case Phase::kFinalScan: {
      if (allocation() == 0) {
        Idle();
        return;
      }
      if (final_scan_left_ <= 0) {
        phase_ = Phase::kTerminate;
        Continue();
        return;
      }
      cur_block_ =
          std::min<PageCount>(params_.block_size, final_scan_left_);
      final_scan_left_ -= cur_block_;
      // Delivery copy cost is charged with the block that follows; the
      // scan alternates read / copy like the other phases.
      pend_scan_cpu_ = cur_block_ * tpp * c.sort_copy;
      phase_ = Phase::kFinalScanCpu;
      StepRead(EnsureTemp(&temp_a_, in_.pages, in_.disk), &read_cursor_,
               cur_block_);
      return;
    }

    case Phase::kFinalScanCpu: {
      Instructions instr = pend_scan_cpu_;
      pend_scan_cpu_ = 0;
      phase_ = Phase::kFinalScan;
      StepCpu(instr);
      return;
    }

    case Phase::kTerminate:
      phase_ = Phase::kDone;
      StepCpu(c.terminate_op);
      return;

    case Phase::kDone:
      Complete();
      return;
  }
}

}  // namespace rtq::exec
