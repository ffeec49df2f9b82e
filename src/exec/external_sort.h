// Memory-adaptive external sort, modelling [Pang93b].
//
// Phase 1 (run formation) uses replacement selection: with a workspace of
// m pages (two reserved for I/O buffers), runs average 2*(m-2) pages, so a
// relation that fits in memory sorts in one run with no temp I/O — the
// paper's "maximum memory requirement of an external sort is the size of
// its operand relation". The minimum is 3 pages (1-page heap + 2 buffers).
//
// Phase 2 repeatedly merges runs with fan-in = m - 1. Adaptivity follows
// [Pang93b]: if memory shrinks mid-step, the step is *split* — the output
// produced so far becomes a run of its own and the remaining input
// continues as smaller runs; if memory grows, subsequent steps *combine*
// more runs at once. Merge-phase reads are single-page (the paper
// excludes the merge phase from block prefetching); writes are spooled in
// blocks when buffers allow. The final merge pipelines its output to the
// client without writing it.

#ifndef RTQ_EXEC_EXTERNAL_SORT_H_
#define RTQ_EXEC_EXTERNAL_SORT_H_

#include <deque>
#include <optional>

#include "common/arena.h"
#include "common/types.h"
#include "exec/cost_model.h"
#include "exec/operator.h"

namespace rtq::exec {

class ExternalSort : public Operator {
 public:
  struct Inputs {
    DiskId disk = 0;
    PageCount start = 0;
    PageCount pages = 0;
  };

  /// `arena`, when non-null, backs the run-length deque so a query built
  /// into an arena performs no heap allocation; nullptr uses the heap.
  ExternalSort(const ExecParams& params, const Inputs& inputs,
               Arena* arena = nullptr);

  PageCount min_memory() const override { return 3; }
  PageCount max_memory() const override { return in_.pages; }

  // --- introspection (tests, metrics) -----------------------------------
  int64_t runs_formed() const { return runs_formed_; }
  int64_t merge_steps() const { return merge_steps_; }

 protected:
  void Step() override;
  void OnAllocationApplied() override;
  void ReleaseTempSpace() override;

 private:
  enum class Phase {
    kInit,        // charge the initiate-sort CPU cost
    kFormRead,    // read next block of the operand relation
    kFormCpu,     // replacement-selection CPU for the block's tuples
    kMergePlan,   // select the runs for the next merge step
    kMergeRead,   // read one page of merge input
    kMergeCpu,    // merge CPU for that page's tuples
    kFinalScan,    // single spilled run: stream it back to the client
    kFinalScanCpu, // delivery copy cost for the scanned block
    kTerminate,    // charge the terminate-sort CPU cost
    kDone,
  };

  /// Heap pages available for run formation at the current allocation.
  PageCount HeapPages() const;
  /// Merge fan-in at the current allocation.
  int64_t FanIn() const;

  void EnsureTemp();
  /// Closes the run being formed (if any) and appends it to runs_.
  void CloseCurrentRun();
  /// Spools all pending output blocks as fire-and-forget writes;
  /// `final_flush` also spools a sub-block tail.
  void FlushOutput(bool final_flush);
  /// Ends the in-progress merge step, emitting the output produced so far
  /// as a run and re-queueing unconsumed input (step splitting).
  void SplitCurrentStep();

  ExecParams params_;
  Inputs in_;

  Phase phase_ = Phase::kInit;

  // Run formation.
  PageCount read_ = 0;          // operand pages consumed
  PageCount cur_block_ = 0;     // pages in the block being processed
  PageCount cur_run_pages_ = 0; // pages accumulated into the forming run
  int64_t runs_formed_ = 0;
  bool spilling_ = false;       // false while the input still fits in memory

  // Pending spooled writes (run formation and merge output).
  double pend_write_ = 0.0;

  // Merge state.
  /// Lengths of runs awaiting merging (arena-backed when available).
  std::deque<PageCount, ArenaAllocator<PageCount>> runs_;
  bool merging_active_ = false;
  int64_t step_fan_ = 0;          // fan-in of the in-progress step
  PageCount step_total_ = 0;      // input pages of the in-progress step
  PageCount step_consumed_ = 0;   // input pages already merged
  bool step_is_final_ = false;    // output goes to client, not disk
  int64_t merge_steps_ = 0;

  // Temp extents: ping-pong between two regions sized ||R||.
  std::optional<storage::TempFile> temp_a_;
  std::optional<storage::TempFile> temp_b_;
  bool reading_from_a_ = true;
  PageCount read_cursor_ = 0;   // within the source extent
  PageCount write_cursor_ = 0;  // within the destination extent

  PageCount final_scan_left_ = 0;
  Instructions pend_scan_cpu_ = 0;
};

}  // namespace rtq::exec

#endif  // RTQ_EXEC_EXTERNAL_SORT_H_
