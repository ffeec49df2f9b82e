// Memory-adaptive partitioned hash join, modelling PPHJ [Pang93a].
//
// The join splits the inner relation R into P = ceil(sqrt(F*||R||))
// partitions. At any moment e of the P partitions are *expanded* (their
// hash tables live in memory, F * partition-size pages each) and P - e are
// *contracted* (streamed to a temp file through one output buffer page
// each). The allocation determines e:
//
//   memory(e) = 1 input buffer + (P - e) output buffers + e * F * ||R||/P
//
// so min = P + 1 (all contracted) and max = F*||R|| + 1 (all expanded),
// matching the paper's Section 3.2. When the memory manager shrinks the
// workspace, expanded partitions are contracted and their hash-table
// contents spooled; when it grows during the probe phase, contracted
// partitions are re-expanded by reading their spilled build pages back so
// that subsequent probe tuples join directly (PPHJ's expansion). Spilled
// partition pairs are joined in a cleanup pass at the end.
//
// The simulation models partitions in aggregate (fractions of pages and
// tuples) rather than tracking individual tuples.

#ifndef RTQ_EXEC_HASH_JOIN_H_
#define RTQ_EXEC_HASH_JOIN_H_

#include <optional>

#include "common/types.h"
#include "exec/cost_model.h"
#include "exec/operator.h"

namespace rtq::exec {

class HashJoin : public Operator {
 public:
  struct Inputs {
    DiskId r_disk = 0;
    PageCount r_start = 0;
    PageCount r_pages = 0;  ///< inner (building) relation size
    DiskId s_disk = 0;
    PageCount s_start = 0;
    PageCount s_pages = 0;  ///< outer (probing) relation size
  };

  HashJoin(const ExecParams& params, const Inputs& inputs);

  PageCount min_memory() const override { return min_memory_; }
  PageCount max_memory() const override { return max_memory_; }

  // --- introspection (tests, metrics) -----------------------------------
  int64_t num_partitions() const { return P_; }
  int64_t expanded_partitions() const { return e_; }
  PageCount spilled_r_pages() const { return r_.live; }

 protected:
  void Step() override;
  void OnAllocationApplied() override;
  void ReleaseTempSpace() override;

 private:
  enum class Phase {
    kInit,          // charge the initiate-join CPU cost
    kBuildRead,     // read next block of R
    kBuildCpu,      // hash/insert or hash/copy the block's tuples
    kProbeReload,   // re-expand partitions: read spilled R pages back
    kProbeRead,     // read next block of S
    kProbeCpu,      // probe or spool the block's tuples
    kCleanupStart,  // plan the next cleanup chunk
    kCleanupReadR,  // read a block of a spilled R chunk
    kCleanupCpuR,   // build cost for that block
    kCleanupReadS,  // read a block of the matching S share
    kCleanupCpuS,   // probe cost for that block
    kTerminate,     // charge the terminate-join CPU cost
    kDone,
  };

  bool InBuild() const {
    return phase_ == Phase::kBuildRead || phase_ == Phase::kBuildCpu;
  }
  bool InProbe() const {
    return phase_ == Phase::kProbeRead || phase_ == Phase::kProbeCpu ||
           phase_ == Phase::kProbeReload;
  }

  /// Expanded-partition count supportable with `m` pages.
  int64_t ExpandedFor(PageCount m) const;
  double expanded_fraction() const {
    return static_cast<double>(e_) / static_cast<double>(P_);
  }

  /// One operand's spill: its temp extent (sized like the operand, on
  /// the operand's disk), the pages owed to it, and the cleanup pass's
  /// progress through it.
  struct Spill {
    PageCount extent = 0;
    DiskId disk = 0;
    std::optional<storage::TempFile> temp;
    double pending = 0.0;        // pages awaiting spool
    PageCount write_cursor = 0;  // write position in temp
    PageCount live = 0;          // pages currently on temp
    // Cleanup progress.
    PageCount cleanup_total = 0;
    PageCount cleanup_remaining = 0;
    PageCount chunk_left = 0;   // pages left in the current chunk
    PageCount read_cursor = 0;  // read position in temp
  };

  /// Spools all pending full blocks of `spill` as fire-and-forget writes;
  /// `final_flush` also spools a sub-block tail.
  void Flush(Spill* spill, bool final_flush);

  Inputs in_;

  int64_t P_ = 1;           // number of partitions
  PageCount part_r_ = 1;    // pages of R per partition
  PageCount min_memory_ = 0;
  PageCount max_memory_ = 0;

  Phase phase_ = Phase::kInit;
  int64_t e_ = 0;  // currently expanded partitions

  // Build/probe cursors over the operand relations.
  PageCount r_read_ = 0;
  PageCount s_read_ = 0;
  PageCount cur_block_ = 0;  // pages in the block being processed

  // In-memory / spilled state, in tuple-pages (aggregate model).
  double exp_built_ = 0.0;       // R pages resident in hash tables
  double reload_pending_ = 0.0;  // pages to read back for expansion
  Spill r_;
  Spill s_;
};

}  // namespace rtq::exec

#endif  // RTQ_EXEC_HASH_JOIN_H_
