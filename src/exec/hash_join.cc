#include "exec/hash_join.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace rtq::exec {

HashJoin::HashJoin(const ExecParams& params, const Inputs& inputs)
    : Operator(params), in_(inputs) {
  RTQ_CHECK_MSG(inputs.r_pages > 0 && inputs.s_pages > 0,
                "join operands must be non-empty");
  double fr = params_.fudge_factor * static_cast<double>(in_.r_pages);
  P_ = std::max<int64_t>(1, static_cast<int64_t>(std::ceil(std::sqrt(fr))));
  part_r_ = CeilDiv(in_.r_pages, P_);
  // Maximum: every partition expanded plus one I/O buffer page — the
  // paper's F*||R|| + 1 (an average of 1321 pages for ||R|| = 1200).
  // Sequential reads are block-amortized for every query regardless of
  // its allocation because the per-disk 256 KB cache prefetches
  // BlockSize pages ("all queries capitalize on this facility").
  max_memory_ = static_cast<PageCount>(std::ceil(fr)) + 1;
  // Min must also let the cleanup pass hold one partition's hash table.
  PageCount part_table = static_cast<PageCount>(
      std::ceil(params_.fudge_factor * static_cast<double>(part_r_)));
  min_memory_ = std::max<PageCount>(P_, part_table) + 1;
  if (min_memory_ > max_memory_) min_memory_ = max_memory_;
  r_.extent = in_.r_pages;
  r_.disk = in_.r_disk;
  s_.extent = in_.s_pages;
  s_.disk = in_.s_disk;
}

int64_t HashJoin::ExpandedFor(PageCount m) const {
  if (m >= max_memory_) return P_;
  if (m <= 0) return 0;
  double per_expansion =
      params_.fudge_factor * static_cast<double>(part_r_) - 1.0;
  if (per_expansion <= 0.0) return P_;
  double spare = static_cast<double>(m - 1 - P_);
  if (spare <= 0.0) return 0;
  int64_t e = static_cast<int64_t>(spare / per_expansion);
  return std::clamp<int64_t>(e, 0, P_);
}

void HashJoin::OnAllocationApplied() {
  // After the probe phase the expanded hash tables have already produced
  // all their matches; memory changes only affect cleanup chunk sizing,
  // which is recomputed per chunk.
  if (!InBuild() && !InProbe() && phase_ != Phase::kInit) return;

  int64_t target_e = ExpandedFor(allocation());
  if (target_e < e_) {
    // Contract: spool the hash-table contents of the de-expanded
    // partitions. In the aggregate model each expanded partition holds an
    // equal share of exp_built_.
    if (e_ > 0 && exp_built_ > 0.0) {
      double move = exp_built_ * static_cast<double>(e_ - target_e) /
                    static_cast<double>(e_);
      exp_built_ -= move;
      r_.pending += move;
    }
    e_ = target_e;
  } else if (target_e > e_) {
    if (InProbe() && r_.live > 0 && P_ > e_) {
      // PPHJ expansion: read spilled build pages back so subsequent outer
      // tuples that hash to these partitions join directly. Expansion is
      // "late": it only pays when enough of the probe remains, so near
      // the end of the outer scan the reload is skipped (the cleanup pass
      // handles those partitions more cheaply).
      double s_remaining =
          1.0 - static_cast<double>(s_read_) /
                    static_cast<double>(in_.s_pages);
      if (s_remaining > 0.25) {
        double share = static_cast<double>(r_.live) *
                       static_cast<double>(target_e - e_) /
                       static_cast<double>(P_ - e_);
        reload_pending_ += std::min(static_cast<double>(r_.live), share);
      }
    }
    // During the build phase expansion costs nothing now: future tuples
    // go to in-memory hash tables; already-spilled pages stay on disk for
    // the cleanup pass ("late" adaptation).
    e_ = target_e;
  }
}

void HashJoin::ReleaseTempSpace() {
  ReleaseTemp(&r_.temp);
  ReleaseTemp(&s_.temp);
}

void HashJoin::Flush(Spill* spill, bool final_flush) {
  while (PageCount pages = TakeSpoolBlock(&spill->pending, final_flush)) {
    const storage::TempFile& temp =
        EnsureTemp(&spill->temp, spill->extent, spill->disk);
    // The extent is sized like the operand; under adaptation R pages can
    // cycle out and back, so the (rare) total may exceed the extent: the
    // cursor wraps and the live count stops at the extent's size.
    spill->live = std::min(spill->live + pages, temp.pages);
    SpoolWrite(temp, &spill->write_cursor, pages);
  }
}

void HashJoin::Step() {
  const int64_t tpp = params_.tuples.tuples_per_page();
  const CpuCosts& c = params_.costs;

  switch (phase_) {
    case Phase::kInit:
      phase_ = Phase::kBuildRead;
      StepCpu(c.initiate_op);
      return;

    case Phase::kBuildRead: {
      // Spool contracted-partition output as blocks fill (asynchronous
      // priority spooling: the writes do not block the build).
      Flush(&r_, /*final_flush=*/false);
      if (allocation() == 0) {
        // Suspended: OnAllocationApplied contracted everything; flush the
        // tail and go quiet.
        Flush(&r_, /*final_flush=*/true);
        Idle();
        return;
      }
      if (r_read_ >= in_.r_pages) {
        Flush(&r_, /*final_flush=*/true);
        phase_ = Phase::kProbeRead;
        Continue();
        return;
      }
      cur_block_ =
          std::min<PageCount>(params_.block_size, in_.r_pages - r_read_);
      phase_ = Phase::kBuildCpu;
      StepRead(in_.r_disk, in_.r_start + r_read_, cur_block_);
      return;
    }

    case Phase::kBuildCpu: {
      r_read_ += cur_block_;
      double frac = expanded_fraction();
      double tuples = static_cast<double>(cur_block_ * tpp);
      Instructions instr = static_cast<Instructions>(
          tuples * (frac * static_cast<double>(c.hash_insert) +
                    (1.0 - frac) * static_cast<double>(c.hash_copy)));
      exp_built_ += static_cast<double>(cur_block_) * frac;
      r_.pending += static_cast<double>(cur_block_) * (1.0 - frac);
      phase_ = Phase::kBuildRead;
      StepCpu(instr);
      return;
    }

    case Phase::kProbeReload: {
      PageCount chunk = std::min<PageCount>(
          params_.block_size, static_cast<PageCount>(reload_pending_));
      chunk = std::min(chunk, r_.live);
      if (chunk <= 0) {
        reload_pending_ = 0.0;
        phase_ = Phase::kProbeRead;
        Continue();
        return;
      }
      reload_pending_ -= static_cast<double>(chunk);
      r_.live -= chunk;
      exp_built_ += static_cast<double>(chunk);
      // Read back the most recently spooled pages (tail of the live
      // region): late contraction spools them last, so they are reloaded
      // first.
      StepRead(r_.temp->disk, r_.temp->start_page + r_.live, chunk);
      return;
    }

    case Phase::kProbeRead: {
      // Contraction during probe spools R hash pages; S spool as blocks.
      Flush(&r_, /*final_flush=*/true);
      Flush(&s_, /*final_flush=*/false);
      if (allocation() == 0) {
        Flush(&s_, /*final_flush=*/true);
        Idle();
        return;
      }
      if (reload_pending_ >= 1.0) {
        phase_ = Phase::kProbeReload;
        Continue();
        return;
      }
      if (s_read_ >= in_.s_pages) {
        Flush(&s_, /*final_flush=*/true);
        r_.cleanup_remaining = r_.cleanup_total = r_.live;
        s_.cleanup_remaining = s_.cleanup_total = s_.live;
        // The expanded hash tables have served their purpose; their
        // memory is recycled for cleanup chunks without further I/O.
        exp_built_ = 0.0;
        phase_ = Phase::kCleanupStart;
        Continue();
        return;
      }
      cur_block_ =
          std::min<PageCount>(params_.block_size, in_.s_pages - s_read_);
      phase_ = Phase::kProbeCpu;
      StepRead(in_.s_disk, in_.s_start + s_read_, cur_block_);
      return;
    }

    case Phase::kProbeCpu: {
      s_read_ += cur_block_;
      double frac = expanded_fraction();
      double tuples = static_cast<double>(cur_block_ * tpp);
      // Expanded fraction: probe plus copying one result per probing
      // tuple. Contracted fraction: hash and copy into the spool buffer.
      Instructions instr = static_cast<Instructions>(
          tuples * (frac * static_cast<double>(c.hash_probe + c.hash_copy) +
                    (1.0 - frac) * static_cast<double>(c.hash_copy)));
      s_.pending += static_cast<double>(cur_block_) * (1.0 - frac);
      phase_ = Phase::kProbeRead;
      StepCpu(instr);
      return;
    }

    case Phase::kCleanupStart: {
      if (allocation() == 0) {
        Idle();
        return;
      }
      if (r_.cleanup_remaining <= 0 && s_.cleanup_remaining <= 0) {
        phase_ = Phase::kTerminate;
        Continue();
        return;
      }
      if (r_.cleanup_remaining <= 0) {
        // Rounding left some S behind: scan it against the last chunk.
        r_.chunk_left = 0;
        s_.chunk_left = s_.cleanup_remaining;
        phase_ = Phase::kCleanupReadS;
        Continue();
        return;
      }
      // As much spilled R as the workspace holds at once.
      PageCount fit = static_cast<PageCount>(
          static_cast<double>(std::max<PageCount>(allocation() - 1, 1)) /
          params_.fudge_factor);
      fit = std::max<PageCount>(fit, 1);
      r_.chunk_left = std::min(r_.cleanup_remaining, fit);
      double share = r_.cleanup_total > 0
                         ? static_cast<double>(r_.chunk_left) /
                               static_cast<double>(r_.cleanup_total)
                         : 1.0;
      s_.chunk_left = std::min<PageCount>(
          s_.cleanup_remaining,
          static_cast<PageCount>(std::ceil(
              static_cast<double>(s_.cleanup_total) * share)));
      phase_ = Phase::kCleanupReadR;
      Continue();
      return;
    }

    case Phase::kCleanupReadR:
    case Phase::kCleanupReadS: {
      // A chunk's R pages, then the matching share of S. A pass reads at
      // most the pages live on temp, so the cursor never wraps here.
      const bool r_side = phase_ == Phase::kCleanupReadR;
      Spill& spill = r_side ? r_ : s_;
      if (allocation() == 0) {
        Idle();
        return;
      }
      if (spill.chunk_left <= 0) {
        phase_ = r_side ? Phase::kCleanupReadS : Phase::kCleanupStart;
        Continue();
        return;
      }
      cur_block_ = std::min<PageCount>(params_.block_size, spill.chunk_left);
      spill.chunk_left -= cur_block_;
      spill.cleanup_remaining -= cur_block_;
      phase_ = r_side ? Phase::kCleanupCpuR : Phase::kCleanupCpuS;
      StepRead(*spill.temp, &spill.read_cursor, cur_block_);
      return;
    }

    case Phase::kCleanupCpuR:
      phase_ = Phase::kCleanupReadR;
      StepCpu(cur_block_ * tpp * c.hash_insert);
      return;

    case Phase::kCleanupCpuS:
      phase_ = Phase::kCleanupReadS;
      StepCpu(cur_block_ * tpp * (c.hash_probe + c.hash_copy));
      return;

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
