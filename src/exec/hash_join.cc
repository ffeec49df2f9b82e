#include "exec/hash_join.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace rtq::exec {

namespace {
PageCount CeilDiv(PageCount a, PageCount b) { return (a + b - 1) / b; }
}  // namespace

HashJoin::HashJoin(const ExecParams& params, const Inputs& inputs)
    : params_(params), in_(inputs) {
  RTQ_CHECK_MSG(params.Validate().ok(), "invalid exec params");
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
      pend_r_spill_ += move;
    }
    e_ = target_e;
  } else if (target_e > e_) {
    if (InProbe() && r_live_spilled_ > 0 && P_ > e_) {
      // PPHJ expansion: read spilled build pages back so subsequent outer
      // tuples that hash to these partitions join directly. Expansion is
      // "late": it only pays when enough of the probe remains, so near
      // the end of the outer scan the reload is skipped (the cleanup pass
      // handles those partitions more cheaply).
      double s_remaining =
          1.0 - static_cast<double>(s_read_) /
                    static_cast<double>(in_.s_pages);
      if (s_remaining > 0.25) {
        double share = static_cast<double>(r_live_spilled_) *
                       static_cast<double>(target_e - e_) /
                       static_cast<double>(P_ - e_);
        reload_pending_ +=
            std::min(static_cast<double>(r_live_spilled_), share);
      }
    }
    // During the build phase expansion costs nothing now: future tuples
    // go to in-memory hash tables; already-spilled pages stay on disk for
    // the cleanup pass ("late" adaptation).
    e_ = target_e;
  }
}

void HashJoin::EnsureRTemp() {
  if (r_temp_) return;
  auto file = ctx_->AllocateTemp(in_.r_pages, in_.r_disk);
  RTQ_CHECK_MSG(file.ok(), "temp space exhausted (R spill)");
  r_temp_ = std::move(file).value();
}

void HashJoin::EnsureSTemp() {
  if (s_temp_) return;
  auto file = ctx_->AllocateTemp(in_.s_pages, in_.s_disk);
  RTQ_CHECK_MSG(file.ok(), "temp space exhausted (S spill)");
  s_temp_ = std::move(file).value();
}

void HashJoin::ReleaseTempSpace() {
  if (r_temp_) {
    ctx_->FreeTemp(*r_temp_);
    r_temp_.reset();
  }
  if (s_temp_) {
    ctx_->FreeTemp(*s_temp_);
    s_temp_.reset();
  }
}

void HashJoin::FlushR(bool final_flush) {
  while (true) {
    PageCount whole = static_cast<PageCount>(pend_r_spill_);
    PageCount to_write = 0;
    if (whole >= params_.block_size) {
      to_write = params_.block_size;
    } else if (final_flush && pend_r_spill_ > 1e-9) {
      to_write = std::max<PageCount>(1, whole);
    }
    if (to_write == 0) return;
    EnsureRTemp();
    pend_r_spill_ = std::max(0.0, pend_r_spill_ - to_write);
    // The extent is sized ||R||; under adaptation R pages can cycle out
    // and back, so wrap the cursor if the (rare) total exceeds the extent.
    if (r_temp_cursor_ + to_write > r_temp_->pages) r_temp_cursor_ = 0;
    PageCount at = r_temp_->start_page + r_temp_cursor_;
    r_temp_cursor_ += to_write;
    r_live_spilled_ = std::min(r_live_spilled_ + to_write, r_temp_->pages);
    FireWrite(r_temp_->disk, at, to_write);
  }
}

void HashJoin::FlushS(bool final_flush) {
  while (true) {
    PageCount whole = static_cast<PageCount>(pend_s_spill_);
    PageCount to_write = 0;
    if (whole >= params_.block_size) {
      to_write = params_.block_size;
    } else if (final_flush && pend_s_spill_ > 1e-9) {
      to_write = std::max<PageCount>(1, whole);
    }
    if (to_write == 0) return;
    EnsureSTemp();
    pend_s_spill_ = std::max(0.0, pend_s_spill_ - to_write);
    if (s_temp_cursor_ + to_write > s_temp_->pages) s_temp_cursor_ = 0;
    PageCount at = s_temp_->start_page + s_temp_cursor_;
    s_temp_cursor_ += to_write;
    s_live_spilled_ = std::min(s_live_spilled_ + to_write, s_temp_->pages);
    FireWrite(s_temp_->disk, at, to_write);
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
      FlushR(/*final_flush=*/false);
      if (allocation() == 0) {
        // Suspended: OnAllocationApplied contracted everything; flush the
        // tail and go quiet.
        FlushR(/*final_flush=*/true);
        Idle();
        return;
      }
      if (r_read_ >= in_.r_pages) {
        FlushR(/*final_flush=*/true);
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
      pend_r_spill_ += static_cast<double>(cur_block_) * (1.0 - frac);
      phase_ = Phase::kBuildRead;
      StepCpu(instr);
      return;
    }

    case Phase::kProbeReload: {
      PageCount chunk = std::min<PageCount>(
          params_.block_size, static_cast<PageCount>(reload_pending_));
      chunk = std::min(chunk, r_live_spilled_);
      if (chunk <= 0) {
        reload_pending_ = 0.0;
        phase_ = Phase::kProbeRead;
        Continue();
        return;
      }
      reload_pending_ -= static_cast<double>(chunk);
      r_live_spilled_ -= chunk;
      exp_built_ += static_cast<double>(chunk);
      // Read back the most recently spooled pages (tail of the live
      // region): late contraction spools them last, so they are reloaded
      // first.
      StepRead(r_temp_->disk, r_temp_->start_page + r_live_spilled_, chunk);
      return;
    }

    case Phase::kProbeRead: {
      // Contraction during probe spools R hash pages; S spool as blocks.
      FlushR(/*final_flush=*/true);
      FlushS(/*final_flush=*/false);
      if (allocation() == 0) {
        FlushS(/*final_flush=*/true);
        Idle();
        return;
      }
      if (reload_pending_ >= 1.0) {
        phase_ = Phase::kProbeReload;
        Continue();
        return;
      }
      if (s_read_ >= in_.s_pages) {
        FlushS(/*final_flush=*/true);
        cleanup_r_remaining_ = cleanup_r_total_ = r_live_spilled_;
        cleanup_s_remaining_ = cleanup_s_total_ = s_live_spilled_;
        // The expanded hash tables have served their purpose; their
        // memory is recycled for cleanup chunks without further I/O.
        exp_built_ = 0.0;
        cleanup_r_cursor_ = 0;
        cleanup_s_cursor_ = 0;
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
      pend_s_spill_ += static_cast<double>(cur_block_) * (1.0 - frac);
      phase_ = Phase::kProbeRead;
      StepCpu(instr);
      return;
    }

    case Phase::kCleanupStart: {
      if (allocation() == 0) {
        Idle();
        return;
      }
      if (cleanup_r_remaining_ <= 0 && cleanup_s_remaining_ <= 0) {
        phase_ = Phase::kTerminate;
        Continue();
        return;
      }
      if (cleanup_r_remaining_ <= 0) {
        // Rounding left some S behind: scan it against the last chunk.
        chunk_r_left_ = 0;
        chunk_s_left_ = cleanup_s_remaining_;
        phase_ = Phase::kCleanupReadS;
        Continue();
        return;
      }
      // As much spilled R as the workspace holds at once.
      PageCount fit = static_cast<PageCount>(
          static_cast<double>(std::max<PageCount>(allocation() - 1, 1)) /
          params_.fudge_factor);
      fit = std::max<PageCount>(fit, 1);
      chunk_r_left_ = std::min(cleanup_r_remaining_, fit);
      double share = cleanup_r_total_ > 0
                         ? static_cast<double>(chunk_r_left_) /
                               static_cast<double>(cleanup_r_total_)
                         : 1.0;
      chunk_s_left_ = std::min<PageCount>(
          cleanup_s_remaining_,
          static_cast<PageCount>(std::ceil(
              static_cast<double>(cleanup_s_total_) * share)));
      phase_ = Phase::kCleanupReadR;
      Continue();
      return;
    }

    case Phase::kCleanupReadR: {
      if (allocation() == 0) {
        Idle();
        return;
      }
      if (chunk_r_left_ <= 0) {
        phase_ = Phase::kCleanupReadS;
        Continue();
        return;
      }
      cur_block_ = std::min<PageCount>(params_.block_size, chunk_r_left_);
      chunk_r_left_ -= cur_block_;
      cleanup_r_remaining_ -= cur_block_;
      PageCount at = r_temp_->start_page +
                     (cleanup_r_cursor_ % r_temp_->pages);
      cleanup_r_cursor_ += cur_block_;
      phase_ = Phase::kCleanupCpuR;
      StepRead(
          r_temp_->disk, at,
          std::min(cur_block_, r_temp_->pages - (at - r_temp_->start_page)));
      return;
    }

    case Phase::kCleanupCpuR:
      phase_ = Phase::kCleanupReadR;
      StepCpu(cur_block_ * tpp * c.hash_insert);
      return;

    case Phase::kCleanupReadS: {
      if (allocation() == 0) {
        Idle();
        return;
      }
      if (chunk_s_left_ <= 0) {
        phase_ = Phase::kCleanupStart;
        Continue();
        return;
      }
      cur_block_ = std::min<PageCount>(params_.block_size, chunk_s_left_);
      chunk_s_left_ -= cur_block_;
      cleanup_s_remaining_ -= cur_block_;
      PageCount at = s_temp_->start_page +
                     (cleanup_s_cursor_ % s_temp_->pages);
      cleanup_s_cursor_ += cur_block_;
      phase_ = Phase::kCleanupCpuS;
      StepRead(
          s_temp_->disk, at,
          std::min(cur_block_, s_temp_->pages - (at - s_temp_->start_page)));
      return;
    }

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
