#include "engine/sharded_rtdbs.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "common/check.h"

namespace rtq::engine {

namespace {

constexpr SimTime kNever = std::numeric_limits<SimTime>::infinity();

/// Completion-weighted merge of one shard's class summary into the
/// cluster aggregate.
void MergeClass(const ClassSummary& in, ClassSummary* out) {
  const double n0 = static_cast<double>(out->completions);
  const double n1 = static_cast<double>(in.completions);
  if (n0 + n1 > 0.0) {
    out->avg_wait = (out->avg_wait * n0 + in.avg_wait * n1) / (n0 + n1);
    out->avg_exec = (out->avg_exec * n0 + in.avg_exec * n1) / (n0 + n1);
    out->avg_response =
        (out->avg_response * n0 + in.avg_response * n1) / (n0 + n1);
    out->avg_fluctuations =
        (out->avg_fluctuations * n0 + in.avg_fluctuations * n1) / (n0 + n1);
  }
  out->completions += in.completions;
  out->misses += in.misses;
  out->miss_ratio = out->completions > 0
                        ? static_cast<double>(out->misses) /
                              static_cast<double>(out->completions)
                        : 0.0;
}

/// Time of `shard`'s earliest pending event; kNever when it has none.
SimTime HeadTime(const Rtdbs& shard) {
  const sim::EventQueue& q = shard.simulator().queue();
  return q.Empty() ? kNever : q.PeekTime();
}

}  // namespace

// ---------------------------------------------------------------------------
// Runs every shard of a local-admission cluster to a common horizon. The
// helper threads and the calling thread claim shard indices from a shared
// counter, so one slow shard never idles the rest; RunUntil returns once
// every helper has checked back in. Between calls the helpers block on a
// condition variable, and a call allocates nothing.
// ---------------------------------------------------------------------------
class ShardedRtdbs::ShardWorkers {
 public:
  ShardWorkers(const std::vector<std::unique_ptr<Rtdbs>>& shards,
               size_t helpers)
      : shards_(shards), errors_(shards.size()) {
    threads_.reserve(helpers);
    try {
      for (size_t t = 0; t < helpers; ++t) {
        threads_.emplace_back([this] { Serve(); });
      }
    } catch (...) {
      Stop();
      throw;
    }
  }

  ~ShardWorkers() { Stop(); }

  ShardWorkers(const ShardWorkers&) = delete;
  ShardWorkers& operator=(const ShardWorkers&) = delete;

  void RunUntil(SimTime until) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      until_ = until;
      next_.store(0, std::memory_order_relaxed);
      busy_ = threads_.size();
      ++round_;
    }
    wake_.notify_all();
    Drain(until);
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_.wait(lock, [this] { return busy_ == 0; });
    }
    for (std::exception_ptr& error : errors_) {
      if (!error) continue;
      std::exception_ptr first = error;
      for (std::exception_ptr& e : errors_) e = nullptr;
      std::rethrow_exception(first);
    }
  }

 private:
  /// Claims shards until none are left, recording each shard's failure.
  void Drain(SimTime until) {
    for (;;) {
      const size_t s = next_.fetch_add(1, std::memory_order_relaxed);
      if (s >= shards_.size()) return;
      try {
        shards_[s]->RunUntil(until);
      } catch (...) {
        errors_[s] = std::current_exception();
      }
    }
  }

  /// A helper thread's loop: one Drain per round until Stop.
  void Serve() {
    uint64_t seen = 0;
    for (;;) {
      SimTime until = 0.0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [&] { return stop_ || round_ != seen; });
        if (stop_) return;
        seen = round_;
        until = until_;
      }
      Drain(until);
      std::lock_guard<std::mutex> lock(mu_);
      if (--busy_ == 0) done_.notify_one();
    }
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  const std::vector<std::unique_ptr<Rtdbs>>& shards_;
  /// Per-shard failure of the current round, sized once.
  std::vector<std::exception_ptr> errors_;
  /// Next unclaimed shard index of the current round.
  std::atomic<size_t> next_{0};

  std::mutex mu_;
  std::condition_variable wake_;  // a new round, or stop
  std::condition_variable done_;  // busy_ reached 0
  SimTime until_ = 0.0;           // guarded by mu_
  uint64_t round_ = 0;            // guarded by mu_
  size_t busy_ = 0;               // helpers still in this round; mu_
  bool stop_ = false;             // guarded by mu_

  std::vector<std::thread> threads_;
};

ShardedRtdbs::ShardedRtdbs() = default;
ShardedRtdbs::~ShardedRtdbs() = default;

StatusOr<std::unique_ptr<ShardedRtdbs>> ShardedRtdbs::Create(
    const SystemConfig& base, const ShardConfig& shards) {
  RTQ_RETURN_IF_ERROR(shards.Validate());
  auto placement =
      workload::ShardPlacement::Make(shards.placement, shards.num_shards);
  if (!placement.ok()) return placement.status();
  auto cap = core::ParseAdmissionSpec(shards.admission);
  if (!cap.ok()) return cap.status();

  std::unique_ptr<ShardedRtdbs> sys(new ShardedRtdbs());
  sys->placement_ = std::make_unique<workload::ShardPlacement>(
      std::move(placement).value());
  if (cap.value() > 0) {
    sys->coordinator_ = std::make_unique<core::ShardCoordinator>(
        shards.num_shards, cap.value());
  }
  sys->shards_.reserve(static_cast<size_t>(shards.num_shards));
  for (int32_t s = 0; s < shards.num_shards; ++s) {
    SystemConfig cfg = base;
    cfg.shard.index = s;
    cfg.shard.placement = sys->placement_.get();
    cfg.shard.coordinator = sys->coordinator_.get();
    auto shard = Rtdbs::Create(cfg);
    if (!shard.ok()) return shard.status();
    sys->shards_.push_back(std::move(shard).value());
  }
  sys->heads_.assign(sys->shards_.size(), kNever);
  return sys;
}

void ShardedRtdbs::Start() {
  if (started_) return;
  started_ = true;
  for (auto& shard : shards_) shard->Start();
}

void ShardedRtdbs::RunUntil(SimTime until) {
  Start();
  if (coordinator_ == nullptr) {
    if (workers_ == nullptr) {
      const size_t cores =
          std::max<size_t>(1, std::thread::hardware_concurrency());
      // The caller is one of the workers.
      workers_ = std::make_unique<ShardWorkers>(
          shards_, std::min(shards_.size(), cores) - 1);
    }
    workers_->RunUntil(until);
    return;
  }
  StepMerged(std::numeric_limits<uint64_t>::max(), until);
  // Every pending event now lies beyond the horizon; align each shard's
  // clock to it, exactly as Rtdbs::RunUntil does for a lone engine.
  for (auto& shard : shards_) shard->RunUntil(until);
}

uint64_t ShardedRtdbs::StepEvents(uint64_t n) {
  return StepMerged(n, kNever);
}

uint64_t ShardedRtdbs::StepMerged(uint64_t max_events, SimTime horizon) {
  Start();
  // Read every head once, then refresh only the stepped shard's: an event
  // schedules and cancels on its own shard alone (a coordinator slot
  // acquire or release is counter arithmetic, and freed slots are claimed
  // lazily), so the other heads cannot move.
  for (size_t s = 0; s < shards_.size(); ++s) heads_[s] = HeadTime(*shards_[s]);
  uint64_t stepped = 0;
  while (stepped < max_events) {
    size_t best = 0;
    for (size_t s = 1; s < heads_.size(); ++s) {
      if (heads_[s] < heads_[best]) best = s;
    }
    if (heads_[best] == kNever || heads_[best] > horizon) break;
    shards_[best]->StepEvent();
    heads_[best] = HeadTime(*shards_[best]);
    ++stepped;
  }
  return stepped;
}

SimTime ShardedRtdbs::Now() const {
  SimTime now = 0.0;
  for (const auto& shard : shards_) {
    now = std::max(now, shard->simulator().Now());
  }
  return now;
}

uint64_t ShardedRtdbs::events_dispatched() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->simulator().events_dispatched();
  }
  return total;
}

SystemSummary ShardedRtdbs::Summarize() const {
  SystemSummary agg;
  size_t classes = 0;
  double cpu_sum = 0.0;
  double disk_sum = 0.0;
  for (const auto& shard : shards_) {
    SystemSummary s = shard->Summarize();
    classes = std::max(classes, s.per_class.size());
    agg.per_class.resize(classes);
    MergeClass(s.overall, &agg.overall);
    for (size_t c = 0; c < s.per_class.size(); ++c) {
      MergeClass(s.per_class[c], &agg.per_class[c]);
    }
    // Summed, not averaged: the cluster's multiprogramming level is the
    // total number of queries in flight across all shards.
    agg.avg_mpl += s.avg_mpl;
    cpu_sum += s.cpu_utilization;
    disk_sum += s.avg_disk_utilization;
    agg.max_disk_utilization =
        std::max(agg.max_disk_utilization, s.max_disk_utilization);
    agg.events_dispatched += s.events_dispatched;
    agg.simulated_time = std::max(agg.simulated_time, s.simulated_time);
  }
  const double n = static_cast<double>(num_shards());
  agg.cpu_utilization = cpu_sum / n;
  agg.avg_disk_utilization = disk_sum / n;
  return agg;
}

SystemSummary ShardedRtdbs::SummarizeShard(int32_t s) const {
  RTQ_CHECK_MSG(s >= 0 && s < num_shards(), "bad shard index");
  return shards_[static_cast<size_t>(s)]->Summarize();
}

void ShardedRtdbs::AppendStateDigest(std::vector<std::string>* out) const {
  for (int32_t s = 0; s < num_shards(); ++s) {
    out->push_back("shard " + std::to_string(s));
    shards_[static_cast<size_t>(s)]->AppendStateDigest(out);
  }
  if (coordinator_ == nullptr) return;
  std::string line = "coordinator " + std::to_string(coordinator_->in_use()) +
                     " " + std::to_string(coordinator_->high_water()) + " " +
                     std::to_string(coordinator_->refusals());
  for (int32_t s = 0; s < num_shards(); ++s) {
    line += " " + std::to_string(coordinator_->held_by(s));
  }
  out->push_back(std::move(line));
}

}  // namespace rtq::engine
