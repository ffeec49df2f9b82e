// The pluggable memory-policy interface.
//
// The paper's message is that PMM is one point in a *space* of
// admission/allocation policies (Max, MinMax-N, Proportional-N, PMM,
// PMM-Fair, ...). MemoryPolicy is that space's open surface: one
// lifecycle that covers both the static strategies of Section 3.2 and
// the adaptive controllers of Section 3.1-3.3, so new policies plug in
// without touching the engine.
//
// Lifecycle, driven by the hosting engine:
//
//   1. The policy is built from a spec string by the PolicyRegistry
//      (policy_registry.h) before the system exists; constructors only
//      parse arguments.
//   2. Attach(host) is called exactly once, after the MemoryManager is
//      built: before the first query arrives, or over live queries when
//      a policy is swapped in mid-run. The policy installs its initial
//      AllocationStrategy here with one SetStrategy call, since a second
//      would move live queries' memory twice (and may keep the host
//      around for later decisions). Configuration errors surface as
//      Status.
//   3. OnQueryEvent(event) is fed every query lifecycle event (arrivals
//      and completions, including deadline misses). Adaptive policies
//      revise their strategy from here.
//   4. OnTick(now) fires periodically (every
//      SystemConfig::mpl_sample_interval) for policies that adapt on
//      wall-clock schedules rather than completion counts.
//   5. Describe() returns the canonical, registry-round-trippable spec
//      string ("pmm", "minmax:5", ...); DisplayName() the short human
//      label used in tables ("PMM", "MinMax-5"). Both work before Attach.
//
// Every built-in policy is one of three shapes: a StaticStrategyPolicy
// (below: one strategy for the whole run), a PmmController (pmm.h: the
// adaptive controller, subclassed by its variants), or "select", which
// hosts one of the others at a time.

#ifndef RTQ_CORE_MEMORY_POLICY_H_
#define RTQ_CORE_MEMORY_POLICY_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "common/status.h"
#include "common/types.h"
#include "core/memory_manager.h"

namespace rtq::core {

class PmmController;

/// Table 1 parameters plus safety clamps.
struct PmmParams {
  /// Re-evaluation frequency, in query completions.
  int64_t sample_size = 30;
  /// Desirable utilization band for the bottleneck resource.
  double util_low = 0.70;
  double util_high = 0.85;
  /// Confidence of the adaptation tests (admission wait, slack).
  double adapt_conf_level = 0.95;
  /// Confidence of the workload-change tests.
  double change_conf_level = 0.99;
  /// Clamp for the target MPL chosen by projection / heuristic.
  int64_t max_mpl = 500;
  /// Record the batch's realized (time-averaged) MPL instead of the
  /// target setting as the x-coordinate of the projection fit. Off by
  /// default (the paper projects over its MPL settings); the A2 ablation
  /// flips it.
  bool fit_realized_mpl = false;
  /// Disable the miss-ratio projection (RU heuristic only) — ablation.
  bool disable_projection = false;
  /// Disable the RU heuristic (projection only; falls back to keeping the
  /// current MPL when projection fails) — ablation.
  bool disable_ru_heuristic = false;

  Status Validate() const;
};

/// What a policy learns about each finished (or missed) query.
struct CompletionInfo {
  QueryId id = kInvalidQueryId;
  int32_t query_class = -1;
  bool missed = false;
  SimTime arrival = 0.0;
  SimTime finish = 0.0;
  SimTime deadline = kNoDeadline;
  /// Arrival to first non-zero allocation (whole lifetime if never
  /// admitted).
  SimTime admission_wait = 0.0;
  /// First admission to completion/abort.
  SimTime execution_time = 0.0;
  /// Deadline - arrival.
  SimTime time_constraint = 0.0;
  // Workload characteristics (Section 3.3).
  PageCount max_memory = 0;
  int64_t operand_io_requests = 0;
};

/// Per-batch system readings PMM needs from the engine: utilizations and
/// the realized MPL over the window since the last call.
class SystemProbe {
 public:
  virtual ~SystemProbe() = default;
  struct Readings {
    SimTime now = 0.0;
    double realized_mpl = 0.0;
    double cpu_utilization = 0.0;
    /// Mean utilization across the disk array. PMM's decisions use this
    /// as the disk-side load signal: over a 30-completion window the max
    /// across disks is a heavily biased order statistic (whichever disk
    /// hosts the momentarily popular relation saturates), while the
    /// array-wide mean tracks the long-run "most heavily loaded
    /// resource" the paper's heuristic intends.
    double avg_disk_utilization = 0.0;
    double max_disk_utilization = 0.0;
  };
  /// Returns readings for the window since the previous TakeReadings()
  /// call and starts a new window.
  virtual Readings TakeReadings() = 0;
};

/// Everything a policy may consult from the hosting engine. Handed to
/// Attach(); pointers outlive the policy.
struct PolicyHost {
  /// The reallocation engine the policy steers via SetStrategy().
  MemoryManager* mm = nullptr;
  /// Per-batch utilization / realized-MPL readings (never null).
  SystemProbe* probe = nullptr;
  /// The simulation clock.
  std::function<SimTime()> now;
  /// Table 1 knobs for adaptive policies.
  PmmParams pmm;
  /// Number of workload classes (for per-class policies).
  int32_t num_classes = 0;
  /// Cadence of OnTick (the engine's tick interval, simulated
  /// seconds); <= 0 means the engine never ticks. Time-driven policies
  /// should reject hosts that cannot feed them from Attach().
  SimTime tick_interval = 0.0;
};

/// One query lifecycle event. `info` always carries the query's identity
/// (id, class, arrival, deadline, workload characteristics); the timing
/// and miss fields are only meaningful for kCompletion.
struct QueryEvent {
  enum class Kind {
    kArrival,     ///< query registered with the memory manager
    kCompletion,  ///< query finished or aborted at its deadline
  };
  Kind kind = Kind::kCompletion;
  CompletionInfo info;
};

class MemoryPolicy {
 public:
  virtual ~MemoryPolicy() = default;

  /// Called once; must install the policy's initial strategy on host.mm.
  virtual Status Attach(const PolicyHost& host) = 0;

  /// Query lifecycle notifications (see QueryEvent). Default: ignore.
  virtual void OnQueryEvent(const QueryEvent& event) { (void)event; }

  /// Periodic hook at the engine's tick cadence. Default: ignore.
  virtual void OnTick(SimTime now) { (void)now; }

  /// Canonical spec string; PolicyRegistry::Create(Describe()) rebuilds
  /// an equivalent policy.
  virtual std::string Describe() const = 0;

  /// Short human label for tables; defaults to the spec string.
  virtual std::string DisplayName() const { return Describe(); }

  /// Non-null when the policy is a PmmController (PMM and its
  /// variants, or "select" running one); lets harnesses read the
  /// adaptation trace without knowing the concrete policy type.
  virtual const PmmController* pmm_controller() const { return nullptr; }
};

/// What a StaticStrategyPolicy's factory returns.
using StrategyOr = StatusOr<std::unique_ptr<AllocationStrategy>>;

/// A policy that installs one AllocationStrategy at Attach and never
/// revises it: Max, MinMax-N, Proportional-N, and the plugins whose
/// whole behaviour is their strategy (none, oracle-ed, edf-shed). The
/// factory may read the host (clock-driven strategies copy host.now);
/// an error it returns fails Attach before anything is installed.
class StaticStrategyPolicy : public MemoryPolicy {
 public:
  using StrategyFactory = std::function<StrategyOr(const PolicyHost&)>;

  StaticStrategyPolicy(std::string spec, std::string display,
                       StrategyFactory make)
      : spec_(std::move(spec)),
        display_(std::move(display)),
        make_(std::move(make)) {}

  Status Attach(const PolicyHost& host) override {
    auto strategy = make_(host);
    if (!strategy.ok()) return strategy.status();
    host.mm->SetStrategy(std::move(strategy).value());
    return Status::Ok();
  }

  std::string Describe() const override { return spec_; }
  std::string DisplayName() const override { return display_; }

 private:
  std::string spec_;
  std::string display_;
  StrategyFactory make_;
};

}  // namespace rtq::core

#endif  // RTQ_CORE_MEMORY_POLICY_H_
