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
//      built and before the first query arrives. The policy installs its
//      initial AllocationStrategy here (and may keep the host around for
//      later decisions). Configuration errors surface as Status.
//   3. OnQueryEvent(event) is fed every query lifecycle event (arrivals
//      and completions, including deadline misses). Adaptive policies
//      revise their strategy from here.
//   4. OnTick(now) fires periodically (every
//      SystemConfig::mpl_sample_interval) for policies that adapt on
//      wall-clock schedules rather than completion counts.
//   5. Describe() returns the canonical, registry-round-trippable spec
//      string ("pmm", "minmax:5", ...); DisplayName() the short human
//      label used in tables ("PMM", "MinMax-5").

#ifndef RTQ_CORE_MEMORY_POLICY_H_
#define RTQ_CORE_MEMORY_POLICY_H_

#include <functional>
#include <string>

#include "common/status.h"
#include "common/types.h"
#include "core/pmm.h"

namespace rtq::core {

class ShardCoordinator;

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
  /// Shard identity of the hosting engine within a ShardedRtdbs cluster;
  /// a standalone engine is shard 0 of 1.
  int32_t shard_index = 0;
  int32_t num_shards = 1;
  /// Cross-shard admission coordinator; non-null only when the host is a
  /// shard of a ShardedRtdbs running admission="global:mpl=N". Purely
  /// opt-in introspection (cluster-wide in_use()/global_mpl() for
  /// shard-aware policies): the engine enforces the global cap itself at
  /// the MemoryManager layer, so policies that ignore this field keep
  /// working unmodified.
  ShardCoordinator* coordinator = nullptr;
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

  /// Non-null when the policy is driven by a PmmController (PMM and its
  /// derivatives); lets harnesses read the adaptation trace without
  /// knowing the concrete policy type.
  virtual const PmmController* pmm_controller() const { return nullptr; }
};

}  // namespace rtq::core

#endif  // RTQ_CORE_MEMORY_POLICY_H_
