// The assembled firm real-time database system (paper Figure 2).
//
// Wires together the arrival source (the paper's Source), the operators
// ("Query Manager"), the buffer pool + memory-management policy ("Buffer
// Manager"), and the CPU and disk managers, and owns the lifecycle of
// every query:
//
//   arrival -> [waiting] -> admission (first allocation) -> execution
//           -> completion | deadline abort (firm: work is discarded)
//
// Memory allocations can be revised at any moment by the policy; the
// engine pushes the deltas into the buffer pool and the operators and
// counts the per-query fluctuations (Figure 7's metric).

#ifndef RTQ_ENGINE_RTDBS_H_
#define RTQ_ENGINE_RTDBS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/arena.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/memory_manager.h"
#include "core/memory_policy.h"
#include "core/pmm.h"
#include "engine/metrics.h"
#include "engine/system_config.h"
#include "exec/exec_context.h"
#include "exec/operator.h"
#include "model/cpu.h"
#include "model/disk.h"
#include "sim/simulator.h"
#include "storage/database.h"
#include "storage/temp_space.h"
#include "workload/arrival_source.h"

namespace rtq::engine {

/// Outcome of a live policy swap (serve-mode `policy <spec>` command).
/// When `status` is not OK the requested spec was rejected; `reattached`
/// then says whether the rollback had to rebuild the incumbent policy
/// from its Describe() spec — which resets its adaptive state, so a
/// deterministic replay journal must record the re-application even
/// though the user-visible swap failed.
struct PolicySwapOutcome {
  Status status = Status::Ok();
  /// Describe() of the policy active after the call (new on success,
  /// incumbent on failure).
  std::string active_spec;
  /// True whenever a fresh policy instance was attached (successful swap
  /// or rollback) — i.e. whenever adaptive policy state was reset.
  bool reattached = false;
};

class Rtdbs {
 public:
  /// Builds the full system; fails on invalid configuration.
  static StatusOr<std::unique_ptr<Rtdbs>> Create(const SystemConfig& config);

  ~Rtdbs();
  Rtdbs(const Rtdbs&) = delete;
  Rtdbs& operator=(const Rtdbs&) = delete;

  /// Advances the simulation to absolute time `until` (seconds). May be
  /// called repeatedly with increasing horizons.
  void RunUntil(SimTime until);

  /// Starts the arrival stream and the policy ticks without advancing
  /// the clock. Idempotent; RunUntil and StepEvent call it implicitly.
  void Start();

  /// Dispatches exactly one pending event (the serve loop's unit of
  /// progress — snapshot positions count these). Returns false when the
  /// calendar is empty. Unlike RunUntil, the clock only ever advances to
  /// event times, never to an arbitrary horizon.
  bool StepEvent();

  /// Hot-swaps the memory policy to `spec` (resolved through the
  /// PolicyRegistry) between events. Never CHECK-fails on bad input: a
  /// spec the registry rejects leaves the system bit-identical to before
  /// the call (outcome.reattached == false).
  PolicySwapOutcome SwapPolicy(const std::string& spec);

  /// Swaps the arrival stream to a freshly created scenario source
  /// (resolved through the ScenarioRegistry) between events. The old
  /// source is silenced, not cancelled: its pending events fire as
  /// no-ops, so event counts match a replay exactly. The new source
  /// forks its rng from the engine's live stream, continues the old
  /// source's query-id space, and starts its shapes at the swap instant.
  /// Returns the canonical scenario spec; errors leave state untouched.
  StatusOr<std::string> SwapScenario(const std::string& spec);

  /// Appends one deterministic line per state dimension (clock, event
  /// calendar, per-query runtime, CPU/disk/cache, memory manager, policy,
  /// arrival source, metrics, live rng). Two Rtdbs instances with equal
  /// digests have bit-identical future trajectories — the invariant the
  /// snapshot/restore machinery verifies line-by-line.
  void AppendStateDigest(std::vector<std::string>* out) const;

  /// Summary of everything recorded so far.
  SystemSummary Summarize() const;

  // --- component access (experiments, tests) ----------------------------
  sim::Simulator& simulator() { return sim_; }
  const sim::Simulator& simulator() const { return sim_; }
  /// The arrival source: a TraceSource when the config replays a trace,
  /// else a ScenarioSource (over PoissonScenario when no scenario is set).
  workload::ArrivalSource& arrivals() { return *source_; }
  core::MemoryManager& memory_manager() { return *mm_; }
  const storage::Database& database() const { return *db_; }
  const MetricsCollector& metrics() const { return metrics_; }
  /// Mutable access for hosts that pre-size the record buffer (e.g. the
  /// zero-allocation gate calls Reserve before measuring).
  MetricsCollector& mutable_metrics() { return metrics_; }
  buffer::BufferPool& buffer_pool() { return *pool_; }
  /// The active memory policy (resolved from the config's spec string).
  const core::MemoryPolicy& policy() const { return *policy_; }
  /// The policy's adaptation controller; null unless the policy is a
  /// PmmController (PMM, PMM-Fair, or a plugin built on it).
  const core::PmmController* pmm() const {
    return policy_ ? policy_->pmm_controller() : nullptr;
  }
  const SystemConfig& config() const { return config_; }

  /// Live queries currently registered (waiting + admitted).
  int64_t live_queries() const {
    return static_cast<int64_t>(runtimes_.size());
  }
  /// Finished runtimes parked awaiting recycling (bounded: drained at the
  /// next arrival/completion once their dispatch event has unwound).
  int64_t retired_runtimes() const {
    return static_cast<int64_t>(retired_.size());
  }
  /// Lifetime count of runtime recycles (arena reset + reuse).
  int64_t runtimes_recycled() const { return runtimes_recycled_; }
  /// Arrivals this engine dropped because the shard placement assigned
  /// them to another shard (always 0 on a standalone engine).
  int64_t routed_elsewhere() const { return routed_elsewhere_; }

 private:
  class QueryContext;
  class ProbeImpl;

  /// Per-query runtime state. Everything with query lifetime — the
  /// operator tree, the QueryContext, operator scratch — lives in the
  /// runtime's own arena and is reclaimed as a unit (Arena::Reset) when
  /// the runtime is recycled, so steady-state query turnover performs no
  /// heap allocation.
  struct QueryRuntime {
    Arena arena;
    exec::QueryDescriptor desc;
    exec::Operator* op = nullptr;  // arena-owned
    QueryContext* ctx = nullptr;   // arena-owned
    sim::EventId deadline_event = sim::kInvalidEventId;
    PageCount allocation = 0;
    bool admitted_once = false;
    SimTime first_admit = 0.0;
    int64_t fluctuations = 0;
    bool finished = false;
    /// events_dispatched() at retire time; recyclable once a later event
    /// is dispatching (the retiring event's stack has fully unwound).
    uint64_t parked_at = 0;
  };

  explicit Rtdbs(const SystemConfig& config);
  Status Init();

  /// The host handed to every MemoryPolicy::Attach — Init and SwapPolicy
  /// must build it identically or swapped-in policies would see a
  /// different engine than boot-time ones.
  core::PolicyHost MakePolicyHost();
  workload::ArrivalSource::Sink MakeSink();

  /// Pops a recycled runtime (or heap-allocates the pool's first copy).
  QueryRuntime* AcquireRuntime();
  /// Live queries' runtimes, sorted by id.
  using LiveRuntimes = std::vector<std::pair<QueryId, QueryRuntime*>>;
  /// Position of live query `id` in runtimes_, or runtimes_.end().
  LiveRuntimes::iterator FindRuntime(QueryId id);
  /// Drains retired_ entries whose dispatch event has unwound: runs the
  /// arena finalizers (operator destructors), resets the arena, and
  /// returns the runtime to the free list.
  void PurgeRetired();

  void OnArrival(const workload::QueryBlueprint& bp, QueryId id);
  void ApplyAllocation(QueryId id, PageCount pages);
  void OnOperatorFinished(QueryId id);
  void OnDeadline(QueryId id);
  /// Shared tail of completion/abort: cancel resources, record, notify.
  void FinishQuery(QueryId id, bool missed);
  void UpdateMplSignal();
  /// Schedules the next policy OnTick, every `mpl_sample_interval`.
  void ScheduleTick();

  // Page-cache helpers (LRU over unreserved pool pages).
  bool CacheCovers(DiskId disk, PageCount start, PageCount pages);
  void CacheInsert(DiskId disk, PageCount start, PageCount pages);
  void CacheInvalidate(DiskId disk, PageCount start, PageCount pages);

  SystemConfig config_;
  sim::Simulator sim_;
  std::unique_ptr<model::Cpu> cpu_;
  std::vector<std::unique_ptr<model::Disk>> disks_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<storage::TempSpace> temp_;
  std::unique_ptr<buffer::BufferPool> pool_;
  std::unique_ptr<core::MemoryManager> mm_;
  std::unique_ptr<core::MemoryPolicy> policy_;
  std::unique_ptr<ProbeImpl> probe_;
  std::unique_ptr<workload::ArrivalSource> source_;
  MetricsCollector metrics_;

  /// Owns every QueryRuntime ever created; grows to the live+retired
  /// high-water mark, then every query reuses a recycled runtime.
  std::vector<std::unique_ptr<QueryRuntime>> runtime_storage_;
  std::vector<QueryRuntime*> free_runtimes_;
  int64_t runtimes_recycled_ = 0;
  int64_t routed_elsewhere_ = 0;
  /// Policy ticks fired so far (a state-digest field).
  int64_t ticks_ = 0;

  /// Arrivals number their queries in order, so an arrival appends.
  /// Grows to the live high-water mark.
  LiveRuntimes runtimes_;
  /// Finished runtimes are parked here (not destroyed mid-callback) and
  /// recycled by PurgeRetired() once their event has unwound.
  std::vector<QueryRuntime*> retired_;
  /// Scratch for CacheCovers' one-hash-per-page hit path.
  std::vector<buffer::LruCache::Handle> cache_scratch_;
  /// Swapped-out sources are parked, not destroyed: their
  /// already-scheduled arrival events still hold `this` captures and must
  /// fire (as no-ops) to keep event counts replay-identical. Swapped-out
  /// policies schedule no events and are destroyed at once.
  std::vector<std::unique_ptr<workload::ArrivalSource>> retired_sources_;
  /// Rng stream for state created after boot (swapped-in sources). The
  /// third fork off the master seed, taken in Init so that taking it
  /// does not perturb the placement or source streams.
  Rng live_rng_{0};
  bool started_ = false;
};

/// Renders config.scenario to a `.rtqt` trace: every arrival up to
/// `horizon` (inclusive) of a ScenarioSource run on a private calendar,
/// forked the way Rtdbs::Init forks (master -> placement -> source). So
/// replaying the result via config.trace reproduces the live scenario
/// run bit-identically — the determinism gate the replay tests pin.
StatusOr<workload::Trace> RenderScenarioTrace(const SystemConfig& config,
                                              SimTime horizon);

}  // namespace rtq::engine

#endif  // RTQ_ENGINE_RTDBS_H_
