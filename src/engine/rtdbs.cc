#include "engine/rtdbs.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "common/spec.h"
#include "core/policy_registry.h"
#include "core/shard_coordinator.h"
#include "core/strategy.h"
#include "workload/placement.h"
#include "workload/scenario.h"
#include "workload/trace.h"
#include "workload/trace_source.h"

namespace rtq::engine {

// ---------------------------------------------------------------------------
// Per-query execution context: binds the query's identity and ED priority
// into every CPU job and disk request, charges the start-I/O CPU cost, and
// consults the buffer pool's LRU page cache before touching a disk.
//
// The operator waits on one continuation at a time (RunCpu or Read); the
// context parks it and the CPU/disk closures resume it through `this`, so
// they capture only scalars and relocate with a plain copy. They never
// outlive the query: a deadline abort cancels its CPU jobs and queued disk
// requests and drops the callback of one in service. Spool writes do
// outlive it, so their closures capture the engine and the query id,
// never the context, whose arena is recycled once the query has finished.
// ---------------------------------------------------------------------------
class Rtdbs::QueryContext : public exec::ExecContext {
 public:
  QueryContext(Rtdbs* sys, QueryId id, SimTime deadline)
      : sys_(sys), id_(id), deadline_(deadline) {}

  SimTime Now() const override { return sys_->sim_.Now(); }

  void RunCpu(Instructions instructions, exec::DoneCallback done) override {
    Park(std::move(done));
    SubmitCpu(instructions, [this] { Resume(); });
  }

  void Read(DiskId disk, PageCount start, PageCount pages,
            exec::DoneCallback done) override {
    RTQ_DCHECK(disk >= 0 &&
               disk < static_cast<DiskId>(sys_->disks_.size()));
    Park(std::move(done));
    const Instructions start_io = sys_->config_.exec.costs.start_io;
    if (sys_->CacheCovers(disk, start, pages)) {
      // Buffer-pool hit: no disk access; the lookup cost is folded into
      // the start-I/O charge.
      SubmitCpu(start_io, [this] { Resume(); });
      return;
    }
    SubmitCpu(start_io, [this, disk, start, pages] {
      model::DiskRequest req;
      req.query = id_;
      req.deadline = deadline_;
      req.start_page = start;
      req.pages = pages;
      req.is_write = false;
      req.on_complete = [this, disk, start, pages] {
        sys_->CacheInsert(disk, start, pages);
        Resume();
      };
      sys_->disks_[static_cast<size_t>(disk)]->Submit(std::move(req));
    });
  }

  void Write(DiskId disk, PageCount start, PageCount pages,
             exec::DoneCallback done, bool background) override {
    RTQ_DCHECK(disk >= 0 &&
               disk < static_cast<DiskId>(sys_->disks_.size()));
    RTQ_CHECK_MSG(!done && background,
                  "writes are fire-and-forget background spool writes");
    Rtdbs* sys = sys_;
    QueryId id = id_;
    sys_->CacheInvalidate(disk, start, pages);
    const Instructions start_io = sys_->config_.exec.costs.start_io;
    SubmitCpu(start_io, [sys, id, disk, start, pages] {
      model::DiskRequest req;
      req.query = id;
      // Background spool writes sort after every deadline-bearing request
      // in the ED disk queues.
      req.deadline = kNoDeadline;
      req.start_page = start;
      req.pages = pages;
      req.is_write = true;
      sys->disks_[static_cast<size_t>(disk)]->Submit(std::move(req));
    });
  }

  StatusOr<storage::TempFile> AllocateTemp(PageCount pages,
                                           DiskId preferred) override {
    return sys_->temp_->Allocate(pages, preferred);
  }

  void FreeTemp(const storage::TempFile& file) override {
    sys_->temp_->Free(file);
  }

 private:
  template <typename F>
  void SubmitCpu(Instructions instructions, F&& on_complete) {
    sys_->cpu_->Submit(model::CpuJob{id_, deadline_, instructions,
                                     std::forward<F>(on_complete)});
  }

  void Park(exec::DoneCallback done) {
    RTQ_DCHECK(!waiting_);
    waiting_ = std::move(done);
  }

  /// Hands the parked continuation to the operator, which may park the
  /// next one before this returns.
  void Resume() {
    exec::DoneCallback done = std::move(waiting_);
    done();
  }

  Rtdbs* sys_;
  QueryId id_;
  SimTime deadline_;
  exec::DoneCallback waiting_;
};

// ---------------------------------------------------------------------------
// SystemProbe: per-batch utilization and realized-MPL readings for PMM,
// computed as integral deltas so the lifetime metrics stay intact.
// ---------------------------------------------------------------------------
class Rtdbs::ProbeImpl : public core::SystemProbe {
 public:
  // Init builds the disk farm once, before the probe, so zero baselines
  // make the first window span [0, first reading) with the true boot
  // utilization.
  explicit ProbeImpl(Rtdbs* sys)
      : sys_(sys), last_disk_busy_(sys->disks_.size(), 0.0) {}

  Readings TakeReadings() override {
    SimTime now = sys_->sim_.Now();
    Readings r;
    r.now = now;
    double dt = now - last_time_;
    if (dt <= 0.0) {
      // Degenerate window; report instantaneous state.
      r.realized_mpl =
          static_cast<double>(sys_->mm_->admitted_count());
      return r;
    }
    double cpu_busy = sys_->cpu_->busy_seconds(now);
    r.cpu_utilization = (cpu_busy - last_cpu_busy_) / dt;
    last_cpu_busy_ = cpu_busy;

    double max_disk = 0.0;
    double sum_disk = 0.0;
    for (size_t d = 0; d < sys_->disks_.size(); ++d) {
      double disk_busy = sys_->disks_[d]->busy_seconds(now);
      double util = (disk_busy - last_disk_busy_[d]) / dt;
      last_disk_busy_[d] = disk_busy;
      max_disk = std::max(max_disk, util);
      sum_disk += util;
    }
    r.max_disk_utilization = max_disk;
    r.avg_disk_utilization =
        sys_->disks_.empty()
            ? 0.0
            : sum_disk / static_cast<double>(sys_->disks_.size());

    double mpl_integral = sys_->metrics_.MplIntegral(now);
    r.realized_mpl = (mpl_integral - last_mpl_integral_) / dt;
    last_mpl_integral_ = mpl_integral;

    last_time_ = now;
    return r;
  }

 private:
  Rtdbs* sys_;
  SimTime last_time_ = 0.0;
  double last_cpu_busy_ = 0.0;
  std::vector<double> last_disk_busy_;
  double last_mpl_integral_ = 0.0;
};

// ---------------------------------------------------------------------------
// Rtdbs
// ---------------------------------------------------------------------------

Rtdbs::Rtdbs(const SystemConfig& config)
    : config_(config),
      metrics_(static_cast<int32_t>(config.workload.classes.size()),
               config.miss_ci_batch) {}

Rtdbs::~Rtdbs() = default;

StatusOr<std::unique_ptr<Rtdbs>> Rtdbs::Create(const SystemConfig& config) {
  RTQ_RETURN_IF_ERROR(config.Validate());
  std::unique_ptr<Rtdbs> sys(new Rtdbs(config));
  RTQ_RETURN_IF_ERROR(sys->Init());
  return sys;
}

Status Rtdbs::Init() {
  Rng master(config_.seed);
  Rng placement_rng = master.Fork();
  Rng source_rng = master.Fork();
  // The live stream is a third fork: taking it consumes only the master
  // (discarded below), so placement and source trajectories are
  // bit-identical to builds that never fork it.
  live_rng_ = master.Fork();

  cpu_ = std::make_unique<model::Cpu>(&sim_, config_.mips);
  disks_.reserve(config_.num_disks);
  for (DiskId d = 0; d < config_.num_disks; ++d) {
    disks_.push_back(
        std::make_unique<model::Disk>(&sim_, config_.disk, d));
  }

  auto db = storage::Database::Create(config_.EffectiveDatabase(),
                                      config_.disk, &placement_rng);
  RTQ_RETURN_IF_ERROR(db.status().ok() ? Status::Ok() : db.status());
  db_ = std::make_unique<storage::Database>(std::move(db).value());
  {
    Status s = config_.workload.Validate(*db_);
    if (!s.ok()) return s;
  }
  temp_ = std::make_unique<storage::TempSpace>(*db_, config_.disk);
  pool_ = std::make_unique<buffer::BufferPool>(config_.memory_pages);

  // Memory-management policy: resolve the spec string through the
  // registry. The manager starts on a placeholder strategy; Attach
  // installs the policy's real one before any query exists.
  mm_ = std::make_unique<core::MemoryManager>(
      config_.memory_pages, std::make_unique<core::MaxStrategy>(),
      [this](QueryId id, PageCount pages) { ApplyAllocation(id, pages); });
  if (config_.shard.coordinator != nullptr) {
    // Global admission: this shard's would-be admissions claim slots from
    // the cluster-wide coordinator before any query exists.
    mm_->SetAdmissionGate(
        config_.shard.coordinator->GateFor(config_.shard.index));
  }

  probe_ = std::make_unique<ProbeImpl>(this);
  auto policy =
      core::PolicyRegistry::Global().Create(config_.policy.ResolvedSpec());
  if (!policy.ok()) return policy.status();
  policy_ = std::move(policy).value();

  RTQ_RETURN_IF_ERROR(policy_->Attach(MakePolicyHost()));

  // Arrival source: trace replay, else live generation from the config's
  // scenario, or from the paper's per-class Poisson streams when it sets
  // none. Both feed the same sink; the source_rng fork happens above
  // regardless, so swapping sources never perturbs the placement stream.
  workload::ArrivalSource::Sink sink = MakeSink();
  if (config_.trace != nullptr) {
    auto src = workload::TraceSource::Create(
        &sim_, db_.get(), config_.workload, config_.exec, config_.disk,
        config_.mips, config_.trace, std::move(sink));
    if (!src.ok()) return src.status();
    source_ = std::move(src).value();
  } else {
    const workload::ScenarioSpec scenario =
        config_.scenario.enabled()
            ? config_.scenario
            : workload::PoissonScenario(config_.workload);
    source_ = std::make_unique<workload::ScenarioSource>(
        &sim_, db_.get(), config_.workload, scenario, std::move(source_rng),
        std::move(sink));
  }

  metrics_.UpdateMpl(0.0, 0);
  return Status::Ok();
}

StatusOr<workload::Trace> RenderScenarioTrace(const SystemConfig& config,
                                              SimTime horizon) {
  RTQ_RETURN_IF_ERROR(config.Validate());
  if (!config.scenario.enabled())
    return Status::InvalidArgument(
        "RenderScenarioTrace: config has no scenario");
  // Mirror Init's fork order exactly: master -> placement -> source.
  Rng master(config.seed);
  Rng placement_rng = master.Fork();
  Rng source_rng = master.Fork();
  auto db = storage::Database::Create(config.EffectiveDatabase(),
                                      config.disk, &placement_rng);
  if (!db.ok()) return db.status();
  Status st = config.workload.Validate(db.value());
  if (!st.ok()) return st;
  workload::Trace trace;
  trace.num_classes = static_cast<int32_t>(config.workload.classes.size());
  trace.scenario = config.scenario.name;
  trace.seed = config.seed;
  // Run the live source on a private calendar up to the horizon: the
  // trace holds exactly the arrivals a live run sees, in its order.
  sim::Simulator sim;
  workload::ScenarioSource source(
      &sim, &db.value(), config.workload, config.scenario,
      std::move(source_rng),
      [&](const workload::QueryBlueprint& bp, QueryId) {
        workload::QueryBlueprint record = bp;
        record.standalone =
            workload::EstimateStandalone(bp, db.value(), config.exec,
                                         config.disk, config.mips)
                .total();
        trace.records.push_back(record);
      });
  source.Start();
  sim.RunUntil(horizon);
  return trace;
}

core::PolicyHost Rtdbs::MakePolicyHost() {
  core::PolicyHost host;
  host.mm = mm_.get();
  host.probe = probe_.get();
  host.now = [this] { return sim_.Now(); };
  host.pmm = config_.pmm;
  host.num_classes = static_cast<int32_t>(config_.workload.classes.size());
  host.tick_interval = config_.mpl_sample_interval;
  return host;
}

workload::ArrivalSource::Sink Rtdbs::MakeSink() {
  return [this](const workload::QueryBlueprint& bp, QueryId id) {
    OnArrival(bp, id);
  };
}

void Rtdbs::RunUntil(SimTime until) {
  Start();
  sim_.RunUntil(until);
}

void Rtdbs::Start() {
  if (started_) return;
  started_ = true;
  source_->Start();
  ScheduleTick();
}

bool Rtdbs::StepEvent() {
  Start();
  return sim_.Step();
}

StatusOr<std::string> Rtdbs::SwapPolicy(const std::string& spec) {
  auto created = core::PolicyRegistry::Global().Create(spec);
  if (!created.ok()) return created.status();
  // A failed Attach has not touched mm_, so the incumbent stays.
  RTQ_RETURN_IF_ERROR(created.value()->Attach(MakePolicyHost()));
  policy_ = std::move(created).value();
  return policy_->Describe();
}

StatusOr<std::string> Rtdbs::SwapScenario(const std::string& spec) {
  auto created = workload::ScenarioRegistry::Global().Create(spec);
  if (!created.ok()) return created.status();
  workload::ScenarioSpec scenario = std::move(created).value();
  RTQ_RETURN_IF_ERROR(scenario.Validate(config_.workload));
  // All validation passed: from here construction cannot fail. Silence
  // the old source (its pending events fire as no-ops) and park it so
  // those events' `this` captures stay valid.
  source_->Stop();
  auto first_id = static_cast<QueryId>(source_->generated());
  retired_sources_.push_back(std::move(source_));
  auto incoming = std::make_unique<workload::ScenarioSource>(
      &sim_, db_.get(), config_.workload, scenario, live_rng_.Fork(),
      MakeSink());
  incoming->set_first_query_id(first_id);
  if (started_) incoming->Start();
  source_ = std::move(incoming);
  return scenario.name;
}

void Rtdbs::ScheduleTick() {
  if (config_.mpl_sample_interval <= 0.0) return;
  sim_.ScheduleAfter(config_.mpl_sample_interval, [this] {
    ++ticks_;
    policy_->OnTick(sim_.Now());
    ScheduleTick();
  });
}

Rtdbs::QueryRuntime* Rtdbs::AcquireRuntime() {
  if (!free_runtimes_.empty()) {
    QueryRuntime* rt = free_runtimes_.back();
    free_runtimes_.pop_back();
    ++runtimes_recycled_;
    return rt;
  }
  runtime_storage_.push_back(std::make_unique<QueryRuntime>());
  return runtime_storage_.back().get();
}

void Rtdbs::PurgeRetired() {
  if (retired_.empty()) return;
  // events_dispatched() only advances AFTER an event's callback returns,
  // so any runtime parked at an earlier count has fully unwound its
  // retiring event's stack and nothing can still reference it.
  const uint64_t fence = sim_.events_dispatched();
  size_t i = 0;
  while (i < retired_.size()) {
    QueryRuntime* rt = retired_[i];
    if (rt->parked_at < fence) {
      rt->arena.Reset();  // runs operator/context destructors
      rt->op = nullptr;
      rt->ctx = nullptr;
      rt->deadline_event = sim::kInvalidEventId;
      rt->allocation = 0;
      rt->admitted_once = false;
      rt->first_admit = 0.0;
      rt->fluctuations = 0;
      rt->finished = false;
      rt->parked_at = 0;
      free_runtimes_.push_back(rt);
      retired_[i] = retired_.back();
      retired_.pop_back();
    } else {
      ++i;
    }
  }
}

void Rtdbs::OnArrival(const workload::QueryBlueprint& bp, QueryId id) {
  if (config_.shard.placement != nullptr &&
      config_.shard.placement->ShardOf(
          id, bp.r, static_cast<int64_t>(db_->relations().size())) !=
          config_.shard.index) {
    // Another shard of the cluster owns this arrival. Every shard
    // generates the identical stream (same seed, same draws), so dropping
    // a foreign arrival at the sink *is* the routing step — no query
    // state, metrics, or policy event is created for it.
    ++routed_elsewhere_;
    return;
  }
  PurgeRetired();
  QueryRuntime* rt = AcquireRuntime();
  workload::BuiltQueryRefs built = workload::BuildQueryInArena(
      bp, id, *db_, config_.exec, config_.disk, config_.mips, &rt->arena);
  const exec::QueryDescriptor& desc = built.desc;
  rt->desc = desc;
  rt->op = built.op;
  rt->ctx = rt->arena.New<QueryContext>(this, id, desc.deadline);
  rt->op->on_finished = [this, id] { OnOperatorFinished(id); };
  rt->deadline_event =
      sim_.ScheduleAt(desc.deadline, [this, id] { OnDeadline(id); });

  // Sources number arrivals in order, and a swapped-in source continues
  // its predecessor's id space, so appending keeps runtimes_ sorted.
  RTQ_CHECK_MSG(runtimes_.empty() || runtimes_.back().first < id,
                "query ids must arrive in increasing order");
  runtimes_.emplace_back(id, rt);

  core::MemRequest req;
  req.id = id;
  req.deadline = desc.deadline;
  req.arrival = desc.arrival;
  req.query_class = desc.query_class;
  req.min_memory = desc.min_memory;
  // A query whose maximum demand exceeds the machine is capped: it runs
  // at whatever the pool can give (its operator adapts), never at "max".
  req.max_memory = std::min(desc.max_memory, config_.memory_pages);
  req.standalone_estimate = desc.standalone_time;
  req.operand_pages = desc.operand_pages;
  // Live progress signal for feasibility policies. The counters live in
  // the operator, whose QueryRuntime outlives the mm_ registration:
  // FinishQuery parks the runtime in retired_ before RemoveQuery runs,
  // and retired runtimes are only recycled at a later event.
  req.pages_read = &rt->op->counters().pages_read;
  mm_->AddQuery(req);
  UpdateMplSignal();

  core::QueryEvent event;
  event.kind = core::QueryEvent::Kind::kArrival;
  event.info.id = id;
  event.info.query_class = desc.query_class;
  event.info.arrival = desc.arrival;
  event.info.deadline = desc.deadline;
  event.info.time_constraint = desc.deadline - desc.arrival;
  event.info.max_memory = desc.max_memory;
  event.info.operand_io_requests = desc.operand_io_requests;
  policy_->OnQueryEvent(event);
}

Rtdbs::LiveRuntimes::iterator Rtdbs::FindRuntime(QueryId id) {
  auto it = std::lower_bound(
      runtimes_.begin(), runtimes_.end(), id,
      [](const LiveRuntimes::value_type& e, QueryId v) {
        return e.first < v;
      });
  return it != runtimes_.end() && it->first == id ? it : runtimes_.end();
}

void Rtdbs::ApplyAllocation(QueryId id, PageCount pages) {
  auto it = FindRuntime(id);
  if (it == runtimes_.end()) return;  // already finished
  QueryRuntime& rt = *it->second;
  if (rt.finished) return;
  if (pages == rt.allocation) return;

  Status st = pool_->Resize(rt.allocation, pages);
  RTQ_CHECK_MSG(st.ok(), st.ToString().c_str());

  if (rt.op->started()) ++rt.fluctuations;
  rt.allocation = pages;

  if (!rt.op->started()) {
    if (pages > 0) {
      RTQ_CHECK_MSG(pages >= rt.desc.min_memory || pages >= rt.op->min_memory(),
                    "admission below operator minimum");
      rt.admitted_once = true;
      rt.first_admit = sim_.Now();
      rt.op->SetAllocation(pages);
      rt.op->Start(rt.ctx);
    }
  } else {
    rt.op->SetAllocation(pages);
  }
  UpdateMplSignal();
}

void Rtdbs::OnOperatorFinished(QueryId id) { FinishQuery(id, false); }

void Rtdbs::OnDeadline(QueryId id) {
  auto it = FindRuntime(id);
  if (it == runtimes_.end()) return;
  QueryRuntime& rt = *it->second;
  if (rt.finished) return;
  // Firm deadline: cancel all outstanding demands and discard the work.
  cpu_->CancelQuery(id);
  for (auto& disk : disks_) disk->CancelQuery(id);
  rt.op->Abort();
  FinishQuery(id, true);
}

void Rtdbs::FinishQuery(QueryId id, bool missed) {
  PurgeRetired();
  auto it = FindRuntime(id);
  RTQ_CHECK_MSG(it != runtimes_.end(), "finishing unknown query");
  QueryRuntime* rt = it->second;
  runtimes_.erase(it);
  rt->finished = true;

  if (!missed) sim_.Cancel(rt->deadline_event);
  Status released = pool_->Resize(rt->allocation, 0);
  RTQ_CHECK_MSG(released.ok(), released.ToString().c_str());

  SimTime now = sim_.Now();
  CompletionRecord rec;
  rec.info.id = id;
  rec.info.query_class = rt->desc.query_class;
  rec.info.missed = missed;
  rec.info.arrival = rt->desc.arrival;
  rec.info.finish = now;
  rec.info.deadline = rt->desc.deadline;
  rec.info.admission_wait =
      rt->admitted_once ? rt->first_admit - rt->desc.arrival
                        : now - rt->desc.arrival;
  rec.info.execution_time = rt->admitted_once ? now - rt->first_admit : 0.0;
  rec.info.time_constraint = rt->desc.deadline - rt->desc.arrival;
  rec.info.max_memory = rt->desc.max_memory;
  rec.info.operand_io_requests = rt->desc.operand_io_requests;
  rec.type = rt->desc.type;
  rec.mem_fluctuations = rt->fluctuations;
  rec.pages_read = rt->op->counters().pages_read;
  rec.pages_written = rt->op->counters().pages_written;
  metrics_.Record(rec);

  // Park the runtime: the operator may still be on the call stack. It is
  // recycled (arena reset, returned to the free list) by PurgeRetired()
  // once a later event is dispatching.
  rt->parked_at = sim_.events_dispatched();
  retired_.push_back(rt);

  mm_->RemoveQuery(id);
  UpdateMplSignal();

  core::QueryEvent event;
  event.kind = core::QueryEvent::Kind::kCompletion;
  event.info = rec.info;
  policy_->OnQueryEvent(event);
}

void Rtdbs::UpdateMplSignal() {
  metrics_.UpdateMpl(sim_.Now(),
                     static_cast<int64_t>(mm_->admitted_count()));
}

bool Rtdbs::CacheCovers(DiskId disk, PageCount start, PageCount pages) {
  buffer::LruCache& cache = pool_->page_cache();
  if (cache.capacity() == 0) return false;
  // One hash per page: collect handles, then promote them only on full
  // coverage. Counter semantics match the historical Contains-then-Lookup
  // double scan exactly (no miss recorded on partial coverage, one hit
  // per page on full coverage, promotion in ascending page order).
  cache_scratch_.clear();
  for (PageCount p = start; p < start + pages; ++p) {
    buffer::LruCache::Handle h =
        cache.Find(buffer::BufferPool::PageKey(disk, p));
    if (h == buffer::LruCache::kNullHandle) return false;
    cache_scratch_.push_back(h);
  }
  for (buffer::LruCache::Handle h : cache_scratch_) cache.Touch(h);
  return true;
}

void Rtdbs::CacheInsert(DiskId disk, PageCount start, PageCount pages) {
  buffer::LruCache& cache = pool_->page_cache();
  if (cache.capacity() == 0) return;
  for (PageCount p = start; p < start + pages; ++p) {
    cache.Insert(buffer::BufferPool::PageKey(disk, p));
  }
}

void Rtdbs::CacheInvalidate(DiskId disk, PageCount start, PageCount pages) {
  buffer::LruCache& cache = pool_->page_cache();
  for (PageCount p = start; p < start + pages; ++p) {
    cache.Erase(buffer::BufferPool::PageKey(disk, p));
  }
}

void Rtdbs::AppendStateDigest(std::vector<std::string>* out) const {
  const SimTime now = sim_.Now();
  out->push_back("clock " + FormatDouble(now));
  out->push_back("dispatched " + std::to_string(sim_.events_dispatched()));
  out->push_back("routed " + std::to_string(routed_elsewhere_));

  {
    auto pending = sim_.queue().ExportPending();
    Fnv1a64 h;
    for (const auto& [time, seq] : pending) {
      h.UpdateDouble(time);
      h.Update64(seq);
    }
    out->push_back("pending " + std::to_string(pending.size()) + " " +
                   std::to_string(h.digest()));
  }

  out->push_back("queries " + std::to_string(runtimes_.size()));
  for (const auto& [id, rt] : runtimes_) {
    out->push_back("query " + std::to_string(id) + " " +
                   std::to_string(rt->desc.query_class) + " " +
                   std::to_string(rt->allocation) + " " +
                   std::to_string(rt->admitted_once ? 1 : 0) + " " +
                   FormatDouble(rt->first_admit) + " " +
                   std::to_string(rt->fluctuations) + " " +
                   std::to_string(rt->op->started() ? 1 : 0) + " " +
                   std::to_string(rt->op->counters().pages_read) + " " +
                   std::to_string(rt->op->counters().pages_written));
  }

  out->push_back("cpu " + std::to_string(cpu_->pending_jobs()) + " " +
                 std::to_string(cpu_->completed_jobs()) + " " +
                 std::to_string(cpu_->preemptions()) + " " +
                 FormatDouble(cpu_->busy_seconds(now)));
  for (size_t d = 0; d < disks_.size(); ++d) {
    const model::Disk& disk = *disks_[d];
    out->push_back("disk " + std::to_string(d) + " " +
                   std::to_string(disk.head()) + " " +
                   std::to_string(disk.busy() ? 1 : 0) + " " +
                   std::to_string(disk.queue_length()) + " " +
                   FormatDouble(disk.busy_seconds(now)) + " " +
                   std::to_string(disk.completed_requests()) + " " +
                   std::to_string(disk.completed_pages()) + " " +
                   std::to_string(disk.cache_hits()));
  }

  {
    const buffer::LruCache& cache = pool_->page_cache();
    Fnv1a64 h;
    for (uint64_t key : cache.Keys()) h.Update64(key);
    out->push_back("cache " + std::to_string(cache.size()) + " " +
                   std::to_string(h.digest()) + " " +
                   std::to_string(cache.hits()) + " " +
                   std::to_string(cache.misses()));
  }

  out->push_back("mm " + std::to_string(mm_->total_pages()) + " " +
                 std::to_string(mm_->allocated_pages()) + " " +
                 std::to_string(mm_->admitted_count()) + " " +
                 std::to_string(mm_->waiting_count()) + " " +
                 std::to_string(mm_->recomputes()));

  out->push_back("policy " + policy_->Describe());
  if (const core::PmmController* p = pmm()) {
    out->push_back("pmm " + std::to_string(static_cast<int>(p->mode())) +
                   " " + std::to_string(p->target_mpl()) + " " +
                   std::to_string(p->adaptations()) + " " +
                   std::to_string(p->workload_changes_detected()));
  }

  source_->AppendStateDigest(out);

  {
    Fnv1a64 h;
    for (const CompletionRecord& r : metrics_.records()) {
      h.Update64(static_cast<uint64_t>(r.info.id));
      h.Update64(r.info.missed ? 1 : 0);
      h.UpdateDouble(r.info.finish);
      h.Update64(static_cast<uint64_t>(r.mem_fluctuations));
    }
    const ClassSummary overall = metrics_.Overall();
    out->push_back("metrics " + std::to_string(overall.completions) + " " +
                   std::to_string(overall.misses) + " " +
                   std::to_string(h.digest()) + " " +
                   std::to_string(ticks_) + " " +
                   FormatDouble(metrics_.MplIntegral(now)));
  }

  out->push_back("livestream " +
                 std::to_string(Fnv1a64Hash(live_rng_.StateString())));
}

SystemSummary Rtdbs::Summarize() const {
  SimTime now = sim_.Now();
  SystemSummary s;
  s.overall = metrics_.Overall();
  s.per_class = metrics_.PerClass();
  s.avg_mpl = metrics_.AverageMpl(now);
  s.cpu_utilization = now > 0.0 ? cpu_->busy_seconds(now) / now : 0.0;
  double sum = 0.0, mx = 0.0;
  for (const auto& disk : disks_) {
    double u = now > 0.0 ? disk->busy_seconds(now) / now : 0.0;
    sum += u;
    mx = std::max(mx, u);
  }
  s.avg_disk_utilization =
      disks_.empty() ? 0.0 : sum / static_cast<double>(disks_.size());
  s.max_disk_utilization = mx;
  s.miss_ratio_ci = metrics_.MissRatioCi();
  s.events_dispatched = sim_.events_dispatched();
  s.simulated_time = now;
  return s;
}

}  // namespace rtq::engine
