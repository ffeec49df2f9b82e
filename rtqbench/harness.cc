// rtqbench: the measuring half of the rtq benchmark (run.py is the
// checking and reporting half; README.md describes both).
//
// Runs one named workload against rtq's public APIs: one untimed warm-up
// repetition, then the identical work again and again until --seconds of
// host time have passed, sampling a machine-speed probe as it goes. It
// prints one JSON document on stdout: every timed call (host ms and start
// time), the probe samples, the deterministic per-point and per-shard
// fingerprints the correctness gate compares, layer counters read from
// public accessors after each point and, with --trace=1, the in-memory
// span log plus the layer-driver timings. Nothing here reaches inside
// src/: every number is a timed call into a public API or a public
// counter read between calls.
//
//   rtqbench --workload=paper-sweep|adaptive-mix|cluster-local|serve-global
//            --seed=N --seconds=S [--trace=0|1] [--scale=F]
//            [--stream=PATH]     serve-global's metrics stream file
//
// --trace=1 alternates untraced and traced repetitions (so run.py can
// report the tracing overhead) and then runs the layer drivers.
// --scale shrinks every horizon and batch count (the self-test uses it).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "buffer/lru_cache.h"
#include "common/rng.h"
#include "core/memory_manager.h"
#include "core/pmm.h"
#include "core/shard_coordinator.h"
#include "core/strategy.h"
#include "engine/rtdbs.h"
#include "engine/sharded_rtdbs.h"
#include "exec/exec_context.h"
#include "harness/args.h"
#include "harness/bench_json.h"
#include "harness/metrics_streamer.h"
#include "harness/paper_experiments.h"
#include "model/cpu.h"
#include "model/disk.h"
#include "serve/serve_session.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "storage/database.h"
#include "workload/query_builder.h"

namespace {

using namespace rtq;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// --- workload shapes (scale 1) ------------------------------------------

/// Simulated seconds per point, and per timed RunUntil call. Every timed
/// call is one batch sample; slices are sized so a repetition holds about
/// a thousand of them.
constexpr SimTime kSweepHorizon = 1800.0;
constexpr SimTime kSweepSlice = 30.0;
constexpr SimTime kMixHorizon = 1800.0;
constexpr SimTime kMixSlice = 10.0;
constexpr SimTime kClusterHorizon = 600.0;
constexpr SimTime kClusterSlice = 1.0;
/// cluster-local and serve-global repeat their point over independent
/// seeds, so one repetition averages over more than one input.
constexpr size_t kClusters = 2;
constexpr size_t kSessions = 2;
/// serve-global: rtq_serve's batch and metrics cadence.
constexpr uint64_t kServeBatch = 4096;
constexpr uint64_t kServeMetricsEvery = 20000;
constexpr int64_t kServeBatches = 600;

/// Fewest repetitions a run makes, whatever --seconds says: setup_s and
/// the throughput metrics are medians over repetitions.
constexpr size_t kMinReps = 5;

// --- tracing --------------------------------------------------------------

/// In-memory span log. Begin/End are no-ops while disabled, so the
/// untraced repetitions pay one branch per timed call.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    int32_t point;
    int32_t shard;
  };

  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  void set_enabled(bool on) { on_ = on; }
  bool enabled() const { return on_; }

  int32_t Begin(const char* name, int32_t point, int32_t shard = -1) {
    if (!on_) return -1;
    auto id = static_cast<int32_t>(spans_.size());
    spans_.push_back(Span{name, NowNs(), 0,
                          stack_.empty() ? -1 : stack_.back(), point, shard});
    stack_.push_back(id);
    return id;
  }

  void End(int32_t id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tr, const char* name, int32_t point, int32_t shard = -1)
      : tr_(tr), id_(tr->Begin(name, point, shard)) {}
  ~ScopedSpan() { tr_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tr_;
  int32_t id_;
};

int64_t NsSince(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
      .count();
}

// --- machine-speed probe ------------------------------------------------------

/// A fixed reference task that shares no code with rtq: priority-queue
/// churn with random updates over a 4 MB table, the access pattern of a
/// discrete-event simulator. Other tenants of a shared machine slow it in
/// step with the simulator, so run.py rescales each timed call by the
/// probe samples around it (README.md, "How host time is reduced").
class SpeedProbe {
 public:
  explicit SpeedProbe(Clock::time_point epoch) : epoch_(epoch) {}

  /// Starts sampling. The table is allocated here, after the warm-up
  /// repetition has set the process's peak RSS without it.
  void Enable() { table_.assign(kTableWords, 1); }

  /// Takes a sample when kEveryNs of host time have passed since the last.
  void MaybeRun(Tracer* tr) {
    if (table_.empty()) return;
    const auto now = Clock::now();
    if (!at_ns_.empty() && NsSince(epoch_, now) - at_ns_.back() < kEveryNs) {
      return;
    }
    ScopedSpan span(tr, "probe", -1);
    RunOnce();  // warm the table: the timed pass measures a resident set
    at_ns_.push_back(NsSince(epoch_, Clock::now()));
    ms_.push_back(RunOnce() * 1e3);
    spent_s_ += Seconds(now, Clock::now());
  }

  const std::vector<int64_t>& at_ns() const { return at_ns_; }
  const std::vector<double>& ms() const { return ms_; }
  uint64_t checksum() const { return sink_; }
  /// Host seconds spent sampling so far.
  double spent_s() const { return spent_s_; }

 private:
  static constexpr size_t kTableWords = 1 << 19;  // 4 MB
  static constexpr int kOps = 30000;
  static constexpr int64_t kEveryNs = 100'000'000;

  double RunOnce() {
    const auto t0 = Clock::now();
    std::priority_queue<std::pair<double, uint32_t>> q;
    uint64_t x = 88172645463325252ULL;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (int i = 0; i < 256; ++i) {
      const uint64_t r = next();
      q.push({static_cast<double>(r % 1000), static_cast<uint32_t>(r)});
    }
    for (int i = 0; i < kOps; ++i) {
      const uint64_t r = next();
      const auto top = q.top();
      q.pop();
      const size_t idx = (top.second ^ r) & (kTableWords - 1);
      table_[idx] += r;
      sink_ += table_[(idx * 7) & (kTableWords - 1)];
      q.push({top.first + static_cast<double>(r % 100),
              static_cast<uint32_t>(r >> 7)});
    }
    return Seconds(t0, Clock::now());
  }

  Clock::time_point epoch_;
  std::vector<uint64_t> table_;
  uint64_t sink_ = 0;
  double spent_s_ = 0.0;
  std::vector<int64_t> at_ns_;
  std::vector<double> ms_;
};

// --- per-repetition results ------------------------------------------------

/// The deterministic outcome of one point or shard: what the correctness
/// gate pins.
struct Fingerprint {
  std::string unit;
  uint64_t events = 0;
  int64_t completions = 0;
  int64_t misses = 0;
  int64_t pages_read = 0;
  int64_t pages_written = 0;
  std::string error;  ///< non-empty when the unit failed outright
};

/// Public counters summed over every engine a repetition ran.
struct LayerCounters {
  int64_t engines = 0;
  int64_t owned = 0;
  int64_t generated = 0;
  int64_t recomputes = 0;
  int64_t recycled = 0;
  int64_t records = 0;
  int64_t adaptations = 0;
  int64_t refusals = 0;
  int64_t high_water = 0;
  double cpu_util = 0.0;
  double disk_util = 0.0;
  double avg_mpl = 0.0;
  /// Max over points of (max per-shard events / mean per-shard events).
  double imbalance = 0.0;
  // Read at span boundaries, traced repetitions only.
  int64_t depth_max = 0;  ///< max over boundaries of summed pending events
  double live_sum = 0.0;  ///< Σ per-engine mean live queries
  int64_t live_samples = 0;
};

struct Rep {
  bool warmup = false;  ///< checked for correctness, not timed
  bool traced = false;
  int64_t start_ns = 0;  ///< ns since the run began
  double wall_s = 0.0;
  double probe_s = 0.0;  ///< share of wall_s spent in the speed probe
  int64_t peak_rss_kb = 0;  ///< process high-water mark after this rep
  uint64_t events = 0;
  int64_t finished = 0;
  int64_t misses = 0;
  /// Every timed call into the program, in call order: host ms, start
  /// (ns since the run began) and, for stepping calls, simulated events.
  std::vector<double> batch_ms;
  std::vector<int64_t> batch_at_ns;
  std::vector<int64_t> batch_events;
  std::vector<double> create_ms;
  std::vector<int64_t> create_at_ns;
  std::vector<double> summarize_ms;
  std::vector<int64_t> summarize_at_ns;
  std::vector<Fingerprint> units;
  LayerCounters layers;
};

Fingerprint FingerprintOf(engine::Rtdbs& sys, std::string unit) {
  Fingerprint fp;
  fp.unit = std::move(unit);
  fp.events = sys.simulator().events_dispatched();
  for (const engine::CompletionRecord& r : sys.metrics().records()) {
    ++fp.completions;
    if (r.info.missed) ++fp.misses;
    fp.pages_read += r.pages_read;
    fp.pages_written += r.pages_written;
  }
  return fp;
}

/// Fingerprints one engine, folds its public counters into `rep`, and
/// checks the cross-layer invariants an outside caller can see.
void CollectEngine(engine::Rtdbs& sys, const engine::SystemSummary& summary,
                   std::string unit, Rep* rep) {
  Fingerprint fp = FingerprintOf(sys, std::move(unit));
  LayerCounters& c = rep->layers;
  const int64_t generated = sys.arrivals().generated();
  const int64_t owned = generated - sys.routed_elsewhere();
  ++c.engines;
  c.generated += generated;
  c.owned += owned;
  c.recomputes += sys.memory_manager().recomputes();
  c.recycled += sys.runtimes_recycled();
  c.records += static_cast<int64_t>(sys.metrics().records().size());
  if (const core::PmmController* pmm = sys.pmm()) {
    c.adaptations += pmm->adaptations();
  }
  c.cpu_util += summary.cpu_utilization;
  c.disk_util += summary.avg_disk_utilization;
  c.avg_mpl += summary.avg_mpl;

  // Every owned arrival is either finished (one record) or still live.
  if (owned != fp.completions + sys.live_queries()) {
    fp.error = "owned arrivals " + std::to_string(owned) +
               " != finished " + std::to_string(fp.completions) + " + live " +
               std::to_string(sys.live_queries());
  } else if (summary.overall.completions != fp.completions ||
             summary.overall.misses != fp.misses) {
    fp.error = "Summarize disagrees with the completion records";
  } else if (fp.events == 0) {
    fp.error = "no simulated events";
  }
  rep->events += fp.events;
  rep->finished += fp.completions;
  rep->misses += fp.misses;
  rep->units.push_back(std::move(fp));
}

void ReadBoundary(const std::vector<engine::Rtdbs*>& engines,
                  LayerCounters* c) {
  int64_t pending = 0;
  int64_t live = 0;
  for (engine::Rtdbs* e : engines) {
    pending += static_cast<int64_t>(e->simulator().pending_events());
    live += e->memory_manager().live_count();
  }
  c->depth_max = std::max(c->depth_max, pending);
  c->live_sum += static_cast<double>(live) /
                 static_cast<double>(engines.size());
  ++c->live_samples;
}

void NoteImbalance(const std::vector<engine::Rtdbs*>& engines,
                   LayerCounters* c) {
  double sum = 0.0;
  double mx = 0.0;
  for (engine::Rtdbs* e : engines) {
    auto ev = static_cast<double>(e->simulator().events_dispatched());
    sum += ev;
    mx = std::max(mx, ev);
  }
  const double mean = sum / static_cast<double>(engines.size());
  if (mean > 0.0) c->imbalance = std::max(c->imbalance, mx / mean);
}

// --- workloads --------------------------------------------------------------

/// One point of a workload: a lone engine, a local-admission cluster, or
/// a serve session.
struct Point {
  enum class Kind { kEngine, kCluster, kServe };
  Kind kind = Kind::kEngine;
  std::string label;
  engine::SystemConfig config;  ///< kEngine and kCluster points
  uint64_t seed = 0;            ///< kServe points
};

struct Workload {
  std::string name;
  std::vector<Point> points;
  SimTime horizon = 0.0;  ///< kEngine and kCluster points
  SimTime slice = 0.0;    ///< simulated seconds per timed RunUntil call
  int64_t batches = 0;    ///< kServe points: RunEvents calls per point
  int32_t engines_per_point = 1;
  std::string stream_path;
  Clock::time_point epoch;
  SpeedProbe* probe = nullptr;
};

/// The seed of point `index` (splitmix64 of the benchmark seed), so that
/// no two points share an arrival stream and a run's totals average over
/// independent inputs.
uint64_t PointSeed(uint64_t seed, size_t index) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string RateLabel(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", rate);
  return buf;
}

/// Builds the named workload; false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, double scale,
                  Workload* w) {
  w->name = name;
  if (name == "paper-sweep") {
    // Section 5.1, Figure 3: five arrival rates x {max, minmax, prop, pmm}.
    for (double rate : {0.04, 0.05, 0.06, 0.07, 0.08}) {
      for (const engine::PolicyConfig& policy : harness::BaselinePolicies()) {
        Point p;
        p.label = policy.ResolvedSpec() + "@" + RateLabel(rate);
        p.config = harness::BaselineConfig(
            rate, policy, PointSeed(seed, w->points.size()));
        w->points.push_back(std::move(p));
      }
    }
    w->horizon = kSweepHorizon * scale;
    w->slice = kSweepSlice;
  } else if (name == "adaptive-mix") {
    // The two-class scenario system under a mix shift and a flash crowd,
    // crossed with the adaptive admission policies.
    const std::pair<const char*, const char*> scenarios[] = {
        {"mixshift", "mixshift:interval=600"},
        {"flash", "flash:at=1200,dur=300,decay=150"}};
    for (const auto& [key, spec] : scenarios) {
      for (const char* policy :
           {"pmm", "pmm-predict", "select:candidates=pmm+pmm-predict",
            "edf-shed", "oracle-ed"}) {
        Point p;
        p.label = std::string(key) + "|" + policy;
        p.config = harness::ScenarioConfig(spec, engine::PolicyConfig(policy),
                                           PointSeed(seed, w->points.size()));
        w->points.push_back(std::move(p));
      }
    }
    w->horizon = kMixHorizon * scale;
    w->slice = kMixSlice;
  } else if (name == "cluster-local") {
    for (size_t i = 0; i < kClusters; ++i) {
      Point p;
      p.kind = Point::Kind::kCluster;
      p.label = "c" + std::to_string(i);
      p.config = harness::BaselineConfig(0.96, engine::PolicyConfig("pmm"),
                                         PointSeed(seed, i));
      w->points.push_back(std::move(p));
    }
    w->horizon = kClusterHorizon * scale;
    w->slice = kClusterSlice;
    w->engines_per_point = 16;
  } else if (name == "serve-global") {
    for (size_t i = 0; i < kSessions; ++i) {
      Point p;
      p.kind = Point::Kind::kServe;
      p.label = "s" + std::to_string(i);
      p.seed = PointSeed(seed, i);
      w->points.push_back(std::move(p));
    }
    w->batches = std::max<int64_t>(
        1, std::llround(static_cast<double>(kServeBatches) * scale));
    w->engines_per_point = 8;
  } else {
    return false;
  }
  return true;
}

/// Records one timed call that started at `t0` and has just returned.
void RecordCall(const Workload& w, Clock::time_point t0,
                std::vector<double>* ms, std::vector<int64_t>* at_ns) {
  ms->push_back(Seconds(t0, Clock::now()) * 1e3);
  at_ns->push_back(NsSince(w.epoch, t0));
}

/// Advances the point to `w.horizon` in `w.slice`-second RunUntil calls,
/// each timed as one batch (and one span when tracing).
template <typename RunFn>
void RunSliced(const Workload& w, RunFn run,
               const std::vector<engine::Rtdbs*>& engines, Tracer* tr,
               int32_t point, Rep* rep) {
  auto dispatched = [&engines] {
    uint64_t n = 0;
    for (engine::Rtdbs* e : engines) n += e->simulator().events_dispatched();
    return n;
  };
  const auto steps = static_cast<int64_t>(std::ceil(w.horizon / w.slice));
  uint64_t before = dispatched();
  for (int64_t k = 1; k <= steps; ++k) {
    const SimTime until = std::min(w.horizon, static_cast<double>(k) * w.slice);
    w.probe->MaybeRun(tr);
    const int32_t span = tr->Begin("RunUntil", point);
    const auto t0 = Clock::now();
    run(until);
    RecordCall(w, t0, &rep->batch_ms, &rep->batch_at_ns);
    tr->End(span);
    const uint64_t after = dispatched();
    rep->batch_events.push_back(static_cast<int64_t>(after - before));
    before = after;
    if (tr->enabled()) ReadBoundary(engines, &rep->layers);
  }
}

void RecordFailure(const std::string& unit, std::string error, Rep* rep) {
  Fingerprint failed;
  failed.unit = unit;
  failed.error = std::move(error);
  rep->units.push_back(std::move(failed));
}

/// A single-engine point (paper-sweep, adaptive-mix).
void RunEnginePoint(const Workload& w, const Point& p, int32_t point,
                    Tracer* tr, Rep* rep) {
  w.probe->MaybeRun(tr);
  const auto t0 = Clock::now();
  auto created = [&] {
    ScopedSpan s(tr, "Create", point);
    return engine::Rtdbs::Create(p.config);
  }();
  RecordCall(w, t0, &rep->create_ms, &rep->create_at_ns);
  if (!created.ok()) {
    RecordFailure(p.label, "Create: " + created.status().ToString(), rep);
    return;
  }
  engine::Rtdbs& sys = *created.value();
  const std::vector<engine::Rtdbs*> engines{&sys};
  RunSliced(w, [&](SimTime until) { sys.RunUntil(until); }, engines, tr,
            point, rep);
  const auto s0 = Clock::now();
  engine::SystemSummary summary;
  {
    ScopedSpan s(tr, "Summarize", point);
    summary = sys.Summarize();
  }
  RecordCall(w, s0, &rep->summarize_ms, &rep->summarize_at_ns);
  CollectEngine(sys, summary, p.label, rep);
  rep->layers.imbalance = std::max(rep->layers.imbalance, 1.0);
}

/// Folds every shard of a finished cluster point into `rep`: one
/// fingerprint per shard plus the cluster aggregate.
void CollectCluster(engine::ShardedRtdbs& cluster, const std::string& label,
                    Rep* rep) {
  std::vector<engine::Rtdbs*> engines;
  const engine::SystemSummary total = cluster.Summarize();
  Fingerprint sum;
  sum.unit = label;
  for (int32_t s = 0; s < cluster.num_shards(); ++s) {
    engine::Rtdbs& shard = cluster.shard(s);
    engines.push_back(&shard);
    CollectEngine(shard, cluster.SummarizeShard(s),
                  label + "/shard" + std::to_string(s), rep);
    const Fingerprint& fp = rep->units.back();
    sum.events += fp.events;
    sum.completions += fp.completions;
    sum.misses += fp.misses;
    sum.pages_read += fp.pages_read;
    sum.pages_written += fp.pages_written;
  }
  if (total.overall.completions != sum.completions ||
      total.overall.misses != sum.misses ||
      total.events_dispatched != sum.events ||
      cluster.events_dispatched() != sum.events) {
    sum.error = "cluster Summarize disagrees with the sum of its shards";
  }
  // The aggregate repeats its shards' work: it is a unit of the
  // correctness gate but adds nothing to the throughput totals.
  rep->units.push_back(sum);
  NoteImbalance(engines, &rep->layers);
  if (const core::ShardCoordinator* coord = cluster.coordinator()) {
    rep->layers.refusals += coord->refusals();
    rep->layers.high_water = std::max(rep->layers.high_water,
                                      coord->high_water());
  }
}

std::vector<engine::Rtdbs*> ShardsOf(engine::ShardedRtdbs& cluster) {
  std::vector<engine::Rtdbs*> engines;
  for (int32_t s = 0; s < cluster.num_shards(); ++s) {
    engines.push_back(&cluster.shard(s));
  }
  return engines;
}

/// A cluster-local point: 16 hash-placed shards under local admission,
/// run on the merged clock.
void RunClusterPoint(const Workload& w, const Point& p, int32_t point,
                     Tracer* tr, Rep* rep) {
  engine::ShardConfig shards;
  shards.num_shards = w.engines_per_point;
  shards.placement = "hash";
  shards.admission = "local";
  w.probe->MaybeRun(tr);
  const auto t0 = Clock::now();
  auto created = [&] {
    ScopedSpan s(tr, "Create", point);
    return engine::ShardedRtdbs::Create(p.config, shards);
  }();
  RecordCall(w, t0, &rep->create_ms, &rep->create_at_ns);
  if (!created.ok()) {
    RecordFailure(p.label, "Create: " + created.status().ToString(), rep);
    return;
  }
  engine::ShardedRtdbs& cluster = *created.value();
  RunSliced(w, [&](SimTime until) { cluster.RunUntil(until); },
            ShardsOf(cluster), tr, point, rep);
  const auto s0 = Clock::now();
  {
    ScopedSpan s(tr, "Summarize", point);
    (void)cluster.Summarize();
  }
  RecordCall(w, s0, &rep->summarize_ms, &rep->summarize_at_ns);
  CollectCluster(cluster, p.label, rep);
}

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

/// A serve-global point: an 8-shard serve session under a global MPL cap,
/// stepped in closed-loop RunEvents(4096) batches with one
/// MetricsStreamer per shard, as rtq_serve steps it.
void RunServePoint(const Workload& w, const Point& p, int32_t point,
                   Tracer* tr, Rep* rep) {
  serve::SessionSpec spec;
  spec.workload = "baseline:rate=0.48";
  spec.policy = "pmm";
  spec.seed = p.seed;
  spec.shards = w.engines_per_point;
  spec.placement = "hash";
  spec.admission = "global:mpl=24";
  w.probe->MaybeRun(tr);
  const auto t0 = Clock::now();
  auto created = [&] {
    ScopedSpan s(tr, "Create", point);
    return serve::ServeSession::Create(spec);
  }();
  RecordCall(w, t0, &rep->create_ms, &rep->create_at_ns);
  if (!created.ok()) {
    RecordFailure(p.label, "Create: " + created.status().ToString(), rep);
    return;
  }
  std::unique_ptr<std::FILE, FileCloser> stream(
      std::fopen(w.stream_path.c_str(), "w"));
  if (stream == nullptr) {
    RecordFailure(p.label, "cannot open " + w.stream_path, rep);
    return;
  }
  serve::ServeSession& session = *created.value();
  engine::ShardedRtdbs& cluster = session.cluster();
  const std::vector<engine::Rtdbs*> engines = ShardsOf(cluster);
  std::vector<harness::MetricsStreamer> streamers;
  for (int32_t s = 0; s < cluster.num_shards(); ++s) {
    streamers.emplace_back(stream.get(), s);
  }
  uint64_t next_metrics = kServeMetricsEvery;
  int64_t short_batches = 0;
  const auto epoch = Clock::now();
  for (int64_t b = 0; b < w.batches; ++b) {
    w.probe->MaybeRun(tr);
    const int32_t span = tr->Begin("RunEvents", point);
    const auto b0 = Clock::now();
    const uint64_t got = session.RunEvents(kServeBatch);
    while (session.events() >= next_metrics) {
      for (int32_t s = 0; s < cluster.num_shards(); ++s) {
        ScopedSpan emit(tr, "Emit", point, s);
        streamers[static_cast<size_t>(s)].Emit(
            cluster.shard(s), Seconds(epoch, Clock::now()));
      }
      next_metrics += kServeMetricsEvery;
    }
    RecordCall(w, b0, &rep->batch_ms, &rep->batch_at_ns);
    tr->End(span);
    if (got != kServeBatch) ++short_batches;
    rep->batch_events.push_back(static_cast<int64_t>(got));
    if (tr->enabled()) ReadBoundary(engines, &rep->layers);
  }
  const auto s0 = Clock::now();
  {
    ScopedSpan s(tr, "Summarize", point);
    (void)cluster.Summarize();
  }
  RecordCall(w, s0, &rep->summarize_ms, &rep->summarize_at_ns);
  CollectCluster(cluster, p.label, rep);
  int64_t lines = 0;
  for (const harness::MetricsStreamer& m : streamers) {
    lines += m.lines_emitted();
  }
  const auto expected_lines = static_cast<int64_t>(
      session.events() / kServeMetricsEvery * engines.size());
  Fingerprint& total = rep->units.back();
  if (!total.error.empty()) return;
  if (short_batches > 0) {
    total.error = std::to_string(short_batches) + " RunEvents batches short";
  } else if (lines != expected_lines) {
    total.error = "streamed " + std::to_string(lines) + " metrics lines, " +
                  "expected " + std::to_string(expected_lines);
  }
}

int64_t PeakRssKb();

/// One repetition: every point of the workload in turn, on this thread.
void RunRep(const Workload& w, Tracer* tr, Rep* rep) {
  const auto t0 = Clock::now();
  const double probe_s = w.probe->spent_s();
  {
    ScopedSpan span(tr, "rep", -1);
    for (size_t i = 0; i < w.points.size(); ++i) {
      const Point& p = w.points[i];
      const auto point = static_cast<int32_t>(i);
      ScopedSpan point_span(tr, "point", point);
      switch (p.kind) {
        case Point::Kind::kEngine:
          RunEnginePoint(w, p, point, tr, rep);
          break;
        case Point::Kind::kCluster:
          RunClusterPoint(w, p, point, tr, rep);
          break;
        case Point::Kind::kServe:
          RunServePoint(w, p, point, tr, rep);
          break;
      }
    }
  }
  rep->start_ns = NsSince(w.epoch, t0);
  rep->wall_s = Seconds(t0, Clock::now());
  rep->probe_s = w.probe->spent_s() - probe_s;
  rep->peak_rss_kb = PeakRssKb();
}

// --- layer drivers ------------------------------------------------------------
//
// Each driver calls one layer's public functions in a tight loop at the
// load shape the traced repetitions observed, and returns host ns per
// operation. Inputs come from a fixed Rng so the work is identical run to
// run; random draws are precomputed so the loops time only the layer.

constexpr size_t kDraws = 4096;

std::vector<double> Draws(uint64_t seed, double lo, double hi) {
  Rng rng(seed);
  std::vector<double> out(kDraws);
  for (double& d : out) d = rng.Uniform(lo, hi);
  return out;
}

double NsPer(Clock::time_point t0, int64_t ops) {
  return Seconds(t0, Clock::now()) * 1e9 / static_cast<double>(ops);
}

/// sim: EventQueue::Schedule + PopInto against a standing calendar.
double PushPopNs(int64_t depth, uint64_t seed) {
  constexpr int64_t kOps = 2'000'000;
  const std::vector<double> offsets = Draws(seed, 0.0, 100.0);
  sim::EventQueue q;
  for (int64_t i = 0; i < depth; ++i) q.Schedule(offsets[i % kDraws], [] {});
  sim::EventQueue::Callback cb;
  double now = 0.0;
  const auto t0 = Clock::now();
  for (int64_t i = 0; i < kOps; ++i) {
    q.Schedule(now + offsets[static_cast<size_t>(i) % kDraws], [] {});
    now = q.PopInto(&cb);
  }
  return NsPer(t0, kOps);
}

/// model: Disk::Submit -> completion on its own Simulator, holding
/// `depth` requests outstanding (each completion submits the next).
class DiskDriver {
 public:
  DiskDriver(const model::DiskParams& params, int64_t depth, int64_t total,
             uint64_t seed)
      : disk_(&sim_, params, 0),
        depth_(depth),
        remaining_(total),
        deadlines_(Draws(seed, 1.0, 100.0)),
        starts_(Draws(seed + 1, 0.0,
                      static_cast<double>(params.capacity() - 8))) {}

  void Run() {
    for (int64_t i = 0; i < depth_; ++i) Submit();
    sim_.RunToCompletion();
  }

 private:
  void Submit() {
    if (remaining_ <= 0) return;
    --remaining_;
    const size_t k = next_++ % kDraws;
    model::DiskRequest req;
    req.query = static_cast<QueryId>(next_ % static_cast<uint64_t>(depth_)) + 1;
    req.deadline = sim_.Now() + deadlines_[k];
    req.start_page = static_cast<PageCount>(starts_[k]);
    req.pages = 6;
    req.on_complete = [this] { Submit(); };
    disk_.Submit(std::move(req));
  }

  sim::Simulator sim_;
  model::Disk disk_;
  int64_t depth_;
  int64_t remaining_;
  uint64_t next_ = 0;
  std::vector<double> deadlines_;
  std::vector<double> starts_;
};

double DiskRequestNs(const model::DiskParams& params, int64_t depth,
                     uint64_t seed) {
  constexpr int64_t kRequests = 300'000;
  DiskDriver driver(params, depth, kRequests, seed);
  const auto t0 = Clock::now();
  driver.Run();
  return NsPer(t0, kRequests);
}

/// model: Cpu::Submit -> completion with `depth` jobs in flight.
class CpuDriver {
 public:
  CpuDriver(double mips, int64_t depth, int64_t total, uint64_t seed)
      : cpu_(&sim_, mips),
        depth_(depth),
        remaining_(total),
        deadlines_(Draws(seed, 1.0, 100.0)),
        sizes_(Draws(seed + 1, 5e3, 5e4)) {}

  void Run() {
    for (int64_t i = 0; i < depth_; ++i) Submit();
    sim_.RunToCompletion();
  }

 private:
  void Submit() {
    if (remaining_ <= 0) return;
    --remaining_;
    const size_t k = next_++ % kDraws;
    model::CpuJob job;
    job.query = static_cast<QueryId>(next_ % static_cast<uint64_t>(depth_)) + 1;
    job.deadline = sim_.Now() + deadlines_[k];
    job.instructions = static_cast<Instructions>(sizes_[k]);
    job.on_complete = [this] { Submit(); };
    cpu_.Submit(std::move(job));
  }

  sim::Simulator sim_;
  model::Cpu cpu_;
  int64_t depth_;
  int64_t remaining_;
  uint64_t next_ = 0;
  std::vector<double> deadlines_;
  std::vector<double> sizes_;
};

double CpuJobNs(double mips, int64_t depth, uint64_t seed) {
  constexpr int64_t kJobs = 500'000;
  CpuDriver driver(mips, depth, kJobs, seed);
  const auto t0 = Clock::now();
  driver.Run();
  return NsPer(t0, kJobs);
}

/// buffer: LruCache::Lookup (+ Insert on a miss) at the pool's capacity,
/// over a key space twice that size.
double LruLookupNs(PageCount capacity, uint64_t seed) {
  constexpr int64_t kOps = 3'000'000;
  constexpr size_t kKeys = 1 << 16;
  Rng rng(seed);
  std::vector<uint64_t> keys(kKeys);
  for (uint64_t& k : keys) {
    k = static_cast<uint64_t>(rng.UniformInt(0, 2 * capacity - 1));
  }
  buffer::LruCache cache(capacity);
  const auto t0 = Clock::now();
  for (int64_t i = 0; i < kOps; ++i) {
    const uint64_t key = keys[static_cast<size_t>(i) % kKeys];
    if (!cache.Lookup(key)) cache.Insert(key);
  }
  return NsPer(t0, kOps);
}

/// A synchronous ExecContext: every CPU or I/O request completes in FIFO
/// order when Pump runs it, so an operator's whole state machine runs on
/// the host with no simulator underneath.
class SyncContext final : public exec::ExecContext {
 public:
  SimTime Now() const override { return now_; }
  void RunCpu(Instructions instructions, exec::DoneCallback done) override {
    now_ += static_cast<double>(instructions) * 1e-8;
    Push(std::move(done));
  }
  void Read(DiskId, PageCount, PageCount pages,
            exec::DoneCallback done) override {
    now_ += 0.002 * static_cast<double>(pages);
    Push(std::move(done));
  }
  void Write(DiskId, PageCount, PageCount pages, exec::DoneCallback done,
             bool) override {
    now_ += 0.002 * static_cast<double>(pages);
    Push(std::move(done));
  }
  StatusOr<storage::TempFile> AllocateTemp(PageCount pages,
                                           DiskId preferred) override {
    storage::TempFile f;
    f.disk = preferred >= 0 ? preferred : 0;
    f.start_page = next_temp_;
    f.pages = pages;
    f.handle = ++handles_;
    next_temp_ += pages;
    return f;
  }
  void FreeTemp(const storage::TempFile&) override {}

  bool Pump() {
    if (pending_.empty()) return false;
    exec::DoneCallback cb = std::move(pending_.front());
    pending_.pop_front();
    if (cb) cb();
    return true;
  }

  int64_t requests() const { return requests_; }

 private:
  void Push(exec::DoneCallback done) {
    ++requests_;
    pending_.push_back(std::move(done));
  }

  SimTime now_ = 0.0;
  PageCount next_temp_ = 0;
  uint64_t handles_ = 0;
  int64_t requests_ = 0;
  std::deque<exec::DoneCallback> pending_;
};

/// Operators as the workload builds them: blueprints drawn from the
/// workload's own classes and database.
struct QuerySamples {
  std::vector<workload::QueryBlueprint> blueprints;
  std::unique_ptr<storage::Database> db;
};

QuerySamples DrawQueries(const engine::SystemConfig& cfg, uint64_t seed,
                         std::string* error) {
  QuerySamples out;
  Rng rng(seed);
  auto db = storage::Database::Create(cfg.EffectiveDatabase(), cfg.disk, &rng);
  if (!db.ok()) {
    *error = "Database::Create: " + db.status().ToString();
    return out;
  }
  out.db = std::make_unique<storage::Database>(std::move(db).value());
  const auto& classes = cfg.workload.classes;
  for (int32_t i = 0; i < 64; ++i) {
    const auto c = static_cast<int32_t>(i % static_cast<int32_t>(classes.size()));
    out.blueprints.push_back(workload::DrawBlueprint(
        classes[static_cast<size_t>(c)], c, 0.0, *out.db, &rng));
  }
  return out;
}

/// exec: host ns per CPU/I-O request an operator issues, with each
/// operator granted the pool's share at the observed MPL.
double ExecRequestNs(const engine::SystemConfig& cfg, const QuerySamples& qs,
                     int64_t mpl, std::string* error) {
  constexpr int64_t kQueries = 160;
  SyncContext ctx;
  double busy_s = 0.0;
  for (int64_t i = 0; i < kQueries; ++i) {
    const workload::QueryBlueprint& bp =
        qs.blueprints[static_cast<size_t>(i) % qs.blueprints.size()];
    workload::BuiltQuery q = workload::BuildQuery(
        bp, static_cast<QueryId>(i + 1), *qs.db, cfg.exec, cfg.disk, cfg.mips);
    const PageCount share = cfg.memory_pages / std::max<int64_t>(mpl, 1);
    q.op->SetAllocation(std::clamp(share, q.desc.min_memory,
                                   std::max(q.desc.min_memory,
                                            q.desc.max_memory)));
    bool done = false;
    q.op->on_finished = [&done] { done = true; };
    const auto t0 = Clock::now();
    q.op->Start(&ctx);
    while (ctx.Pump()) {
    }
    busy_s += Seconds(t0, Clock::now());
    if (!done) {
      *error = "exec driver: operator stalled before finishing";
      return 0.0;
    }
  }
  return busy_s * 1e9 / static_cast<double>(std::max<int64_t>(ctx.requests(), 1));
}

/// core: MemoryManager AddQuery + RemoveQuery at a standing population of
/// `live` queries under a MinMax-`mpl` strategy; ns per membership change.
double MmChangeNs(const engine::SystemConfig& cfg, const QuerySamples& qs,
                  int64_t live, int64_t mpl, uint64_t seed) {
  constexpr int64_t kIterations = 300'000;
  const std::vector<double> slack = Draws(seed, 20.0, 400.0);
  std::vector<core::MemRequest> shapes;
  for (const workload::QueryBlueprint& bp : qs.blueprints) {
    workload::BuiltQuery q =
        workload::BuildQuery(bp, 1, *qs.db, cfg.exec, cfg.disk, cfg.mips);
    core::MemRequest r;
    r.min_memory = q.desc.min_memory;
    r.max_memory = std::min(q.desc.max_memory, cfg.memory_pages);
    shapes.push_back(r);
  }
  core::MemoryManager mm(cfg.memory_pages,
                         std::make_unique<core::MinMaxStrategy>(mpl),
                         [](QueryId, PageCount) {});
  std::deque<QueryId> fifo;
  QueryId next = 1;
  double now = 0.0;
  auto arrive = [&] {
    core::MemRequest r = shapes[static_cast<size_t>(next) % shapes.size()];
    r.id = next;
    r.arrival = now;
    r.deadline = now + slack[static_cast<size_t>(next) % kDraws];
    ++next;
    fifo.push_back(r.id);
    mm.AddQuery(r);
  };
  for (int64_t i = 0; i < std::max<int64_t>(live, 1); ++i) arrive();
  const auto t0 = Clock::now();
  for (int64_t i = 0; i < kIterations; ++i) {
    now += 1.0;
    arrive();
    mm.RemoveQuery(fifo.front());
    fifo.pop_front();
  }
  return NsPer(t0, 2 * kIterations);
}

/// Median of three runs of `fn`, each traced as one driver span.
double Median3(Tracer* tr, const char* name, const std::function<double()>& fn) {
  double v[3];
  for (double& x : v) {
    ScopedSpan s(tr, name, -1);
    x = fn();
  }
  std::sort(v, v + 3);
  return v[1];
}

// --- output -------------------------------------------------------------------

void WriteRep(const Rep& r, harness::JsonWriter* j) {
  j->BeginObject();
  j->Key("warmup").Bool(r.warmup);
  j->Key("traced").Bool(r.traced);
  j->Key("start_ns").Int(r.start_ns);
  j->Key("wall_s").Number(r.wall_s);
  j->Key("probe_s").Number(r.probe_s);
  j->Key("peak_rss_kb").Int(r.peak_rss_kb);
  j->Key("events").Int(static_cast<int64_t>(r.events));
  j->Key("finished").Int(r.finished);
  j->Key("misses").Int(r.misses);
  auto nums = [j](const char* key, const std::vector<double>& v) {
    j->Key(key).BeginArray();
    for (double x : v) j->Number(x);
    j->EndArray();
  };
  auto ints = [j](const char* key, const std::vector<int64_t>& v) {
    j->Key(key).BeginArray();
    for (int64_t x : v) j->Int(x);
    j->EndArray();
  };
  nums("batch_ms", r.batch_ms);
  ints("batch_at_ns", r.batch_at_ns);
  ints("batch_events", r.batch_events);
  nums("create_ms", r.create_ms);
  ints("create_at_ns", r.create_at_ns);
  nums("summarize_ms", r.summarize_ms);
  ints("summarize_at_ns", r.summarize_at_ns);
  j->Key("units").BeginArray();
  for (const Fingerprint& f : r.units) {
    j->BeginObject();
    j->Key("unit").String(f.unit);
    j->Key("events").Int(static_cast<int64_t>(f.events));
    j->Key("completions").Int(f.completions);
    j->Key("misses").Int(f.misses);
    j->Key("pages_read").Int(f.pages_read);
    j->Key("pages_written").Int(f.pages_written);
    j->Key("error").String(f.error);
    j->EndObject();
  }
  j->EndArray();
  const LayerCounters& c = r.layers;
  j->Key("layers").BeginObject();
  j->Key("engines").Int(c.engines);
  j->Key("owned").Int(c.owned);
  j->Key("generated").Int(c.generated);
  j->Key("recomputes").Int(c.recomputes);
  j->Key("recycled").Int(c.recycled);
  j->Key("records").Int(c.records);
  j->Key("adaptations").Int(c.adaptations);
  j->Key("refusals").Int(c.refusals);
  j->Key("high_water").Int(c.high_water);
  j->Key("cpu_util").Number(c.cpu_util);
  j->Key("disk_util").Number(c.disk_util);
  j->Key("avg_mpl").Number(c.avg_mpl);
  j->Key("imbalance").Number(c.imbalance);
  j->Key("depth_max").Int(c.depth_max);
  j->Key("live_sum").Number(c.live_sum);
  j->Key("live_samples").Int(c.live_samples);
  j->EndObject();
  j->EndObject();
}

int64_t PeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  int64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoll(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

}  // namespace

int main(int argc, char** argv) {
  const auto epoch = Clock::now();
  harness::ArgParser args(argc, argv);
  const std::string name = args.String("workload", "");
  const auto seed = static_cast<uint64_t>(args.Int("seed", 42));
  const double seconds = args.Double("seconds", 10.0);
  const bool trace = args.Int("trace", 0) != 0;
  const double scale = args.Double("scale", 1.0);
  SpeedProbe probe(epoch);
  Workload w;
  w.stream_path = args.String("stream", "serve-stream.jsonl");
  w.epoch = epoch;
  w.probe = &probe;
  Status flags = args.Finish();
  if (!flags.ok() || !(scale > 0.0) || !(seconds > 0.0)) {
    std::fprintf(stderr, "rtqbench: %s\n",
                 flags.ok() ? "--scale and --seconds must be positive"
                            : flags.ToString().c_str());
    return 2;
  }
  if (!MakeWorkload(name, seed, scale, &w)) {
    std::fprintf(stderr,
                 "rtqbench: unknown --workload '%s' (paper-sweep | "
                 "adaptive-mix | cluster-local | serve-global)\n",
                 name.c_str());
    return 2;
  }

  Tracer tracer(epoch);

  // A warm-up repetition fills caches and allocator pools and sets the
  // peak RSS before the probe adds its own table.
  std::vector<Rep> reps(1);
  reps[0].warmup = true;
  RunRep(w, &tracer, &reps[0]);
  const int64_t peak_rss_kb = PeakRssKb();
  probe.Enable();

  // Timed repetitions until the time budget is spent; under --trace=1
  // every other one is traced so both halves see the same machine.
  const size_t min_reps = 1 + (trace ? 2 * kMinReps : kMinReps);
  const auto start = Clock::now();
  while (reps.size() < min_reps || Seconds(start, Clock::now()) < seconds) {
    Rep r;
    r.traced = trace && reps.size() % 2 == 0;
    tracer.set_enabled(r.traced);
    RunRep(w, &tracer, &r);
    tracer.set_enabled(false);
    reps.push_back(std::move(r));
  }

  harness::JsonWriter j;
  j.BeginObject();
  j.Key("workload").String(w.name);
  j.Key("seed").Int(static_cast<int64_t>(seed));
  j.Key("scale").Number(scale);
  j.Key("engines_per_point").Int(w.engines_per_point);
  j.Key("build").BeginObject();
  j.Key("compiler").String(RTQBENCH_COMPILER);
  j.Key("build_type").String(RTQBENCH_BUILD_TYPE);
  j.Key("flags").String(RTQBENCH_FLAGS);
  j.Key("lto").String(RTQBENCH_LTO);
  j.EndObject();
  j.Key("peak_rss_kb").Int(peak_rss_kb);
  j.Key("probe_at_ns").BeginArray();
  for (int64_t t : probe.at_ns()) j.Int(t);
  j.EndArray();
  j.Key("probe_ms").BeginArray();
  for (double m : probe.ms()) j.Number(m);
  j.EndArray();
  j.Key("probe_checksum").Int(static_cast<int64_t>(probe.checksum() >> 1));
  j.Key("measure_s").Number(Seconds(start, Clock::now()));
  j.Key("reps").BeginArray();
  for (const Rep& r : reps) WriteRep(r, &j);
  j.EndArray();

  if (trace) {
    // Load shape observed by the traced repetitions, per engine.
    LayerCounters seen;
    for (const Rep& r : reps) {
      if (!r.traced) continue;
      seen.depth_max = std::max(seen.depth_max, r.layers.depth_max);
      seen.live_sum += r.layers.live_sum;
      seen.live_samples += r.layers.live_samples;
      seen.avg_mpl += r.layers.avg_mpl;
      seen.engines += r.layers.engines;
    }
    const int64_t depth =
        std::max<int64_t>(1, seen.depth_max / w.engines_per_point);
    const int64_t live = std::max<int64_t>(
        1, std::llround(seen.live_sum /
                        static_cast<double>(std::max<int64_t>(
                            seen.live_samples, 1))));
    const int64_t mpl = std::max<int64_t>(
        1, std::llround(seen.avg_mpl / static_cast<double>(
                                           std::max<int64_t>(seen.engines, 1))));
    // serve-global's sessions run the baseline system at 0.06 per shard.
    const engine::SystemConfig cfg =
        w.points.front().kind == Point::Kind::kServe
            ? harness::BaselineConfig(0.06, engine::PolicyConfig("pmm"), seed)
            : w.points.front().config;
    std::string error;
    const QuerySamples qs = DrawQueries(cfg, seed, &error);
    tracer.set_enabled(true);
    j.Key("drivers").BeginObject();
    j.Key("depth").Int(depth);
    j.Key("live").Int(live);
    j.Key("mpl").Int(mpl);
    j.Key("push_pop_ns").Number(Median3(&tracer, "driver.sim", [&] {
      return PushPopNs(depth, seed);
    }));
    j.Key("disk_request_ns").Number(Median3(&tracer, "driver.disk", [&] {
      return DiskRequestNs(cfg.disk, mpl, seed);
    }));
    j.Key("cpu_job_ns").Number(Median3(&tracer, "driver.cpu", [&] {
      return CpuJobNs(cfg.mips, mpl, seed);
    }));
    j.Key("lru_lookup_ns").Number(Median3(&tracer, "driver.buffer", [&] {
      return LruLookupNs(2560, seed);
    }));
    if (error.empty()) {
      j.Key("exec_request_ns").Number(Median3(&tracer, "driver.exec", [&] {
        return ExecRequestNs(cfg, qs, mpl, &error);
      }));
      j.Key("mm_change_ns").Number(Median3(&tracer, "driver.core", [&] {
        return MmChangeNs(cfg, qs, live, mpl, seed);
      }));
    }
    j.Key("error").String(error);
    j.EndObject();
    tracer.set_enabled(false);

    j.Key("spans").BeginArray();
    for (const Tracer::Span& s : tracer.spans()) {
      j.BeginArray().String(s.name).Int(s.start_ns).Int(s.end_ns).Int(s.parent);
      j.Int(s.point).Int(s.shard).EndArray();
    }
    j.EndArray();
  }
  j.EndObject();
  std::printf("%s\n", j.str().c_str());
  return 0;
}
