// Scenario engine: composable non-stationary arrival processes.
//
// The paper's drivers sweep memoryless Poisson grids; production
// pressure is diurnal, bursty and trending. A ScenarioSpec assigns each
// workload class an ArrivalShape — a possibly time-varying arrival-rate
// function — plus a relation-selection mode, making non-stationary
// load (the Section 5.3 class alternation among it) a first-class
// workload citizen.
//
// Shapes:
//   kConstant  rate r (rate 0 = class silent) — plain Poisson. The
//              paper's Source (Figure 2, Section 4.1) is one kConstant
//              class per workload class: PoissonScenario.
//   kDiurnal   rate(t) = r * (1 + amp * sin(2*pi*t/period)).
//   kFlash     base rate, stepped to base*mult over [at, at+dur], then
//              exponentially decaying back with time constant `decay`
//              (flash crowd).
//   kMarkov    two-state Markov-modulated Poisson process: rate_lo /
//              rate_hi with exponential sojourns of mean sojourn_lo /
//              sojourn_hi (correlated bursts).
//   kScript    piecewise-constant rate steps (at, rate); the last step's
//              rate holds forever (rate 0 = silent). Scripted class-mix
//              shifts. The inter-arrival draw that falls past a segment
//              end is consumed and dropped, not carried over — part of
//              the Section 5.3 trajectories that test_scenario_equivalence
//              and the workload_changes smoke reference pin.
//
// Time-varying shapes generate by Lewis-Shedler thinning against the
// shape's maximum rate; piecewise-constant shapes draw directly. All
// randomness flows through forked Rng streams in a fixed order, so the
// same (spec, workload, seed) is bit-reproducible — and
// engine::RenderScenarioTrace records a ScenarioSource's own arrivals,
// so rendering a scenario to a `.rtqt` trace and replaying it yields
// the identical engine trajectory as generating live.

#ifndef RTQ_WORKLOAD_SCENARIO_H_
#define RTQ_WORKLOAD_SCENARIO_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/registry.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/simulator.h"
#include "storage/database.h"
#include "workload/arrival_source.h"
#include "workload/query_builder.h"
#include "workload/workload_spec.h"

namespace rtq::workload {

enum class ShapeKind { kConstant, kDiurnal, kFlash, kMarkov, kScript };

struct ScriptStep {
  SimTime at = 0.0;
  double rate = 0.0;
};

struct ArrivalShape {
  ShapeKind kind = ShapeKind::kConstant;
  /// Base rate (queries/second) for kConstant / kDiurnal / kFlash.
  double rate = 0.0;
  // kDiurnal
  double amplitude = 0.6;
  double period = 7200.0;
  // kFlash
  double flash_at = 3600.0;
  double flash_duration = 900.0;
  double flash_multiplier = 8.0;
  double flash_decay = 450.0;
  // kMarkov
  double rate_lo = 0.0;
  double rate_hi = 0.0;
  double sojourn_lo = 900.0;
  double sojourn_hi = 300.0;
  // kScript: steps with non-decreasing `at`, the first at time 0.
  std::vector<ScriptStep> script;

  Status Validate() const;
};

struct ScenarioClassSpec {
  ArrivalShape shape;
  SelectionSpec selection;
};

struct ScenarioSpec {
  /// Canonical generator spec ("diurnal:rate=0.07,..."), used for
  /// display, BENCH_*.json config and the trace header.
  std::string name;
  /// One entry per workload class, aligned by index.
  std::vector<ScenarioClassSpec> classes;

  bool enabled() const { return !classes.empty(); }
  /// Checks shape parameters and that `classes` aligns 1:1 with the
  /// workload's classes.
  Status Validate(const WorkloadSpec& workload) const;
};

/// Scenario generators by spec string: "diurnal", "flash:mult=12,at=600",
/// "mixshift:intervals=6". Every factory resolves its defaults and writes
/// the fully-parameterized canonical spec into ScenarioSpec::name, so
/// Create(Create(s).name) rebuilds the identical scenario. The built-in
/// catalog registers from scenario_catalog.cc.
inline constexpr char kScenarioNoun[] = "scenario";
using ScenarioRegistry = Registry<ScenarioSpec, kScenarioNoun>;

/// The paper's workload as a scenario: one kConstant class per workload
/// class at that class's arrival_rate, with uniform operand selection.
/// The engine generates from it whenever the config sets no scenario.
ScenarioSpec PoissonScenario(const WorkloadSpec& workload);

/// One class's arrival-time stream: successive calls return the
/// non-decreasing arrival times of the shape, consuming the arrivals /
/// chain Rngs deterministically. Returns nullopt once the shape can
/// never fire again (e.g. a script tail at rate 0).
class ArrivalProcess {
 public:
  ArrivalProcess(const ArrivalShape& shape, Rng arrivals);

  /// Installs the modulating-chain stream (kMarkov only).
  void SetChain(Rng chain);

  std::optional<SimTime> Next();

  /// Appends the full generator state (cursor, Markov chain phase, rng
  /// fingerprints) as space-separated fields to `*out`; two processes
  /// with equal digests produce identical arrival streams forever.
  void AppendDigest(std::string* out) const;

 private:
  double RateAt(SimTime t);
  std::optional<SimTime> NextThinned();
  std::optional<SimTime> NextScripted();

  ArrivalShape shape_;
  Rng arrivals_;
  Rng chain_;
  SimTime now_ = 0.0;
  // kScript cursor.
  size_t step_ = 0;
  // kMarkov chain state.
  bool chain_hi_ = false;
  SimTime chain_switch_ = 0.0;
  bool chain_started_ = false;
};

/// Live scenario generation through the engine's ArrivalSource seam.
/// Rng fork order: one arrivals + one selection stream per class, then
/// one chain stream per Markov class.
class ScenarioSource : public ArrivalSource {
 public:
  ScenarioSource(sim::Simulator* sim, const storage::Database* db,
                 const WorkloadSpec& workload, const ScenarioSpec& scenario,
                 Rng rng, Sink sink);

  void Start() override;
  void Stop() override;
  int64_t generated() const override {
    return static_cast<int64_t>(next_id_);
  }
  void AppendStateDigest(std::vector<std::string>* out) const override;

  /// See ArrivalSource; only valid before Start().
  void set_first_query_id(QueryId id);

 private:
  void ScheduleNext(int32_t query_class);
  void EmitQuery(int32_t query_class);

  sim::Simulator* sim_;
  const storage::Database* db_;
  WorkloadSpec workload_;
  ScenarioSpec scenario_;
  Sink sink_;

  struct ClassState {
    std::unique_ptr<ArrivalProcess> process;
    Rng selection;
  };
  std::vector<ClassState> class_state_;
  QueryId next_id_ = 0;
  bool started_ = false;
  bool stopped_ = false;
  /// Shape time is relative to Start(): a source swapped in mid-run
  /// begins its shapes (flash_at, script steps, ...) at the swap instant
  /// rather than scheduling into the simulated past. Zero for sources
  /// started at time 0, so pre-existing runs are unchanged.
  SimTime t0_ = 0.0;
};

}  // namespace rtq::workload

#endif  // RTQ_WORKLOAD_SCENARIO_H_
