// The built-in scenario catalog. Every generator targets the two-class
// Medium/Small multiclass workload (class 0 = Medium joins, class 1 =
// Small joins) and writes its fully-resolved parameters back into the
// canonical spec name, so the same string regenerates the identical
// scenario.

#include "common/spec.h"
#include "workload/scenario.h"

namespace rtq::workload {

namespace {

std::string Param(const std::string& key, double v) {
  return key + "=" + FormatDouble(v);
}

ArrivalShape Constant(double rate) {
  ArrivalShape shape;
  shape.kind = ShapeKind::kConstant;
  shape.rate = rate;
  return shape;
}

// diurnal: Medium load swells and ebbs sinusoidally while a light
// constant Small stream rides along.
StatusOr<ScenarioSpec> MakeDiurnal(const Spec& request) {
  double rate = 0.07;
  double amp = 0.6;
  double period = 7200.0;
  double small = 0.5;
  SpecArgs args(request.args);
  args.Take("rate", &rate);
  args.Take("amp", &amp);
  args.Take("period", &period);
  args.Take("small", &small);
  RTQ_RETURN_IF_ERROR(args.Finish());

  ScenarioSpec spec;
  spec.name = "diurnal:" + Param("rate", rate) + "," + Param("amp", amp) +
              "," + Param("period", period) + "," + Param("small", small);
  ArrivalShape medium;
  medium.kind = ShapeKind::kDiurnal;
  medium.rate = rate;
  medium.amplitude = amp;
  medium.period = period;
  spec.classes.push_back(ScenarioClassSpec{medium, SelectionSpec{}});
  spec.classes.push_back(ScenarioClassSpec{Constant(small), SelectionSpec{}});
  return spec;
}

// flash: a steady mixed load until the Small stream steps to mult× its
// base rate for `dur` seconds, then decays back exponentially.
StatusOr<ScenarioSpec> MakeFlash(const Spec& request) {
  double rate = 0.5;
  double mult = 8.0;
  double at = 3600.0;
  double dur = 900.0;
  double decay = 450.0;
  double medium = 0.05;
  SpecArgs args(request.args);
  args.Take("rate", &rate);
  args.Take("mult", &mult);
  args.Take("at", &at);
  args.Take("dur", &dur);
  args.Take("decay", &decay);
  args.Take("medium", &medium);
  RTQ_RETURN_IF_ERROR(args.Finish());

  ScenarioSpec spec;
  spec.name = "flash:" + Param("rate", rate) + "," + Param("mult", mult) +
              "," + Param("at", at) + "," + Param("dur", dur) + "," +
              Param("decay", decay) + "," + Param("medium", medium);
  ArrivalShape small;
  small.kind = ShapeKind::kFlash;
  small.rate = rate;
  small.flash_at = at;
  small.flash_duration = dur;
  small.flash_multiplier = mult;
  small.flash_decay = decay;
  spec.classes.push_back(ScenarioClassSpec{Constant(medium), SelectionSpec{}});
  spec.classes.push_back(ScenarioClassSpec{small, SelectionSpec{}});
  return spec;
}

// pareto: Medium-only Poisson stream whose operand relations follow a
// bounded Pareto over the group's sizes — mostly small operands with a
// heavy tail of the large ones.
StatusOr<ScenarioSpec> MakePareto(const Spec& request) {
  double rate = 0.07;
  double alpha = 1.5;
  SpecArgs args(request.args);
  args.Take("rate", &rate);
  args.Take("alpha", &alpha);
  RTQ_RETURN_IF_ERROR(args.Finish());

  ScenarioSpec spec;
  spec.name = "pareto:" + Param("rate", rate) + "," + Param("alpha", alpha);
  SelectionSpec sel;
  sel.pareto = true;
  sel.alpha = alpha;
  spec.classes.push_back(ScenarioClassSpec{Constant(rate), sel});
  spec.classes.push_back(ScenarioClassSpec{Constant(0.0), SelectionSpec{}});
  return spec;
}

// burst: Small arrivals come from a two-state Markov-modulated Poisson
// process — long quiet stretches at `lo` punctuated by correlated bursts
// at `hi` — over a constant Medium background.
StatusOr<ScenarioSpec> MakeBurst(const Spec& request) {
  double lo = 0.1;
  double hi = 2.5;
  double tlo = 900.0;
  double thi = 300.0;
  double medium = 0.05;
  SpecArgs args(request.args);
  args.Take("lo", &lo);
  args.Take("hi", &hi);
  args.Take("tlo", &tlo);
  args.Take("thi", &thi);
  args.Take("medium", &medium);
  RTQ_RETURN_IF_ERROR(args.Finish());

  ScenarioSpec spec;
  spec.name = "burst:" + Param("lo", lo) + "," + Param("hi", hi) + "," +
              Param("tlo", tlo) + "," + Param("thi", thi) + "," +
              Param("medium", medium);
  ArrivalShape small;
  small.kind = ShapeKind::kMarkov;
  small.rate_lo = lo;
  small.rate_hi = hi;
  small.sojourn_lo = tlo;
  small.sojourn_hi = thi;
  spec.classes.push_back(ScenarioClassSpec{Constant(medium), SelectionSpec{}});
  spec.classes.push_back(ScenarioClassSpec{small, SelectionSpec{}});
  return spec;
}

// mixshift: the workload-alternation experiment (paper Section 5.3) as a
// scripted scenario — `intervals` equal intervals with Medium active on
// even intervals and Small on odd ones, both silent afterwards. Each
// segment end drops one orphaned inter-arrival draw; the resulting
// Section 5.3 trajectories are pinned by test_scenario_equivalence.
StatusOr<ScenarioSpec> MakeMixShift(const Spec& request) {
  double interval = 3600.0;
  double intervals_arg = 6.0;
  double rate0 = 0.07;
  double rate1 = 2.8;
  SpecArgs args(request.args);
  args.Take("interval", &interval);
  args.Take("intervals", &intervals_arg);
  args.Take("rate0", &rate0);
  args.Take("rate1", &rate1);
  RTQ_RETURN_IF_ERROR(args.Finish());
  auto intervals = static_cast<int>(intervals_arg);
  if (interval <= 0.0 || intervals < 1 ||
      intervals_arg != static_cast<double>(intervals))
    return Status::InvalidArgument(
        "mixshift: interval must be > 0 and intervals a positive integer");

  ScenarioSpec spec;
  spec.name = "mixshift:" + Param("interval", interval) + "," +
              Param("intervals", intervals_arg) + "," +
              Param("rate0", rate0) + "," + Param("rate1", rate1);
  ArrivalShape medium;
  medium.kind = ShapeKind::kScript;
  ArrivalShape small;
  small.kind = ShapeKind::kScript;
  for (int k = 0; k < intervals; ++k) {
    SimTime at = k * interval;
    medium.script.push_back(ScriptStep{at, k % 2 == 0 ? rate0 : 0.0});
    small.script.push_back(ScriptStep{at, k % 2 == 0 ? 0.0 : rate1});
  }
  medium.script.push_back(ScriptStep{intervals * interval, 0.0});
  small.script.push_back(ScriptStep{intervals * interval, 0.0});
  spec.classes.push_back(ScenarioClassSpec{medium, SelectionSpec{}});
  spec.classes.push_back(ScenarioClassSpec{small, SelectionSpec{}});
  return spec;
}

RTQ_REGISTER(ScenarioRegistry, "diurnal",
             "diurnal[:rate=,amp=,period=,small=] — sinusoidal Medium rate "
             "over a constant Small stream",
             MakeDiurnal);
RTQ_REGISTER(ScenarioRegistry, "flash",
             "flash[:rate=,mult=,at=,dur=,decay=,medium=] — Small flash "
             "crowd: step burst then exponential decay",
             MakeFlash);
RTQ_REGISTER(ScenarioRegistry, "pareto",
             "pareto[:rate=,alpha=] — Medium-only stream with "
             "bounded-Pareto operand sizes",
             MakePareto);
RTQ_REGISTER(ScenarioRegistry, "burst",
             "burst[:lo=,hi=,tlo=,thi=,medium=] — Markov-modulated Small "
             "bursts over a constant Medium stream",
             MakeBurst);
RTQ_REGISTER(ScenarioRegistry, "mixshift",
             "mixshift[:interval=,intervals=,rate0=,rate1=] — scripted "
             "Medium/Small class alternation (Section 5.3)",
             MakeMixShift);

}  // namespace

}  // namespace rtq::workload
