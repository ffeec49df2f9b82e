// rtq_bench: the paper's Section 5 experiments (Figures 3-18, Table 7),
// their design-choice ablations and their extensions, one plain function
// each, run by name as `rtq_bench <experiment>...`. Each runs its grid of
// harness::RunSpecs through harness::RunPool's default job, prints the
// paper's tables and writes results/<experiment>.csv plus the trajectory
// results/BENCH_<experiment>.json. RTQ_SIM_HOURS sets the simulated
// duration per point, RTQ_BENCH_JOBS the pool's worker count, and
// RTQ_POLICIES replaces a sweep's default policy list (see
// harness/paper_experiments.h).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/spec.h"
#include "core/policy_registry.h"
#include "engine/rtdbs.h"
#include "harness/bench_json.h"
#include "harness/paper_experiments.h"
#include "harness/runner.h"
#include "harness/table_printer.h"
#include "stats/quadratic_fit.h"
#include "workload/trace.h"

namespace rtq::bench {
namespace {

using engine::PolicyConfig;
using engine::SystemConfig;
using engine::SystemSummary;
using harness::PoliciesOrDefault;
using harness::RunResult;
using harness::RunSpec;
using Policies = std::vector<PolicyConfig>;
/// A paper_experiments factory: (x, policy, seed) -> config.
using Factory = SystemConfig (*)(double, const PolicyConfig&, uint64_t);

std::string F(double v, int p) { return harness::TablePrinter::Fixed(v, p); }
std::string Pct(double v) { return harness::TablePrinter::Percent(v, 1); }
std::string CsvNumber(double v) { return std::isfinite(v) ? F(v, 4) : ""; }

/// Prints a failed status to stderr; returns whether it was OK.
bool Ok(const Status& st) {
  if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
  return st.ok();
}

/// An experiment's points, one per (row, lane) pair, row-major. Row x
/// prints as rows[x] at BENCH JSON "lambda" xs[x]; lanes are the table
/// columns: policy labels (with `policies` set) or ablation variants.
struct Grid {
  std::vector<double> xs;
  std::vector<std::string> rows;
  std::vector<std::string> lanes;
  Policies policies;
  std::vector<RunResult> results;

  /// "<lane><at><row>", the point label of most experiments.
  std::string Label(size_t x, size_t l, const std::string& at) const {
    return lanes[l] + at + rows[x];
  }
  const RunResult& Result(size_t x, size_t l) const {
    return results[x * lanes.size() + l];
  }
  const SystemSummary& At(size_t x, size_t l) const {
    return Result(x, l).summary;
  }
  /// Calls fn(x, l, summary) for every point in submission order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (size_t x = 0; x < rows.size(); ++x) {
      for (size_t l = 0; l < lanes.size(); ++l) fn(x, l, At(x, l));
    }
  }
  /// The first lane whose policy resolves to `spec`, or -1.
  int LaneOf(const std::string& spec) const {
    for (size_t p = 0; p < policies.size(); ++p) {
      if (policies[p].ResolvedSpec() == spec) return static_cast<int>(p);
    }
    return -1;
  }
  /// Row x's miss ratio on its first oracle-ed lane, NaN when the sweep
  /// has none (the headroom and scenarios defaults have one).
  double OracleMiss(size_t x) const {
    for (size_t p = 0; p < policies.size(); ++p) {
      auto spec = Spec::Parse(policies[p].ResolvedSpec());
      if (spec.ok() && spec.value().name == "oracle-ed") {
        return At(x, p).overall.miss_ratio;
      }
    }
    return std::nan("");
  }
};

/// Rows print `xs` at `precision` digits; lanes are `variants`.
Grid NumericGrid(std::vector<double> xs, int precision,
                 std::vector<std::string> variants) {
  Grid grid{std::move(xs), {}, std::move(variants), {}, {}};
  for (double x : grid.xs) grid.rows.push_back(F(x, precision));
  return grid;
}

/// Rows print `xs` at `precision` digits; lanes are `policies`.
Grid PolicyGrid(std::vector<double> xs, int precision, Policies policies) {
  Grid grid = NumericGrid(std::move(xs), precision, {});
  for (const auto& policy : policies) {
    grid.lanes.push_back(harness::PolicyLabel(policy));
  }
  grid.policies = std::move(policies);
  return grid;
}

/// One experiment: prints its banner on construction, runs its grids and
/// collects the CSV series and the BENCH JSON, both named after it.
struct Sweep {
  Sweep(const std::string& name, const char* title, const char* paper_ref,
        std::vector<std::string> csv_columns)
      : name(name), csv(std::move(csv_columns)), json(name) {
    const char* rule =
        "================================================================";
    std::printf("%s\n%s\nreproduces: %s\n", rule, title, paper_ref);
    std::printf("simulated duration per point: %.1f hours "
                "(override with RTQ_SIM_HOURS)\n",
                harness::ExperimentDuration() / 3600.0);
    std::printf("parallel jobs: %d (override with RTQ_BENCH_JOBS)\n",
                harness::BenchJobs());
    std::printf("%s\n\n", rule);
  }

  /// Runs spec(x, l) for every point of `grid` on the pool and adds each
  /// to the JSON as (lane, xs[x]), with its "gap_to_oracle" when its row
  /// has an oracle-ed lane. A sharded point is followed by one point per
  /// shard ("<label> #<s>"), so the gate also pins the placement split.
  /// The JSON totals add up every run's wall time.
  template <typename SpecFn>
  void Run(Grid* grid, SpecFn spec) {
    std::vector<RunSpec> specs;
    for (size_t x = 0; x < grid->rows.size(); ++x) {
      for (size_t l = 0; l < grid->lanes.size(); ++l) {
        specs.push_back(spec(x, l));
      }
    }
    auto start = std::chrono::steady_clock::now();
    grid->results = harness::RunPool(specs);
    wall += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
    grid->ForEach([&](size_t x, size_t l, const SystemSummary& s) {
      const RunResult& r = grid->Result(x, l);
      json.AddPoint(r.label, grid->lanes[l], grid->xs[x], s, r.wall_seconds,
                    s.overall.miss_ratio - grid->OracleMiss(x));
      for (size_t i = 0; i < r.shard_summaries.size(); ++i) {
        json.AddPoint(r.label + " #" + std::to_string(i), grid->lanes[l],
                      grid->xs[x], r.shard_summaries[i], /*wall_seconds=*/0.0);
      }
    });
  }

  /// Runs `defaults` (or RTQ_POLICIES) at each x, point (x, p) labelled
  /// "<policy label><at><x>" and configured by factory(x, policy) at the
  /// factories' default seed.
  Grid RunPolicies(std::vector<double> xs, int precision, Policies defaults,
                   const std::string& at, Factory factory) {
    Grid grid = PolicyGrid(std::move(xs), precision,
                           PoliciesOrDefault(std::move(defaults)));
    Run(&grid, [&](size_t x, size_t p) {
      return RunSpec{grid.Label(x, p, at),
                     factory(grid.xs[x], grid.policies[p], /*seed=*/42)};
    });
    return grid;
  }

  /// Writes results/<name>.csv and results/BENCH_<name>.json.
  void Write() const {
    const std::string path = "results/" + name + ".csv";
    if (Ok(csv.WriteCsv(path))) {
      std::printf("\nseries written to %s\n", path.c_str());
    }
    if (Ok(json.WriteFile(wall))) {
      std::printf("trajectory written to %s (%.1fs total)\n",
                  json.path().c_str(), wall);
    }
  }

  std::string name;
  harness::TablePrinter csv;
  harness::BenchJsonEmitter json;
  double wall = 0.0;
};

/// Prints `title`, then a table with one row per grid row and one
/// column per policy lane holding cell(summary).
template <typename Cell>
void PrintPivot(const std::string& title, const std::string& corner,
                const Grid& grid, Cell cell) {
  harness::TablePrinter table(harness::PolicyColumns(corner, grid.policies));
  for (size_t x = 0; x < grid.rows.size(); ++x) {
    std::vector<std::string> row{grid.rows[x]};
    for (size_t l = 0; l < grid.lanes.size(); ++l) {
      row.push_back(cell(grid.At(x, l)));
    }
    table.AddRow(std::move(row));
  }
  std::printf("%s\n", title.c_str());
  table.Print();
}

std::string MissCell(const SystemSummary& s) {
  return Pct(s.overall.miss_ratio);
}
std::string DiskUtilCell(const SystemSummary& s) {
  return Pct(s.avg_disk_utilization);
}
std::string MplCell(const SystemSummary& s) { return F(s.avg_mpl, 2); }

/// Miss ratio of class `c`, 0 when the workload has no such class.
double ClassMiss(const SystemSummary& s, size_t c) {
  return c < s.per_class.size() ? s.per_class[c].miss_ratio : 0.0;
}

const char* ModeName(core::PmmController::Mode mode) {
  return mode == core::PmmController::Mode::kMax ? "Max" : "MinMax";
}

// Baseline experiment (paper Section 5.1): one class of hash joins on a
// memory-bottlenecked configuration (10 disks, 40 MIPS, M = 2560 pages).
// Regenerates, against the arrival rate, Figures 3 (miss ratio under
// Max, MinMax, Proportional and PMM), 4 (average disk utilization), 5
// (observed average MPL) and 7 (memory fluctuations per query), and
// Table 7 (average waiting / execution / response times).
void Baseline(const std::string& name) {
  Sweep sweep(name, "E1-E4, E6: baseline experiment",
              "Figures 3, 4, 5, 7 and Table 7 (Section 5.1)",
              {"arrival_rate", "policy", "miss_ratio", "avg_disk_util",
               "avg_mpl", "avg_wait", "avg_exec", "avg_response",
               "fluctuations", "miss_ci_halfwidth"});
  Grid grid = sweep.RunPolicies({0.04, 0.05, 0.06, 0.07, 0.08}, 3,
                                harness::BaselinePolicies(), " @ ",
                                harness::BaselineConfig);
  harness::TablePrinter table7({"lambda", "policy", "wait(s)", "exec(s)",
                                "total(s)", "miss", "ci90 +/-"});
  grid.ForEach([&](size_t x, size_t p, const SystemSummary& s) {
    table7.AddRow({grid.rows[x], grid.lanes[p], F(s.overall.avg_wait, 1),
                   F(s.overall.avg_exec, 1), F(s.overall.avg_response, 1),
                   Pct(s.overall.miss_ratio), Pct(s.miss_ratio_ci.half_width)});
    sweep.csv.AddRow({grid.rows[x], grid.lanes[p], F(s.overall.miss_ratio, 4),
                      F(s.avg_disk_utilization, 4), F(s.avg_mpl, 3),
                      F(s.overall.avg_wait, 2), F(s.overall.avg_exec, 2),
                      F(s.overall.avg_response, 2),
                      F(s.overall.avg_fluctuations, 3),
                      F(s.miss_ratio_ci.half_width, 4)});
  });
  PrintPivot("Figure 3: miss ratio vs arrival rate", "lambda", grid, MissCell);
  PrintPivot("\nFigure 4: average disk utilization", "lambda", grid,
             DiskUtilCell);
  PrintPivot("\nFigure 5: observed average MPL", "lambda", grid, MplCell);
  PrintPivot("\nFigure 7: memory fluctuations per query", "lambda", grid,
             [](const SystemSummary& s) {
               return F(s.overall.avg_fluctuations, 2);
             });
  std::printf("\nTable 7: average timings\n");
  table7.Print();
  sweep.Write();
}

// PMM adaptation trace (paper Figure 6): the target-MPL trajectory over
// the first 10 simulated hours of the baseline workload at 0.075 q/s.
// Shows the Max -> MinMax switch, the RU-heuristic opening bid, and the
// miss-ratio projection homing in on a stable MPL.
void PmmTrace(const std::string& name) {
  Sweep sweep(name, "E5: PMM target-MPL trace at lambda = 0.075",
              "Figure 6 (Section 5.1)",
              {"time_s", "mode", "target_mpl", "realized_mpl",
               "batch_miss_ratio", "bottleneck_util", "curve"});
  Grid grid = PolicyGrid({0.075}, 3, {{"pmm"}});
  sweep.Run(&grid, [&](size_t x, size_t p) {
    return RunSpec{grid.Label(x, p, " @ "),
                   harness::BaselineConfig(grid.xs[x], grid.policies[p])};
  });
  const RunResult& run = grid.Result(0, 0);
  harness::TablePrinter table({"t(s)", "mode", "target MPL", "realized MPL",
                               "batch miss", "util", "curve"});
  for (const auto& p : run.pmm_trace) {
    table.AddRow({F(p.time, 0), ModeName(p.mode), std::to_string(p.target_mpl),
                  F(p.realized_mpl, 1), Pct(p.batch_miss_ratio),
                  Pct(p.bottleneck_utilization),
                  stats::CurveTypeName(p.curve)});
    sweep.csv.AddRow({F(p.time, 1), ModeName(p.mode),
                      std::to_string(p.target_mpl), F(p.realized_mpl, 2),
                      F(p.batch_miss_ratio, 4), F(p.bottleneck_utilization, 4),
                      stats::CurveTypeName(p.curve)});
  }
  table.Print();
  std::printf("\noverall: %lld queries, miss %.1f%%, avg MPL %.2f\n",
              static_cast<long long>(run.summary.overall.completions),
              run.summary.overall.miss_ratio * 100.0, run.summary.avg_mpl);
  sweep.json.AddConfig("adaptations", std::to_string(run.pmm_trace.size()));
  sweep.Write();
}

// Moderate disk contention (paper Section 5.2): the baseline workload on
// 6 disks instead of 10, comparing Max, MinMax, MinMax-10 and PMM.
// Regenerates Figures 8 (miss ratio), 9 (disk utilization), 10 (MPL).
// Our simulator has somewhat more effective disk capacity per query than
// the authors', so MinMax's thrashing crossover is shifted toward higher
// arrival rates than in the paper.
void DiskContention(const std::string& name) {
  Sweep sweep(name, "E7-E9: moderate disk contention (6 disks)",
              "Figures 8, 9, 10 (Section 5.2)",
              {"arrival_rate", "policy", "miss_ratio", "avg_disk_util",
               "avg_mpl", "avg_exec"});
  Grid grid = sweep.RunPolicies(
      {0.04, 0.05, 0.06, 0.07, 0.08}, 3,
      {{"max"}, {"minmax"}, {"minmax:10"}, {"pmm"}}, " @ ",
      harness::DiskContentionConfig);
  grid.ForEach([&](size_t x, size_t p, const SystemSummary& s) {
    sweep.csv.AddRow({grid.rows[x], grid.lanes[p], F(s.overall.miss_ratio, 4),
                      F(s.avg_disk_utilization, 4), F(s.avg_mpl, 3),
                      F(s.overall.avg_exec, 2)});
  });
  PrintPivot("Figure 8: miss ratio (disk contention)", "lambda", grid,
             MissCell);
  PrintPivot("\nFigure 9: average disk utilization", "lambda", grid,
             DiskUtilCell);
  PrintPivot("\nFigure 10: observed average MPL", "lambda", grid, MplCell);
  sweep.Write();
}

// MinMax-N sweep (paper Figure 11): miss ratio as a function of the MPL
// limit N at a fixed arrival rate on the 6-disk configuration. The paper
// reports a concave curve whose interior optimum motivates PMM's dynamic
// MPL selection; Max-like behaviour at small N, MinMax at large N.
void MinmaxN(const std::string& name) {
  Sweep sweep(name, "E10: MinMax-N sweep at lambda = 0.07 (6 disks)",
              "Figure 11 (Section 5.2)",
              {"N", "miss_ratio", "avg_mpl", "avg_wait", "avg_exec",
               "avg_disk_util"});
  const double rate = 0.07;
  sweep.json.AddConfig("lambda_fixed", F(rate, 3));
  // The default sweep: MinMax-N for the paper's N values, with
  // unlimited MinMax as the right edge of the spectrum.
  Policies defaults;
  for (int64_t n : {1, 2, 3, 4, 6, 8, 10, 14, 20}) {
    defaults.push_back({"minmax:" + std::to_string(n)});
  }
  defaults.push_back({"minmax"});
  Grid grid = PolicyGrid({rate}, 3, PoliciesOrDefault(defaults));
  sweep.Run(&grid, [&](size_t, size_t p) {
    return RunSpec{grid.lanes[p],
                   harness::DiskContentionConfig(rate, grid.policies[p])};
  });
  harness::TablePrinter table({"N", "miss ratio", "avg MPL", "wait(s)",
                               "exec(s)", "disk util"});
  grid.ForEach([&](size_t, size_t p, const SystemSummary& s) {
    // The N column comes from the spec: "minmax:5" -> 5, bare "minmax"
    // -> inf (-1 in the CSV); anything else (RTQ_POLICIES override) is
    // shown by its label.
    const std::string spec = grid.policies[p].ResolvedSpec();
    std::string n = grid.lanes[p];
    if (spec == "minmax") n = "inf";
    if (spec.rfind("minmax:", 0) == 0) n = spec.substr(7);
    table.AddRow({n, Pct(s.overall.miss_ratio), F(s.avg_mpl, 2),
                  F(s.overall.avg_wait, 1), F(s.overall.avg_exec, 1),
                  Pct(s.avg_disk_utilization)});
    sweep.csv.AddRow({spec == "minmax" ? "-1" : n, F(s.overall.miss_ratio, 4),
                      F(s.avg_mpl, 3), F(s.overall.avg_wait, 2),
                      F(s.overall.avg_exec, 2), F(s.avg_disk_utilization, 4)});
  });
  table.Print();
  sweep.Write();
}

// Workload changes (paper Section 5.3): the offered class alternates
// between Medium joins (memory-constrained: MinMax territory) and Small
// joins (disk-bound: Max territory) every 2-5 simulated hours on 6 disks.
// Regenerates Figures 12-14 (per-interval miss ratios under Max, MinMax,
// PMM) and Figure 15 (PMM's MPL trace across the alternation), and
// reports how many workload changes PMM's detector flagged. The
// alternation is the scenario engine's "mixshift" generator, a scripted
// per-class rate schedule, so each point is one plain run whose
// per-interval series are the default job's window summaries.
void WorkloadChanges(const std::string& name) {
  Sweep sweep(name, "E11-E12: alternating Small/Medium workload (6 disks)",
              "Figures 12, 13, 14, 15 (Section 5.3)",
              {"interval", "class", "policy", "miss_ratio", "completions"});
  const int intervals = 6;
  const double interval_s = harness::ExperimentDuration() / 2.5;
  const std::string scenario =
      "mixshift:interval=" + FormatDouble(interval_s) +
      ",intervals=" + std::to_string(intervals);
  sweep.json.AddConfig("intervals", std::to_string(intervals));
  sweep.json.AddConfig("interval_hours", F(interval_s / 3600.0, 2));
  sweep.json.AddConfig("scenario", scenario);
  // One row: lambda records the Medium-class rate; the alternation
  // schedule lives under "config".
  Grid grid =
      PolicyGrid({0.07}, 2, PoliciesOrDefault({{"max"}, {"minmax"}, {"pmm"}}));
  sweep.Run(&grid, [&](size_t, size_t p) {
    RunSpec spec{grid.lanes[p],
                 harness::ScenarioConfig(scenario, grid.policies[p]),
                 intervals * interval_s};
    spec.window = interval_s;
    return spec;
  });
  auto class_name = [](int i) { return i % 2 == 0 ? "Medium" : "Small"; };
  for (const RunResult& r : grid.results) {
    for (int i = 0; i < intervals; ++i) {
      sweep.csv.AddRow({std::to_string(i), class_name(i), r.label,
                        F(r.windows[i].miss_ratio, 4),
                        std::to_string(r.windows[i].completions)});
    }
  }
  std::vector<std::string> columns =
      harness::PolicyColumns("interval", grid.policies);
  columns.insert(columns.begin() + 1, "class");
  harness::TablePrinter table(columns);
  for (int i = 0; i < intervals; ++i) {
    std::vector<std::string> row{std::to_string(i + 1), class_name(i)};
    for (const RunResult& r : grid.results) {
      row.push_back(Pct(r.windows[i].miss_ratio));
    }
    table.AddRow(row);
  }
  std::printf("Figures 12-14: per-interval miss ratios\n");
  table.Print();
  const int pmm = grid.LaneOf("pmm");
  if (pmm >= 0) {
    std::printf("\nFigure 15: PMM adaptation across workload changes\n");
    harness::TablePrinter trace({"t(s)", "mode", "target MPL",
                                 "workload change?"});
    int64_t changes = 0;
    for (const auto& pt : grid.Result(0, pmm).pmm_trace) {
      changes += pt.workload_change;
      trace.AddRow({F(pt.time, 0), ModeName(pt.mode),
                    std::to_string(pt.target_mpl),
                    pt.workload_change ? "YES" : ""});
    }
    trace.Print();
    std::printf("\nPMM detected %lld workload changes over %d alternations\n",
                static_cast<long long>(changes), intervals - 1);
  }
  sweep.Write();
}

// UtilLow sensitivity (paper Section 5.4): PMM run with UtilLow varied
// from 0.50 to 0.80 on the baseline workload. The paper reports
// "approximately the same performance for the different UtilLow values"
// because the desirable-utilization band only matters during startup.
void UtilSensitivity(const std::string& name) {
  Sweep sweep(name, "E13: PMM sensitivity to UtilLow",
              "Section 5.4 (prose experiment)",
              {"util_low", "miss_ratio", "avg_mpl", "avg_disk_util"});
  const double rate = 0.065;
  sweep.json.AddConfig("lambda_fixed", F(rate, 3));
  // Rows are UtilLow values, all at the fixed arrival rate.
  const std::vector<double> util_lows = {0.50, 0.60, 0.70, 0.80};
  Grid grid = NumericGrid(util_lows, 2, {"PMM"});
  grid.xs.assign(util_lows.size(), rate);
  sweep.Run(&grid, [&](size_t x, size_t) {
    SystemConfig config = harness::BaselineConfig(rate, {"pmm"});
    config.pmm.util_low = util_lows[x];
    if (config.pmm.util_high <= util_lows[x]) {
      config.pmm.util_high = util_lows[x] + 0.05;
    }
    return RunSpec{"UtilLow=" + grid.rows[x], config};
  });
  harness::TablePrinter table({"UtilLow", "miss ratio", "avg MPL",
                               "disk util"});
  grid.ForEach([&](size_t x, size_t, const SystemSummary& s) {
    table.AddRow({grid.rows[x], Pct(s.overall.miss_ratio), F(s.avg_mpl, 2),
                  Pct(s.avg_disk_utilization)});
    sweep.csv.AddRow({grid.rows[x], F(s.overall.miss_ratio, 4), F(s.avg_mpl, 3),
                      F(s.avg_disk_utilization, 4)});
  });
  table.Print();
  sweep.Write();
}

// External-sort workload (paper Section 5.5): the baseline resources with
// a single class of external sorts (||R|| in [600, 1800] pages). Memory
// is even more critical than in the join baseline — each sort demands its
// whole relation but puts a light load on CPU and disks — so Max degrades
// harder and the liberal policies shine. Regenerates Figure 16.
void ExternalSort(const std::string& name) {
  Sweep sweep(name, "E14: external-sort workload", "Figure 16 (Section 5.5)",
              {"arrival_rate", "policy", "miss_ratio", "avg_mpl",
               "avg_disk_util"});
  Grid grid = sweep.RunPolicies({0.04, 0.06, 0.08, 0.10, 0.12}, 3,
                                harness::BaselinePolicies(), " @ ",
                                harness::ExternalSortConfig);
  grid.ForEach([&](size_t x, size_t p, const SystemSummary& s) {
    sweep.csv.AddRow({grid.rows[x], grid.lanes[p], F(s.overall.miss_ratio, 4),
                      F(s.avg_mpl, 3), F(s.avg_disk_utilization, 4)});
  });
  PrintPivot("Figure 16: miss ratio, external sorts", "lambda", grid, MissCell);
  sweep.Write();
}

// Multiclass workload (paper Section 5.6): Medium joins at a fixed 0.065
// q/s plus Small joins whose rate sweeps from 0 to 1.2 q/s, on 12 disks.
// Regenerates Figure 17 (system miss ratio: Max, MinMax, PMM) and
// Figure 18 (PMM's per-class miss ratios — the bias the paper observes:
// as the Small class dominates, PMM drifts toward Max mode and the
// Medium class suffers disproportionately).
void Multiclass(const std::string& name) {
  Sweep sweep(name, "E15-E16: multiclass workload (12 disks)",
              "Figures 17, 18 (Section 5.6)",
              {"small_rate", "policy", "system_miss", "medium_miss",
               "small_miss"});
  sweep.json.AddConfig("medium_rate_fixed", F(0.065, 3));
  Grid grid = sweep.RunPolicies({0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2}, 2,
                                {{"max"}, {"minmax"}, {"pmm"}}, " @ small ",
                                harness::MulticlassConfig);
  grid.ForEach([&](size_t x, size_t p, const SystemSummary& s) {
    sweep.csv.AddRow({grid.rows[x], grid.lanes[p], F(s.overall.miss_ratio, 4),
                      F(ClassMiss(s, 0), 4), F(ClassMiss(s, 1), 4)});
  });
  PrintPivot("Figure 17: system miss ratio", "small rate", grid, MissCell);
  const int pmm = grid.LaneOf("pmm");
  if (pmm >= 0) {
    harness::TablePrinter fig18({"small rate", "PMM Medium", "PMM Small",
                                 "PMM system"});
    for (size_t x = 0; x < grid.rows.size(); ++x) {
      const SystemSummary& s = grid.At(x, pmm);
      fig18.AddRow({grid.rows[x], Pct(ClassMiss(s, 0)),
                    grid.xs[x] > 0.0 ? Pct(ClassMiss(s, 1)) : "-",
                    Pct(s.overall.miss_ratio)});
    }
    std::printf("\nFigure 18: PMM per-class miss ratios\n");
    fig18.Print();
  }
  sweep.Write();
}

// Scalability check (paper Section 5.7): the disk-contention experiment
// with memory and relation sizes scaled up 10x and arrival rates scaled
// down 10x. The paper argues (and verified with small/medium pairs) that
// the qualitative algorithm behaviour is unchanged; we compare the policy
// ordering at scale 1 vs scale 10.
void Scalability(const std::string& name) {
  Sweep sweep(name, "E17: scale-up check (sizes x10, rate /10)",
              "Section 5.7 (prose experiment)",
              {"scale", "policy", "miss_ratio", "avg_mpl", "avg_disk_util",
               "completions"});
  const double rate = 0.07;
  sweep.json.AddConfig("base_rate", F(rate, 3));
  // Rows are scales; lambda records the effective (scaled-down) rate.
  const std::vector<double> scales = {1.0, 10.0};
  Grid grid =
      PolicyGrid(scales, 0, PoliciesOrDefault({{"max"}, {"minmax"}, {"pmm"}}));
  for (double& x : grid.xs) x = rate / x;
  sweep.Run(&grid, [&](size_t x, size_t p) {
    // The scaled system completes 10x fewer queries per hour; run it
    // longer so the row has a usable sample, but cap the multiplier —
    // each scaled query also costs ~10x the simulation events, so a
    // full 10x duration would take a couple of orders of magnitude
    // more wall time than every other experiment combined.
    return RunSpec{grid.Label(x, p, " @ scale "),
                   harness::ScaledConfig(rate, grid.policies[p], scales[x]),
                   harness::ExperimentDuration() * std::min(scales[x], 3.0)};
  });
  harness::TablePrinter table({"scale", "policy", "miss ratio", "avg MPL",
                               "disk util", "queries"});
  grid.ForEach([&](size_t x, size_t p, const SystemSummary& s) {
    const std::string queries = std::to_string(s.overall.completions);
    table.AddRow({grid.rows[x], grid.lanes[p], Pct(s.overall.miss_ratio),
                  F(s.avg_mpl, 2), Pct(s.avg_disk_utilization), queries});
    sweep.csv.AddRow({grid.rows[x], grid.lanes[p], F(s.overall.miss_ratio, 4),
                      F(s.avg_mpl, 3), F(s.avg_disk_utilization, 4), queries});
  });
  table.Print();
  sweep.Write();
}

// Ablation A1: Max admission with and without bypass. The paper's Max
// "admits as many queries at their maximum allocations as memory
// permits" — i.e., a blocked large query does not stop smaller,
// later-deadline queries from being admitted around it (bypass). The
// strict-ED alternative cannot starve an urgent large query but realizes
// a lower MPL. This ablation quantifies the difference on the baseline.
void AblationAdmission(const std::string& name) {
  Sweep sweep(name, "A1 ablation: Max admission bypass vs strict ED",
              "design-choice ablation",
              {"arrival_rate", "variant", "miss_ratio", "avg_mpl", "avg_wait"});
  const char* const specs[] = {"max", "max:strict"};
  Grid grid =
      NumericGrid({0.05, 0.07}, 3, {"Max (bypass)", "Max (strict ED)"});
  sweep.Run(&grid, [&](size_t x, size_t v) {
    return RunSpec{grid.Label(x, v, " @ "),
                   harness::BaselineConfig(grid.xs[x], {specs[v]})};
  });
  harness::TablePrinter table({"lambda", "variant", "miss ratio", "avg MPL",
                               "wait(s)"});
  grid.ForEach([&](size_t x, size_t v, const SystemSummary& s) {
    table.AddRow({grid.rows[x], grid.lanes[v], Pct(s.overall.miss_ratio),
                  F(s.avg_mpl, 2), F(s.overall.avg_wait, 1)});
    sweep.csv.AddRow({grid.rows[x], grid.lanes[v], F(s.overall.miss_ratio, 4),
                      F(s.avg_mpl, 3), F(s.overall.avg_wait, 2)});
  });
  table.Print();
  sweep.Write();
}

// Ablation A2: PMM with pieces disabled, to quantify how much each
// mechanism contributes on the baseline at a heavy load.
//
//   full        — miss-ratio projection + RU heuristic (the paper's PMM)
//   no-proj     — RU heuristic only (Section 3.1.2 alone)
//   no-ru       — projection only; keeps the current MPL when the
//                 projection fails
//   realized-x  — the projection fits against the batch's realized MPL
//                 instead of the target setting
void AblationPmm(const std::string& name) {
  Sweep sweep(name, "A2 ablation: PMM internal mechanisms",
              "design-choice ablation",
              {"arrival_rate", "variant", "miss_ratio", "avg_mpl",
               "adaptations"});
  Grid grid = NumericGrid({0.06, 0.075}, 3,
                          {"full", "no-proj", "no-ru", "realized-x"});
  sweep.Run(&grid, [&](size_t x, size_t v) {
    SystemConfig config = harness::BaselineConfig(grid.xs[x], {"pmm"});
    config.pmm.disable_projection = v == 1;
    config.pmm.disable_ru_heuristic = v == 2;
    config.pmm.fit_realized_mpl = v == 3;
    return RunSpec{grid.Label(x, v, " @ "), config};
  });
  harness::TablePrinter table({"lambda", "variant", "miss ratio", "avg MPL",
                               "adaptations"});
  grid.ForEach([&](size_t x, size_t v, const SystemSummary& s) {
    const std::string adaptations =
        std::to_string(grid.Result(x, v).pmm_trace.size());
    table.AddRow({grid.rows[x], grid.lanes[v], Pct(s.overall.miss_ratio),
                  F(s.avg_mpl, 2), adaptations});
    sweep.csv.AddRow({grid.rows[x], grid.lanes[v], F(s.overall.miss_ratio, 4),
                      F(s.avg_mpl, 3), adaptations});
  });
  table.Print();
  sweep.Write();
}

// Extension A3: PMM-Fair (the paper's Section 5.6 future work). On the
// multiclass workload plain PMM minimizes the system miss ratio by
// letting the dominant Small class pull it into Max mode, starving the
// Medium class (Figure 18's bias). PMM-Fair accepts administrator weights
// for the desired relative class miss ratios; with equal weights it
// should trade a little system-level performance for a much smaller gap
// between the two classes' miss ratios.
void PmmFair(const std::string& name) {
  Sweep sweep(name, "A3 extension: PMM-Fair class-fairness",
              "Section 5.6 future work, realized",
              {"small_rate", "policy", "system_miss", "medium_miss",
               "small_miss", "gap"});
  // "pmm-fair:w=1,1" asks for equal miss ratios across the two classes.
  Grid grid = sweep.RunPolicies({0.4, 0.8, 1.2}, 2,
                                {{"pmm"}, {"pmm-fair:w=1,1"}}, " @ small ",
                                harness::MulticlassConfig);
  harness::TablePrinter table({"small rate", "policy", "system", "Medium",
                               "Small", "|gap|"});
  grid.ForEach([&](size_t x, size_t p, const SystemSummary& s) {
    const double medium = ClassMiss(s, 0);
    const double small = ClassMiss(s, 1);
    const double gap = std::fabs(medium - small);
    table.AddRow({grid.rows[x], grid.lanes[p], Pct(s.overall.miss_ratio),
                  Pct(medium), Pct(small), Pct(gap)});
    sweep.csv.AddRow({grid.rows[x], grid.lanes[p], F(s.overall.miss_ratio, 4),
                      F(medium, 4), F(small, 4), F(gap, 4)});
  });
  table.Print();
  sweep.Write();
}

// Headroom study: how much missed-deadline ratio is left on the table
// between the adaptive policies and the clairvoyant "oracle-ed" bound?
// Sweeps the admission suite (pmm, pmm-predict, pmm-class, edf-shed,
// pmm-tick) plus the oracle across two Section 5 grids: "base", the
// Section 5.1 baseline over Figure 3's arrival rates, and "mc", the
// Section 5.6 multiclass workload over Figure 17's Small-class rates
// (all > 0, so both classes exist and the per-class policies have two
// classes to arbitrate).
//
// Per point the trajectory records "gap_to_oracle": the miss ratio minus
// oracle-ed's at the same workload point. The gap is SIGNED: oracle-ed
// is clairvoyant about information (it reads the exact cost-model
// estimate deadline assignment used, progress-credited via
// core::RemainingEstimate so finished work is never re-charged) but
// crude in discipline (all-or-nothing Max grants in deadline order — no
// graceful degradation through the min/max range), so a positive gap is
// headroom an adaptive policy could still close while a negative gap
// means the policy already beats the clairvoyant filter. RTQ_POLICIES
// overrides the policy list of BOTH grids (pick specs valid for one and
// two classes, e.g. "pmm,edf-shed"); the gap needs "oracle-ed" in the
// sweep and is omitted without it.
void Headroom(const std::string& name) {
  Sweep sweep(name, "E17: headroom vs the clairvoyant oracle",
              "Sections 5.1 + 5.6 grids; extends Figures 3 and 17",
              {"grid", "rate", "policy", "miss_ratio", "oracle_miss_ratio",
               "gap_to_oracle"});
  sweep.json.AddConfig("grid_base", "Section 5.1 baseline, lambda sweep");
  sweep.json.AddConfig("grid_mc",
                       "Section 5.6 multiclass, Small-class rate sweep");
  auto run = [&](const std::string& key, std::vector<double> rates,
                 Policies policies, Factory factory) {
    Grid grid = sweep.RunPolicies(std::move(rates), 3, std::move(policies),
                                  " @ " + key + " ", factory);
    harness::TablePrinter gaps(
        harness::PolicyColumns(key + " rate (gap, pp)", grid.policies));
    for (size_t x = 0; x < grid.rows.size(); ++x) {
      const double oracle_miss = grid.OracleMiss(x);
      std::vector<std::string> row{grid.rows[x]};
      for (size_t p = 0; p < grid.lanes.size(); ++p) {
        const double miss = grid.At(x, p).overall.miss_ratio;
        const double gap = miss - oracle_miss;
        row.push_back(std::isfinite(gap) ? F(gap * 100.0, 1) : "-");
        sweep.csv.AddRow({key, grid.rows[x], grid.lanes[p], F(miss, 4),
                          CsvNumber(oracle_miss), CsvNumber(gap)});
      }
      gaps.AddRow(row);
    }
    PrintPivot(key + " grid: miss ratio per policy", key + " rate", grid,
               MissCell);
    std::printf("\n%s grid: signed headroom vs oracle-ed (percentage "
                "points; negative = beats the clairvoyant filter)\n",
                key.c_str());
    gaps.Print();
    std::printf("\n");
  };
  run("base", {0.04, 0.05, 0.06, 0.07, 0.08},
      {{"pmm"},
       {"pmm-predict"},
       {"edf-shed"},
       {"pmm-tick:ms=60000"},
       {"oracle-ed"}},
      harness::BaselineConfig);
  run("mc", {0.2, 0.6, 1.0, 1.2},
      {{"pmm"},
       {"pmm-predict"},
       {"pmm-class:targets=6,10"},
       {"edf-shed"},
       {"pmm-tick:ms=60000"},
       {"oracle-ed"}},
      harness::MulticlassConfig);
  sweep.Write();
}

// Scenario sweep: the policy registry against the adversarial arrival
// shapes the scenario engine generates (none of which the paper's
// stationary Poisson grids cover): diurnal load, a flash crowd,
// Pareto-tailed operand sizes, Markov-modulated bursts, and the
// Section 5.3 class alternation as a scripted mix shift. Every shape's
// time parameters scale with ExperimentDuration() so its features land
// inside the horizon at any RTQ_SIM_HOURS; the tick cadence scales the
// same way so the time-driven policies (pmm-predict, select) get a full
// forecasting window even at smoke durations. Per point the JSON also
// records gap_to_oracle, as in the headroom study. Also renders the
// diurnal scenario to results/sample_diurnal.rtqt — the replayable
// `.rtqt` form of the exact arrival stream the diurnal runs saw.
void Scenarios(const std::string& name) {
  Sweep sweep(name, "E16: policy registry vs adversarial arrival scenarios",
              "scenario engine (beyond the paper's stationary grids)",
              {"scenario", "policy", "miss_ratio", "completions", "avg_mpl",
               "disk_util", "gap_to_oracle"});
  const double d = harness::ExperimentDuration();
  const Policies policies =
      PoliciesOrDefault({{"pmm"},
                         {"pmm-predict"},
                         {"select:candidates=pmm+pmm-predict"},
                         {"max"},
                         {"pmm-tick"},
                         {"pmm-class"},
                         {"edf-shed"},
                         {"oracle-ed"}});
  // Rows are the shapes, each at its dominant arrival rate.
  Grid grid = PolicyGrid({0.07, 0.5, 0.07, 0.1, 0.07}, 0, policies);
  grid.rows = {"diurnal", "flash", "pareto", "burst", "mixshift"};
  const std::string specs[] = {
      "diurnal:period=" + FormatDouble(d / 1.5),
      "flash:at=" + FormatDouble(d / 3.0) + ",dur=" + FormatDouble(d / 12.0) +
          ",decay=" + FormatDouble(d / 24.0),
      "pareto",
      "burst:tlo=" + FormatDouble(d / 12.0) + ",thi=" + FormatDouble(d / 36.0),
      "mixshift:interval=" + FormatDouble(d / 6.0),
  };
  sweep.Run(&grid, [&](size_t x, size_t p) {
    SystemConfig config = harness::ScenarioConfig(specs[x], grid.policies[p]);
    config.mpl_sample_interval = std::min(60.0, d / 60.0);  // 60 s at 1 h+
    return RunSpec{grid.rows[x] + "|" + grid.lanes[p], config};
  });
  sweep.json.AddConfig("scenarios", std::to_string(grid.rows.size()));
  grid.ForEach([&](size_t x, size_t p, const SystemSummary& s) {
    sweep.csv.AddRow({grid.rows[x], grid.lanes[p], F(s.overall.miss_ratio, 4),
                      std::to_string(s.overall.completions), F(s.avg_mpl, 2),
                      F(s.avg_disk_utilization, 3),
                      CsvNumber(s.overall.miss_ratio - grid.OracleMiss(x))});
  });
  PrintPivot("Miss ratio by scenario shape", "scenario", grid, MissCell);
  // Replaying the sample trace (config.trace) reproduces the diurnal
  // rows above bit-identically — the gate tests/test_scenario.cc pins.
  auto trace = engine::RenderScenarioTrace(
      harness::ScenarioConfig(specs[0], grid.policies[0]), d);
  RTQ_CHECK_MSG(trace.ok(), trace.status().ToString().c_str());
  const std::string path = "results/sample_diurnal.rtqt";
  if (Ok(workload::WriteTraceFile(trace.value(), path))) {
    std::printf("\nsample trace written to %s (%zu arrivals)\n", path.c_str(),
                trace.value().records.size());
  }
  sweep.Write();
}

// Scale-out study (Section 5 extended): the baseline workload declustered
// across a sharded cluster. Sweeps shard count x arrival rate x placement
// skew x policy, plus a global-admission lane, and reports aggregate and
// per-shard miss ratios — the question being how much an overloaded
// single system gains from declustering, and how placement skew erodes
// that gain (the hot shard stays overloaded while cold shards idle).
void Shards(const std::string& name) {
  Sweep sweep(name, "E18: scale-out across shards (declustered baseline)",
              "Section 5 extension (sharded cluster)",
              {"rate", "placement", "admission", "shards", "policy",
               "miss_ratio", "shard0_miss_ratio", "worst_shard_miss_ratio",
               "avg_mpl", "completions"});
  const std::vector<double> rates = {0.12, 0.24};
  sweep.json.AddConfig("rates", F(rates.front(), 2) + "-" + F(rates.back(), 2));
  sweep.json.AddConfig("global_mpl", "12");
  harness::TablePrinter table({"rate", "placement", "admission", "shards",
                               "policy", "miss ratio", "shard0 miss",
                               "worst shard", "MPL", "queries"});
  // Runs `grid`, whose row x is cluster shape shapes[x] at rate xs[x] and
  // whose lanes are policies, and reports every point.
  auto run = [&](Grid grid, const std::vector<engine::ShardConfig>& shapes) {
    sweep.Run(&grid, [&](size_t x, size_t p) {
      const engine::ShardConfig& sc = shapes[x];
      RunSpec spec{"s" + std::to_string(sc.num_shards) + " " + sc.placement +
                       " " + sc.admission + " " + grid.Label(x, p, " @ "),
                   harness::BaselineConfig(grid.xs[x], grid.policies[p])};
      spec.shards = sc;
      return spec;
    });
    grid.ForEach([&](size_t x, size_t p, const SystemSummary& s) {
      const RunResult& r = grid.Result(x, p);
      const engine::ShardConfig& sc = shapes[x];
      double worst = 0.0;
      for (const SystemSummary& shard : r.shard_summaries) {
        worst = std::max(worst, shard.overall.miss_ratio);
      }
      const double shard0 = r.shard_summaries.front().overall.miss_ratio;
      const std::string n = std::to_string(sc.num_shards);
      const std::string completions = std::to_string(s.overall.completions);
      table.AddRow({grid.rows[x], sc.placement, sc.admission, n, grid.lanes[p],
                    Pct(s.overall.miss_ratio), Pct(shard0), Pct(worst),
                    F(s.avg_mpl, 2), completions});
      sweep.csv.AddRow({grid.rows[x], sc.placement, sc.admission, n,
                        grid.lanes[p], F(s.overall.miss_ratio, 4), F(shard0, 4),
                        F(worst, 4), F(s.avg_mpl, 3), completions});
      if (r.coordinator_refusals > 0 || r.coordinator_high_water > 0) {
        std::printf("%s: coordinator high-water %lld, refusals %lld\n",
                    r.label.c_str(),
                    static_cast<long long>(r.coordinator_high_water),
                    static_cast<long long>(r.coordinator_refusals));
      }
    });
  };
  // hash is the no-skew reference; the skew lanes pin 60% / 80% of the
  // arrival stream to shard 0.
  std::vector<double> xs;
  std::vector<engine::ShardConfig> shapes;
  for (double rate : rates) {
    for (const char* placement : {"hash", "skew:hot=0.60", "skew:hot=0.80"}) {
      for (int32_t shards : {1, 2, 4, 8}) {
        xs.push_back(rate);
        shapes.push_back({shards, placement, "local"});
      }
    }
  }
  run(PolicyGrid(xs, 2, PoliciesOrDefault({{"max"}, {"minmax"}, {"pmm"}})),
      shapes);
  // Global-admission lane: Max admits greedily per shard; a cluster-wide
  // MPL cap is the only cross-shard brake. Compare against the hash/local
  // rows above at the same rate.
  run(PolicyGrid({0.24, 0.24, 0.24}, 2, {{"max"}}),
      {{2, "hash", "global:mpl=12"},
       {4, "hash", "global:mpl=12"},
       {8, "hash", "global:mpl=12"}});
  table.Print();
  sweep.Write();
}

/// Every experiment, in the paper's section order.
constexpr struct Experiment {
  const char* name;
  void (*run)(const std::string& name);
} kExperiments[] = {
    {"baseline", Baseline},
    {"pmm_trace", PmmTrace},
    {"disk_contention", DiskContention},
    {"minmax_n", MinmaxN},
    {"workload_changes", WorkloadChanges},
    {"util_sensitivity", UtilSensitivity},
    {"external_sort", ExternalSort},
    {"multiclass", Multiclass},
    {"scalability", Scalability},
    {"ablation_admission", AblationAdmission},
    {"ablation_pmm", AblationPmm},
    {"pmm_fair", PmmFair},
    {"headroom", Headroom},
    {"scenarios", Scenarios},
    {"shards", Shards},
};

int Main(int argc, char** argv) {
  // Resolve every name before running any, so a typo late in the list
  // does not surface after minutes of simulation.
  std::vector<const Experiment*> chosen;
  for (int i = 1; i < argc; ++i) {
    for (const Experiment& e : kExperiments) {
      if (argv[i] == std::string(e.name)) chosen.push_back(&e);
    }
    if (chosen.size() != static_cast<size_t>(i)) {
      std::fprintf(stderr, "unknown experiment: %s\n", argv[i]);
      chosen.clear();
      break;
    }
  }
  if (chosen.empty()) {
    std::fprintf(stderr, "usage: rtq_bench <experiment>...\nexperiments:\n");
    for (const auto& e : kExperiments) std::fprintf(stderr, "  %s\n", e.name);
    return 2;
  }
  for (const Experiment* e : chosen) e->run(e->name);
  return 0;
}

}  // namespace
}  // namespace rtq::bench

int main(int argc, char** argv) { return rtq::bench::Main(argc, argv); }
