#!/usr/bin/env python3
"""Compare BENCH_*.json trajectories against baseline trajectories.

Closes the perf-tracking loop from ROADMAP.md: given baseline
trajectories checked in under results/ and freshly produced ones, this
checks that every deterministic per-point field is unchanged and that the
headline events/sec figure has not regressed beyond its threshold, and
exits non-zero otherwise.

    bench/compare_bench_json.py CURRENT BASELINE [--report]

CURRENT and BASELINE are either two BENCH_*.json files or two
directories; with directories, files are paired by name and every pair
is compared. The gate fails when:

* the two sides hold different BENCH_*.json file names (directory mode)
  or a paired document names a different driver;
* the two documents' point labels differ, in content or in order;
* any field of a matched point differs, except "wall_seconds" — this
  includes a field present on one side only (e.g. "gap_to_oracle").
  With identical simulated duration and seeds the simulator is
  deterministic and machine-independent, so equality is exact: there is
  no tolerance to tune;
* current totals.events_per_second falls more than
  MAX_EVENTS_REGRESSION (90%) below the baseline's. Improvements never
  fail.

--report prints one old-vs-new wall-seconds / events-per-sec row per
driver instead of the per-point OK lines (failures always print).

CI's bench-smoke job gates the RTQ_SIM_HOURS=0.1 sweep against
results/smoke/ with it.
"""

import argparse
import json
import os
import sys

# Wall clock varies run to run; every other point field is deterministic.
ADVISORY_FIELDS = {"wall_seconds"}

# The largest tolerated events/sec drop, as a fraction of the baseline's.
# References are recorded on one host and compared on another, and wall
# clock varies across hosts, so this only catches catastrophic slowdowns;
# a performance change is measured with rtqbench's alternating A/B pairs
# (rtqbench/README.md).
MAX_EVENTS_REGRESSION = 0.90


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    for key in ("driver", "points", "totals"):
        if key not in doc:
            sys.exit(f"error: {path}: not a BENCH_*.json document "
                     f"(missing '{key}')")
    return doc


def field_diffs(point, base):
    """'field: current vs baseline' for each differing deterministic
    field of one matched point."""
    return [f"{key}: {point.get(key, '<absent>')} vs "
            f"{base.get(key, '<absent>')}"
            for key in sorted((set(point) | set(base)) - ADVISORY_FIELDS)
            if point.get(key, "<absent>") != base.get(key, "<absent>")]


def compare_pair(current, baseline, args, failures):
    """Compares one (current, baseline) document pair.

    Appends failure strings to `failures` and returns the report-table
    row for the pair.
    """
    driver = current["driver"]
    if driver != baseline["driver"]:
        failures.append(f"driver mismatch: {driver} vs "
                        f"{baseline['driver']}")

    # --- headline throughput ----------------------------------------------
    cur_eps = current["totals"].get("events_per_second", 0.0)
    base_eps = baseline["totals"].get("events_per_second", 0.0)
    eps_delta = None
    if base_eps > 0:
        eps_delta = (cur_eps - base_eps) / base_eps
        marker = "OK"
        if eps_delta < -MAX_EVENTS_REGRESSION:
            marker = "FAIL"
            failures.append(
                f"[{driver}] events/sec regressed {-eps_delta:.1%} "
                f"(limit {MAX_EVENTS_REGRESSION:.0%}): "
                f"{cur_eps:,.0f} vs baseline {base_eps:,.0f}")
        if not args.report:
            print(f"[{marker:4}] events/sec: {cur_eps:,.0f} vs "
                  f"{base_eps:,.0f} ({eps_delta:+.1%})")

    # --- point labels -------------------------------------------------------
    cur_labels = [p["label"] for p in current["points"]]
    base_labels = [p["label"] for p in baseline["points"]]
    if cur_labels != base_labels:
        new = sorted(set(cur_labels) - set(base_labels))
        missing = sorted(set(base_labels) - set(cur_labels))
        failures.append(f"[{driver}] point labels differ: new {new}, "
                        f"missing {missing}"
                        + ("" if new or missing else " (reordered)"))

    # --- every deterministic field of every matched point ------------------
    base_points = {p["label"]: p for p in baseline["points"]}
    matched = drifted = 0
    for point in current["points"]:
        base = base_points.get(point["label"])
        if base is None:
            continue
        matched += 1
        diffs = "; ".join(field_diffs(point, base))
        if diffs:
            drifted += 1
            failures.append(f"[{driver}] '{point['label']}' changed: {diffs}")
        elif not args.report:
            print(f"[OK  ] {point['label']}: all fields equal")
    if matched == 0:
        failures.append(f"[{driver}] no points matched between the two "
                        "files")

    return {
        "driver": driver,
        "cur_wall": current["totals"].get("wall_seconds", 0.0),
        "base_wall": baseline["totals"].get("wall_seconds", 0.0),
        "cur_eps": cur_eps,
        "base_eps": base_eps,
        "eps_delta": eps_delta,
        "matched": matched,
        "drifted": drifted,
    }


def print_report(rows):
    """The old-vs-new wall-seconds / events-per-sec table per driver."""
    headers = ("driver", "wall_s", "wall_s(base)", "events/s",
               "events/s(base)", "delta", "points", "drifted")
    table = [headers]
    for r in rows:
        delta = "n/a" if r["eps_delta"] is None else f"{r['eps_delta']:+.1%}"
        table.append((r["driver"], f"{r['cur_wall']:.1f}",
                      f"{r['base_wall']:.1f}", f"{r['cur_eps']:,.0f}",
                      f"{r['base_eps']:,.0f}", delta, str(r["matched"]),
                      str(r["drifted"])))
    widths = [max(len(row[c]) for row in table) for c in range(len(headers))]
    print()
    for i, row in enumerate(table):
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            print("  ".join("-" * w for w in widths))


def collect_pairs(current, baseline, failures):
    """Returns (current_doc, baseline_doc) pairs from files or directories."""
    if os.path.isdir(current) != os.path.isdir(baseline):
        sys.exit("error: CURRENT and BASELINE must both be files or both "
                 "be directories")
    if not os.path.isdir(current):
        return [(load(current), load(baseline))]
    def bench_files(d):
        return {name for name in os.listdir(d)
                if name.startswith("BENCH_") and name.endswith(".json")}
    cur_files = bench_files(current)
    base_files = bench_files(baseline)
    common = sorted(cur_files & base_files)
    if not common:
        sys.exit(f"error: no BENCH_*.json names in common between "
                 f"{current} and {baseline}")
    if cur_files != base_files:
        failures.append(f"driver sets differ: new "
                        f"{sorted(cur_files - base_files)}, missing "
                        f"{sorted(base_files - cur_files)}")
    return [(load(os.path.join(current, name)),
             load(os.path.join(baseline, name))) for name in common]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("current", help="fresh BENCH_*.json file or directory")
    parser.add_argument("baseline",
                        help="reference BENCH_*.json file or directory")
    parser.add_argument("--report", action="store_true",
                        help="print a per-driver old-vs-new summary table "
                             "instead of per-point OK lines")
    args = parser.parse_args()

    failures = []
    rows = [compare_pair(cur, base, args, failures)
            for cur, base in collect_pairs(args.current, args.baseline,
                                           failures)]
    if args.report:
        print_report(rows)

    matched = sum(r["matched"] for r in rows)
    print(f"\n{len(rows)} driver(s), {matched} matched point(s), "
          f"{len(failures)} failure(s)")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
