#!/usr/bin/env python3
"""A/B comparison of rtqbench results: parent (A) against change (B).

    python3 rtqbench/compare.py A_DIR B_DIR

Each directory holds result files that run.py wrote (copy them out of
.bench_out/results/ after each side's runs). Results are grouped by
workload, trace mode and --scale. Two sides are comparable only when
their build fingerprints agree on everything but the source identity
(git_sha, source_sha256); otherwise the group is reported as not
comparable and nothing in it is compared.

For each metric the table gives each side's median and quartiles, the
change of B's median against A's, and a verdict:

  regressed   B's median is worse than A's by more than the metric's bound
  improved    B wins at least 9 of every 10 pairs (files paired in run
              order) and the medians differ by more than A's own spread
  unresolved  A's own spread (quartile distance / median) exceeds the
              bound, unless every B run beats every A run
  same        none of the above

Per-layer metrics have no bound; they get only "improved" or "same".
Exits 1 when any group is not comparable, holds a failed run, or regressed.
"""

import json
import statistics
import sys
from pathlib import Path

SOURCE_KEYS = ("git_sha", "source_sha256")


def load(directory):
    groups = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        key = (rec["workload"], rec["trace"], rec["scale"])
        groups.setdefault(key, []).append(rec)
    return groups


def comparable_fp(rec):
    return {k: v for k, v in rec["build"].items() if k not in SOURCE_KEYS}


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def verdict(a, b, better, bound):
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = (med_a - med_b) if better == "higher" else (med_b - med_a)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if (y > x if better == "higher" else y < x))
    all_better = (min(b) > max(a)) if better == "higher" else (max(b) < min(a))
    if bound is not None and spread(a) > bound and not all_better:
        return "unresolved"
    if bound is not None and worse > bound * abs(med_a):
        return "regressed"
    q = statistics.quantiles(a, n=4) if len(a) >= 2 else [med_a, med_a, med_a]
    if pairs and wins >= 0.9 * len(pairs) and -worse > q[2] - q[0]:
        return "improved"
    return "same"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent /
                       "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    side_a, side_b = load(sys.argv[1]), load(sys.argv[2])
    bad = False
    for key in sorted(set(side_a) & set(side_b)):
        a_recs, b_recs = side_a[key], side_b[key]
        workload, trace, scale = key
        fps = {json.dumps(comparable_fp(r), sort_keys=True)
               for r in a_recs + b_recs}
        print(f"== {workload} trace={trace} scale={scale}: {len(a_recs)} A "
              f"runs, {len(b_recs)} B runs")
        if len(fps) != 1:
            print("   NOT COMPARABLE: build fingerprints differ:")
            for fp in sorted(fps):
                print(f"     {fp}")
            bad = True
            continue
        sources = [{r["build"]["source_sha256"] for r in recs}
                   for recs in (a_recs, b_recs)]
        if sources[0] & sources[1]:
            print("   note: some A and B runs were built from the same sources")
        failed = [r for r in a_recs + b_recs if not r["correct"]]
        if failed:
            print(f"   {len(failed)} run(s) failed their correctness gate")
            bad = True
        for name in a_recs[0]["metrics"]:
            a = [r["metrics"][name]["value"] for r in a_recs]
            b = [r["metrics"][name]["value"] for r in b_recs
                 if name in r["metrics"]]
            if not b:
                continue
            m = meta.get(name, {"better": "lower"})
            v = verdict(a, b, m["better"], m.get("bound"))
            bad |= v == "regressed"
            med_a, med_b = statistics.median(a), statistics.median(b)
            change = (med_b - med_a) / med_a if med_a else 0.0
            qa = statistics.quantiles(a, n=4) if len(a) >= 2 else [med_a] * 3
            qb = statistics.quantiles(b, n=4) if len(b) >= 2 else [med_b] * 3
            print(f"   {name:32s} A {med_a:.6g} [{qa[0]:.4g}, {qa[2]:.4g}]  "
                  f"B {med_b:.6g} [{qb[0]:.4g}, {qb[2]:.4g}]  "
                  f"{change:+.2%}  bound {m.get('bound', '-')}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
