#!/usr/bin/env python3
"""The rtq benchmark: build the harness, run one workload, check, report.

    python3 rtqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds rtqbench/ (and the
rtq library it links) with CMake into $CARGO_TARGET_DIR/rtqbench-<id>, or
.bench_build/rtqbench-<id> when that variable is unset, where <id> is a
hash of the checkout's path: checkouts that share a $CARGO_TARGET_DIR
never share a build. The harness then repeats the workload for --seconds
of host time.

Every point's and shard's deterministic fingerprint (events, completions,
misses, pages read and written) is checked against rtqbench/references.json
when that file pins the seed, and otherwise against the run's first
repetition; a mismatch or an error counts as a failed operation. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. A harness that crashes, times out or prints no valid JSON
fails every point the reference pins (or one point) and reports no
metrics. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones. The full result (build fingerprint,
per-repetition series, spans) is written under .bench_out/results/.

Maintenance flags (see README.md): --scale F shrinks every horizon,
--reference-file PATH checks against another reference file, and --pin
records this run's fingerprints as the reference for its seed.
"""

import argparse
import bisect
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCES = BENCH_DIR / "references.json"
WORKLOADS = ("paper-sweep", "adaptive-mix", "cluster-local", "serve-global")
FIELDS = ("events", "completions", "misses", "pages_read", "pages_written")
# Spans around calls into the program; "rep" and "point" spans hold only
# the benchmark's own glue.
LAYER_SPANS = ("Create", "RunUntil", "RunEvents", "Emit", "Summarize")
# The speed probe's spans are the benchmark's own work but are accounted.
PROBE_SPAN = "probe"
# The layer spans plus the tracing overhead must account for at least this
# share of the traced repetitions' wall time.
MIN_SPAN_COVERAGE = 0.95
# The speed probe's duration (ms) on an uncontended core of the reference
# machine (4-vCPU Intel Xeon VM, GCC 12 Release + LTO): the unit that
# host times are rescaled to (see Speed).
P_REF_MS = 2.4
# Fewest simulated events a timed call needs to count as a batch sample.
MIN_BATCH_EVENTS = 1024
# Wall-clock cap on one harness process; the run as a whole must end
# within 180 s.
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    """The checkout's own build directory: CMake keeps building the source
    tree it was first configured with, so checkouts must not share one."""
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    checkout = hashlib.sha256(str(ROOT).encode()).hexdigest()[:12]
    return base / f"rtqbench-{checkout}"


def build():
    """Configures (once) and builds the harness; returns its path or None."""
    bdir = build_dir()
    jobs = str(len(os.sched_getaffinity(0)))
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", str(bdir), "--target", "rtqbench", "-j", jobs]
    for attempt in range(2):
        ok = True
        if not (bdir / "CMakeCache.txt").exists():
            ok = subprocess.run(configure, stdout=sys.stderr).returncode == 0
        if ok:
            ok = subprocess.run(make, stdout=sys.stderr).returncode == 0
        if ok:
            return bdir / "rtqbench"
        if attempt == 0 and bdir.exists():
            log("rtqbench: build failed; retrying from a clean build directory")
            shutil.rmtree(bdir)
    return None


# --- build fingerprint ------------------------------------------------------

def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def source_sha256():
    """Hash of everything the harness binary is built from."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]
    files += sorted(p for p in BENCH_DIR.iterdir() if p.suffix in (".cc", ".txt"))
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(build_info):
    """The build fingerprint. Results are comparable only when every key
    except the source identity (git_sha, source_sha256) is equal."""
    fp = dict(build_info)
    fp["cpu"] = cpu_model()
    fp["nproc"] = len(os.sched_getaffinity(0))
    fp["git_sha"] = git_sha()
    fp["source_sha256"] = source_sha256()
    return fp


# --- correctness gate -------------------------------------------------------

def load_references(path):
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def pinned_units(refs, workload, seed, scale):
    """The pinned fingerprints for this run, or None when none apply."""
    if refs.get("scale") != scale:
        return None
    return refs.get("workloads", {}).get(workload, {}).get(str(seed))


def check(doc, pinned):
    """Returns (attempted, failed, drift lines)."""
    reps = doc["reps"]
    baseline = pinned
    if baseline is None:
        baseline = {u["unit"]: [u[f] for f in FIELDS]
                    for u in reps[0]["units"] if not u["error"]}
    attempted = failed = 0
    drift = []
    for i, rep in enumerate(reps):
        seen = set()
        for u in rep["units"]:
            attempted += 1
            seen.add(u["unit"])
            problems = [u["error"]] if u["error"] else []
            want = baseline.get(u["unit"])
            if want is None and not problems:
                problems.append("no reference fingerprint")
            elif want is not None:
                for field, expected in zip(FIELDS, want):
                    if u[field] != expected:
                        problems.append(f"{field} {u[field]} != {expected}")
            if problems:
                failed += 1
                drift.append(f"rep {i} point {u['unit']}: " + "; ".join(problems))
        for unit in sorted(set(baseline) - seen):
            attempted += 1
            failed += 1
            drift.append(f"rep {i} point {unit}: missing from the run")
    return attempted, failed, drift


# --- metrics ----------------------------------------------------------------

def quantile(values, q):
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timed(doc, traced):
    """The timed (not warm-up) repetitions, traced or untraced."""
    return [r for r in doc["reps"] if not r["warmup"] and r["traced"] == traced]


class Speed:
    """Rescales host time to the probe's reference speed.

    The harness times a fixed probe task (no rtq code) every 100 ms. Other
    tenants of a shared machine slow the probe and the simulator alike, so
    a call that ran while the probe took p ms is scaled by P_REF_MS / p,
    with p the mean of the probe samples just before and after the call.
    On an uncontended core of the reference machine p == P_REF_MS and the
    scaling is the identity.
    """

    def __init__(self, doc):
        self.at = doc["probe_at_ns"]
        self.ms = doc["probe_ms"]

    def factor(self, at_ns):
        i = bisect.bisect_right(self.at, at_ns)
        near = [self.ms[k] for k in (i - 1, i) if 0 <= k < len(self.ms)]
        return P_REF_MS / statistics.mean(near)

    def scaled(self, rep, key):
        """The rep's `key`_ms calls, each scaled to reference speed."""
        return [ms * self.factor(at)
                for ms, at in zip(rep[key + "_ms"], rep[key + "_at_ns"])]

    def rep_wall_s(self, rep):
        """The rep's whole wall time less the probe's own, at reference
        speed (scaled by the probe samples taken during the rep)."""
        start = rep["start_ns"]
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, start + rep["wall_s"] * 1e9)
        factor = (P_REF_MS / statistics.mean(self.ms[lo:hi]) if hi > lo
                  else self.factor(start))
        return (rep["wall_s"] - rep["probe_s"]) * factor


def throughput(reps, speed):
    """(queries/s, events/s): each repetition's work over its stepping and
    Summarize time at reference speed, median over repetitions."""
    qps, eps = [], []
    for r in reps:
        run_s = (sum(speed.scaled(r, "batch")) +
                 sum(speed.scaled(r, "summarize"))) / 1e3
        qps.append(r["finished"] / run_s)
        eps.append(r["events"] / run_s)
    return statistics.median(qps), statistics.median(eps)


def batch_ms(reps, speed):
    """Host ms per 4096 simulated events at reference speed, one sample
    per timed call (its median over repetitions): serve-global's
    RunEvents(4096) calls as timed, the other workloads' RunUntil slices
    scaled to 4096 events. Slices that dispatched fewer than
    MIN_BATCH_EVENTS events are left out: their time is mostly the call's
    fixed cost, which the scaling would inflate."""
    per_call = zip(*(speed.scaled(r, "batch") for r in reps))
    return [statistics.median(ms) * 4096 / n
            for ms, n in zip(per_call, reps[0]["batch_events"])
            if n >= MIN_BATCH_EVENTS]


def end_to_end(doc):
    reps = timed(doc, traced=False)
    speed = Speed(doc)
    qps, eps = throughput(reps, speed)
    batches = batch_ms(reps, speed)
    raw_eps = statistics.median(r["events"] / sum(r["batch_ms"]) * 1e3
                                for r in reps)
    return {
        "queries_per_s": qps,
        "events_per_s": eps,
        "setup_s": statistics.median(sum(speed.scaled(r, "create")) / 1e3
                                     for r in reps),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
        "batch_p50_ms": quantile(batches, 0.50),
        "batch_p99_ms": quantile(batches, 0.99),
    }, {"reps": len(reps), "batch_samples": len(batches),
        "unscaled_events_per_s": raw_eps,
        "probe_median_ms": statistics.median(doc["probe_ms"]),
        "probe_samples": len(doc["probe_ms"])}


def span_tables(spans):
    """Per-span self time (ns) and the index of each span's root."""
    self_ns = [s[2] - s[1] for s in spans]
    root = list(range(len(spans)))
    for i, s in enumerate(spans):
        parent = s[3]
        if parent >= 0:
            self_ns[parent] -= s[2] - s[1]
            root[i] = root[parent]
    return self_ns, root


def per_layer(doc):
    spans = doc.get("spans", [])
    drivers = doc["drivers"]
    untraced = timed(doc, traced=False)
    traced = timed(doc, traced=True)
    t = traced[0]
    c = t["layers"]
    engines = c["engines"]
    # A cluster point's aggregate unit ("c0") repeats its shards ("c0/shard3").
    shard_units = ([u for u in t["units"] if "/" in u["unit"]]
                   or t["units"])
    self_ns, root = span_tables(spans)
    rep_ids = [i for i, s in enumerate(spans) if s[0] == "rep"]

    def per_rep_sum(name):
        sums = {r: 0 for r in rep_ids}
        for i, s in enumerate(spans):
            if s[0] == name and root[i] in sums:
                sums[root[i]] += s[2] - s[1]
        return [v / 1e9 for v in sums.values()]

    def self_of(*names):
        return [self_ns[i] for i, s in enumerate(spans) if s[0] in names]

    traced_wall = sum(r["wall_s"] for r in traced)
    traced_events = sum(r["events"] for r in traced)
    step_self = self_of("RunUntil", "RunEvents")
    serve_self = self_of("RunEvents")
    emits = [s[2] - s[1] for s in spans if s[0] == "Emit"]
    # The overhead compares whole repetitions, so the span bookkeeping and
    # the counter reads at span boundaries, which lie outside the timed
    # calls, are part of what it measures.
    speed = Speed(doc)
    qps_u, qps_t = (statistics.median(r["finished"] / speed.rep_wall_s(r)
                                      for r in reps)
                    for reps in (untraced, traced))
    finished = t["finished"]
    return {
        "sim.events_per_query": t["events"] / finished,
        "sim.calendar_depth_max": c["depth_max"],
        "sim.push_pop_ns": drivers["push_pop_ns"],
        "model.disk_request_ns": drivers["disk_request_ns"],
        "model.cpu_job_ns": drivers["cpu_job_ns"],
        "model.cpu_util": c["cpu_util"] / engines,
        "model.disk_util": c["disk_util"] / engines,
        "model.pages_read_per_query":
            sum(u["pages_read"] for u in shard_units) / finished,
        "model.pages_written_per_query":
            sum(u["pages_written"] for u in shard_units) / finished,
        "buffer.lru_lookup_ns": drivers["lru_lookup_ns"],
        "exec.request_ns": drivers.get("exec_request_ns", 0.0),
        "core.recomputes_per_change": c["recomputes"] / (2 * c["owned"]),
        "core.mm_change_ns": drivers.get("mm_change_ns", 0.0),
        "core.policy_adaptations": c["adaptations"],
        "core.coordinator_refusals": c["refusals"],
        "core.coordinator_high_water": c["high_water"],
        "workload.generated_per_owned": c["generated"] / c["owned"],
        "engine.create_s": statistics.median(per_rep_sum("Create")),
        "engine.run_ns_per_event": sum(step_self) / traced_events,
        "engine.summarize_s": statistics.median(per_rep_sum("Summarize")),
        "engine.miss_ratio": t["misses"] / finished,
        "engine.records_held": c["records"],
        "engine.recycle_ratio": c["recycled"] / c["owned"],
        "engine.shard_event_imbalance": c["imbalance"],
        "serve.batch_self_ms":
            statistics.median(serve_self) / 1e6 if serve_self else 0.0,
        "harness.emit_us": statistics.mean(emits) / 1e3 if emits else 0.0,
        "trace.qps_overhead": (qps_u - qps_t) / qps_u,
        "trace.span_coverage":
            sum(self_of(*LAYER_SPANS, PROBE_SPAN)) / 1e9 / traced_wall,
    }, {"untraced_queries_per_s": qps_u, "traced_queries_per_s": qps_t,
        "traced_reps": len(traced), "untraced_reps": len(untraced),
        "spans": len(spans),
        "driver_shape": {k: drivers[k] for k in ("depth", "live", "mpl")}}


# --- main -------------------------------------------------------------------

def run_harness(cmd):
    """Runs the harness: (its JSON document, None) or (None, what failed)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"harness exceeded {HARNESS_TIMEOUT_S} s"
    if proc.returncode < 0:
        return None, f"harness killed by signal {-proc.returncode}"
    if proc.returncode != 0:
        return None, f"harness exited with {proc.returncode}"
    try:
        return json.loads(proc.stdout), None
    except json.JSONDecodeError as e:
        return None, f"harness printed no valid JSON: {e}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--reference-file", type=Path, default=REFERENCES)
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.scale <= 0:
        ap.error("--seed must be >= 0; --seconds and --scale positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    harness = build()
    if harness is None:
        log("rtqbench: build failed")
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    stream = OUT_DIR / "serve-stream.jsonl"
    cmd = [str(harness), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--scale={args.scale}", f"--stream={stream}"]
    doc, crash = run_harness(cmd)
    refs = load_references(args.reference_file)
    pinned = None if args.pin else pinned_units(refs, args.workload, args.seed,
                                                args.scale)
    if crash is not None:
        # Every point the run should have checked counts as failed.
        attempted = len(pinned) if pinned else 1
        print(f"rtqbench {args.workload} seed={args.seed} trace={args.trace}: "
              f"{attempted} points attempted, {attempted} failed")
        print(f"  FAIL {crash}")
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return 0
    attempted, failed, drift = check(doc, pinned)
    problems = list(drift)
    if args.trace and doc["drivers"]["error"]:
        problems.append("layer drivers: " + doc["drivers"]["error"])

    if args.trace:
        values, notes = per_layer(doc)
        wanted = spec["per_layer"]
        coverage = values["trace.span_coverage"]
        overhead = max(values["trace.qps_overhead"], 0.0)
        if coverage + overhead < MIN_SPAN_COVERAGE:
            problems.append(f"layer spans cover only {coverage:.3f} of the "
                            "traced wall time, and tracing costs "
                            f"{overhead:.3f} of it")
    else:
        values, notes = end_to_end(doc)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    build_fp = fingerprint(doc["build"])
    ref_kind = ("pinned reference" if pinned is not None
                else "recorded as reference" if args.pin
                else "first repetition (seed not pinned)")
    print(f"rtqbench {args.workload} seed={args.seed} trace={args.trace} "
          f"scale={args.scale}: {len(doc['reps'])} reps in "
          f"{doc['measure_s']:.2f} s; {attempted} points attempted, "
          f"{failed} failed; checked against {ref_kind}")
    for line in problems:
        print(f"  FAIL {line}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print("  " + ", ".join(f"{k}={v}" for k, v in notes.items()))
    print("  build: " + ", ".join(f"{k}={v}" for k, v in build_fp.items()))

    if args.pin and failed == 0:
        refs.setdefault("scale", args.scale)
        if refs["scale"] != args.scale:
            problems.append("--pin: reference file holds another --scale")
        else:
            units = {u["unit"]: [u[f] for f in FIELDS]
                     for u in doc["reps"][0]["units"]}
            refs.setdefault("workloads", {}).setdefault(args.workload, {})[
                str(args.seed)] = units
            args.reference_file.write_text(
                json.dumps(refs, indent=1, sort_keys=True) + "\n")
            print(f"  pinned {len(units)} fingerprints to {args.reference_file}")

    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, scale=args.scale, build=build_fp,
                  notes=notes, problems=problems,
                  unscaled_events_per_s=[
                      r["events"] / sum(r["batch_ms"]) * 1e3
                      for r in timed(doc, traced=False)],
                  probe_ms=doc["probe_ms"],
                  spans=doc.get("spans", []))
    path = results_dir / f"{stamp}.json"
    path.write_text(json.dumps(record) + "\n")
    print(f"  result: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
