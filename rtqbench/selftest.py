#!/usr/bin/env python3
"""The benchmark's own self-test, at a short horizon.

    python3 rtqbench/selftest.py

For every workload, at --scale 0.2 and a short time budget:
  1. an untraced run prints every end-to-end metric of BENCHMARK.json
     with its unit, reports 0 failed points, and pins its fingerprints to
     a scratch reference file;
  2. a traced run prints every per-layer metric with its unit;
  3. a run against that reference passes, and a run against a copy with
     one perturbed field reports failed points and names the drifted
     point and field.
Then, with the harness replaced by a script that aborts or one that
prints no JSON, run.py still prints a result line that fails every
pinned point.
Exits 0 when every check holds. Writes only under .bench_out/.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".bench_out" / "selftest"
SCALE = "0.2"
SECONDS = "0.5"


def run(workload, trace, *extra):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "42", "--seconds", SECONDS, "--trace", str(trace),
           "--scale", SCALE, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def run_with_fake_harness(name, script):
    """Runs run.py in this process with its harness replaced by `script`;
    returns its exit code, result line and the lines before it."""
    sys.path.insert(0, str(BENCH_DIR))
    import run as bench
    fake = SCRATCH / f"{name}.sh"
    fake.write_text("#!/bin/sh\n" + script + "\n")
    fake.chmod(0o755)
    argv = ["run.py", "--workload", "paper-sweep", "--seed", "42",
            "--seconds", "1", "--trace", "0"]
    out = io.StringIO()
    with mock.patch.object(bench, "build", lambda: fake), \
            mock.patch.object(sys, "argv", argv), \
            contextlib.redirect_stdout(out):
        code = bench.main()
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]), lines[:-1]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    SCRATCH.mkdir(parents=True, exist_ok=True)
    errors = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            errors.append(what)

    for w in (x["name"] for x in spec["workloads"]):
        ref = SCRATCH / f"{w}-ref.json"
        ref.unlink(missing_ok=True)
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            extra = ("--pin", "--reference-file", str(ref)) if trace == 0 else ()
            result, _ = run(w, trace, *extra)
            wanted = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{w} trace={trace}: every {kind} metric "
                   "printed with its BENCHMARK.json unit")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0,
                   f"{w} trace={trace}: 0 of {result['attempted']} points failed")

        result, _ = run(w, 0, "--reference-file", str(ref))
        expect(result["correct"] and result["failed"] == 0,
               f"{w}: a run against its own reference passes")

        refs = json.loads(ref.read_text())
        units = refs["workloads"][w]["42"]
        unit = sorted(units)[0]
        units[unit][2] += 1  # misses
        bad = SCRATCH / f"{w}-perturbed.json"
        bad.write_text(json.dumps(refs))
        result, lines = run(w, 0, "--reference-file", str(bad))
        named = any(f"point {unit}:" in line and "misses" in line
                    for line in lines)
        expect(not result["correct"] and result["failed"] > 0 and named,
               f"{w}: a perturbed reference fails {result['failed']} of "
               f"{result['attempted']} points and names {unit} / misses")

    pinned = len(json.loads((BENCH_DIR / "references.json").read_text())
                 ["workloads"]["paper-sweep"]["42"])
    for name, script, why in (("abort", "kill -ABRT $$", "signal"),
                              ("garbage", "echo not-json", "no valid JSON")):
        code, result, lines = run_with_fake_harness(name, script)
        expect(code == 0 and not result["correct"] and not result["metrics"]
               and result["attempted"] == result["failed"] == pinned
               and any(why in line for line in lines),
               f"harness failure ({name}): {result['failed']} of "
               f"{result['attempted']} pinned points fail, and the run "
               "says why")

    print(f"selftest: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
