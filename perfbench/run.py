#!/usr/bin/env python3
"""perfbench: the store's benchmark command.

    python3 perfbench/run.py --workload geo-adapt --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. Builds the harness (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then
runs repetitions of the workload until --seconds of wall time are used,
each a fresh process with its own seed derived from --seed, and reduces
them to medians. Human-readable lines (provenance, every metric with its
quartiles and sample counts) go to stdout first; the last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 the
per-layer metrics, from repetitions that alternate traced and untraced so
the tracing overhead is measured in the same run. Exit status is 0 when
every repetition passed its correctness checks, 1 when one failed or the
build failed, 2 on bad usage or a tree without the sources.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("geo-adapt", "loopback-rw", "shard-mix")
HERE = Path(__file__).resolve().parent
REP_TIMEOUT_S = 100

# End-to-end metrics BENCHMARK.json cannot bound: they exist on one
# workload only, read 0 on a healthy run (failed_ratio), or drift with
# the machine by more than a bound can hold (peak_ops_s; see
# perfbench/README.md). They sit in its per-layer set and are also
# printed in every --trace 0 report.
SCOPED_E2E = ("max_rate_ops_s", "snapshot_p50_ms", "snapshot_p99_ms",
              "recovery_s", "failed_ratio", "peak_ops_s")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def provenance(root):
    """`git describe --always --dirty` at run time; outside a git checkout
    a hash over the sources the harness is built from."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=root, capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for sub in ("src", "perfbench"):
        for p in sorted((root / sub).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(root)).encode())
                h.update(p.read_bytes())
    return "nogit-" + h.hexdigest()[:12]


def build(root):
    """Configures and builds the harness; returns its build directory."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    bdir = target / "perfbench"
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return bdir


def run_rep(bdir, workload, seed, trace, spans):
    cmd = [str(bdir / "perfbench_harness"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--spans", str(spans)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: repetition timed out")
        return None
    if p.stderr:
        log(p.stderr.rstrip())
    lines = p.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{workload} seed {seed}: harness exited {p.returncode} "
            "without a result")
        return None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(reps, names, units, missing):
    """Prints one line per metric: median [q1, q3] over repetitions, plus
    the sample count and true percentile of percentile metrics. A metric
    the workload does not produce prints `missing`."""
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14}  unit")
    for name in names:
        vals = [r["metrics"][name] for r in reps if name in r["metrics"]]
        if not vals:
            print(f"{name:34} {missing}  {units.get(name, '')}")
            continue
        q1, q2, q3 = quartiles(vals)
        note = ""
        samples = [r["samples"][name] for r in reps if name in r.get("samples", {})]
        if samples:
            n = statistics.median(s["n"] for s in samples)
            pct = min(s["pct"] for s in samples)
            note = f"  (p{pct:g} of {n:g} samples per repetition)"
        print(f"{name:34} {q2:14.6g} {q1:14.6g} {q3:14.6g}  {units.get(name, '')}{note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the metric self-tests, then exit")
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "api" / "cluster.h").is_file():
        log(f"perfbench: run from the repository root; {root} has no src/")
        return 2
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        log("perfbench: BENCHMARK.json missing at the repository root")
        return 2
    spec = json.loads(spec_path.read_text())
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    bdir = build(root)
    if bdir is None:
        log("perfbench: build failed")
        return 1
    if args.selftest:
        return subprocess.run([str(bdir / "perfbench_selftest")]).returncode

    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    spans = bdir / "spans" / f"{args.workload}.jsonl"
    if args.trace:
        spans.parent.mkdir(parents=True, exist_ok=True)

    rev = provenance(root)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} nproc={os.cpu_count()} rev={rev}", flush=True)

    # Repetitions until the time is used: a new one starts only when the
    # slowest so far still fits, but there are always at least two.
    start = time.monotonic()
    reps, traced, untraced, slowest = [], [], [], 0.0
    k = 0
    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= 2 and elapsed + slowest > args.seconds:
            break
        trace = args.trace == 1 and k % 2 == 0
        t = time.monotonic()
        seed = (args.seed * 1000 + k) % 2**64
        r = run_rep(bdir, args.workload, seed, trace, spans)
        slowest = max(slowest, time.monotonic() - t)
        if r is None:
            return 1
        reps.append(r)
        (traced if trace else untraced).append(r)
        k += 1
        if not r["correct"]:
            break

    correct = all(r["correct"] for r in reps)
    for r in reps:
        for e in r["errors"]:
            print(f"CHECK FAILED: {e}", flush=True)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"{len(reps)} repetitions in {time.monotonic() - start:.1f} s; "
          f"{attempted} ops attempted, {failed} failed", flush=True)

    if args.trace == 0:
        base, names = reps, e2e
        shown = e2e + list(SCOPED_E2E)
        shown += sorted({k for r in reps for k in r["metrics"] if k.startswith("ladder.")})
        report(base, shown, units, f"{'n/a':>14}  (not defined on {args.workload})")
    else:
        base, names = traced, layer
        report(base, [n for n in names if n != "trace.overhead_pct"], units,
               f"{0:14}  (layer does no work here)")

    metrics = {}
    for name in names:
        vals = [r["metrics"].get(name, 0.0) for r in base]
        metrics[name] = {"value": statistics.median(vals), "unit": units[name]}
    if args.trace == 1:
        def cpu(rs):
            return statistics.median(r["metrics"].get("cpu_per_op_us", 0.0) for r in rs)
        # A failed check stops after the first (traced) repetition.
        cpu_u = cpu(untraced) if untraced else 0.0
        overhead = 100.0 * (cpu(traced) / cpu_u - 1.0) if cpu_u > 0 else 0.0
        print(f"tracing overhead: {overhead:+.2f}% cpu per op "
              f"({len(traced)} traced vs {len(untraced)} untraced repetitions); "
              f"spans in {spans}", flush=True)
        metrics["trace.overhead_pct"] = {"value": overhead,
                                         "unit": units["trace.overhead_pct"]}

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
