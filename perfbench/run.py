#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--save <dir>]

Run it from the root of the repository. It builds perfbench/ (a CMake
package that compiles the library sources under src/) into
.bench_build/perfbench, then repeats the perfbench binary, one fresh process
per repetition, until --seconds have passed. Every repetition of a seed must
produce the same digest of virtual-time results; host times are medians
over the repetitions. With --trace 1, untraced and traced repetitions
alternate: the per-layer metrics come from the first traced one, host-time
ratios from the untraced ones.

The last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": v, "unit": u}}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list (a layer that is off reports 0 there and "n/a"
in the table above it). --save appends the result, tagged with workload,
seed and digest, to <dir>/<workload>.jsonl for perfbench/compare.py. Traced
runs write Chrome trace-event JSON to .bench_build/perfbench-traces/.

Exit status: 0 when every check passed, 1 when a check failed (the result
is still printed), 2 when the benchmark could not run (no result printed).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
TRACE_DIR = os.path.join(".bench_build", "perfbench-traces")
INVOCATION_TIMEOUT_S = 150
MIN_SETUPS = 5  # setup_s is the median of at least this many set-ups


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    # The sources under src/ are part of the checkout; without them there is
    # nothing to measure.
    for needed in ("BENCHMARK.json", "perfbench/CMakeLists.txt", "src/core/sprwl.h"):
        if not os.path.isfile(needed):
            fail(f"{needed} not found; run from the repository root")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def invoke(exe, workload, seed, traced=False, setup_only=False):
    """One repetition in a fresh process; returns (result dict, report lines)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0", "--trace-dir", TRACE_DIR]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench binary did not finish within {INVOCATION_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"perfbench binary exited with status {proc.returncode}")
    try:
        return json.loads(lines[-1]), lines[:-1]
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("perfbench binary printed no result line")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--save", help="append the result to <dir>/<workload>.jsonl")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    exe = build()
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose one of {', '.join(names)}")
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    os.makedirs(TRACE_DIR, exist_ok=True)

    # Repetitions until --seconds have passed; traced runs alternate
    # untraced and traced repetitions so both host times see the same noise.
    t0 = time.monotonic()
    reps = []
    while len(reps) < 1 + args.trace or time.monotonic() - t0 < args.seconds:
        traced = args.trace == 1 and len(reps) % 2 == 1
        rep, report = invoke(exe, args.workload, args.seed, traced=traced)
        if len(reps) < 1 + args.trace:
            print("\n".join(report))
        else:
            print(f"  repetition {len(reps) + 1}{' (traced)' if traced else ''}: "
                  f"setup {rep['setup_s']:.3f} s, measured {rep['host_s']:.3f} s, "
                  f"digest {rep['digest']}")
        reps.append(rep)
    setups = [{k: r[k] for k in ("populate_s", "warmup_s", "setup_s")} for r in reps]
    while len(setups) < MIN_SETUPS:
        setups.append(invoke(exe, args.workload, args.seed, setup_only=True)[0])
    print(f"  {len(reps)} repetitions and {len(setups)} set-ups in "
          f"{time.monotonic() - t0:.1f} s")

    digests = {r["digest"] for r in reps}
    same_digest = len(digests) == 1
    print(f"  {'digest identical across repetitions' + (', traced and untraced' if args.trace else ''):<48s} "
          f"{'ok' if same_digest else 'FAILED: ' + ' '.join(sorted(digests))}")
    correct = same_digest and all(r["correct"] for r in reps)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)

    median = statistics.median
    untraced = [r for r in reps if not r["traced"]]
    host = median(r["host_s"] for r in untraced)
    n_setups = f"median of {len(setups)}"
    if args.trace:
        first = next(r for r in reps if r["traced"])
        traced_host = median(r["host_s"] for r in reps if r["traced"])
        measured = dict(first["metrics"])
        measured["sim.host_ns_per_switch"] = {
            "value": host * 1e9 / first["switches"] if first["switches"] else 0,
            "unit": "ns", "note": f"untraced host_s / switches, median of {len(untraced)}"}
        measured["setup.populate_s"] = {
            "value": median(s["populate_s"] for s in setups), "unit": "s", "note": n_setups}
        measured["setup.warmup_s"] = {
            "value": median(s["warmup_s"] for s in setups), "unit": "s", "note": n_setups}
        measured["trace.overhead_pct"] = {
            "value": 100 * (traced_host - host) / host, "unit": "%",
            "note": f"traced host_s {traced_host:.3f} s vs untraced {host:.3f} s"}
    else:
        measured = dict(reps[0]["metrics"])
        measured["host_s"] = {"value": host, "unit": "s",
                              "note": f"median of {len(untraced)} repetitions"}
        measured["setup_s"] = {"value": median(s["setup_s"] for s in setups),
                               "unit": "s", "note": n_setups}
        measured["peak_rss_mb"] = {"value": median(r["peak_rss_mb"] for r in reps),
                                   "unit": "MB", "note": "median over repetitions"}

    metrics = {}
    print(f"metrics ({'per layer' if args.trace else 'end to end'}):")
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            fail(f"perfbench binary did not report metric {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']}: unit {got['unit']!r}, BENCHMARK.json says {m['unit']!r}")
        if got["value"] is None:
            print(f"  {m['name']:<36s} {'n/a':>16s} {m['unit']:<7s} layer off")
        else:
            print(f"  {m['name']:<36s} {got['value']:16.6g} {m['unit']:<7s} {got['note']}")
        metrics[m["name"]] = {"value": got["value"] if got["value"] is not None else 0,
                              "unit": m["unit"]}
    print(f"  {'failed_frac':<36s} {failed / attempted:16.6g} {'':<7s} "
          f"failed {failed} of {attempted} attempted")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.save:
        os.makedirs(args.save, exist_ok=True)
        tagged = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "digest": reps[0]["digest"], **result}
        with open(os.path.join(args.save, f"{args.workload}.jsonl"), "a") as f:
            f.write(json.dumps(tagged) + "\n")
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
