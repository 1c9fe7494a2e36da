"""Benchmark for tuttepoly: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload graph_dc --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones listed in BENCHMARK.json; with
``--trace 1`` they are the per-layer ones, taken from a separate run whose
calls into the package are wrapped by ``spans.py``.  Each workload runs in a
fresh worker process (``worker.py``), a closed loop with a single caller.
``setup_s`` is the median over several fresh worker starts, each timed from
process launch to the moment its first job could start.  Every time is
scaled by a reference kernel timed beside it (``speed.py``), because the
host's speed changes from phase to phase; the summary lines also show the
passes' wall times.

``--out FILE`` also appends the result, tagged with workload, seed and
trace, as one JSON line to FILE.  Two such files are compared with

    python3 bench/run.py compare BASE.jsonl NEW.jsonl

which prints, per workload and metric, each side's median and quartiles and
a verdict against the bounds in BENCHMARK.json.  The benchmark's own tests
run with ``python3 -m pytest -q bench/selftest.py``; bench/design.json
records what each workload is for, the predictions and the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
SETUP_PROBES = 10       # extra worker starts that stop after set-up
DEADLINE_S = 170        # the whole command ends well inside 180 s
SETUP_KERNEL_RUNS = 3   # reference kernel runs before each worker start


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    return 2


def scaled_setup(before, report):
    """A worker's set-up time, scaled by kernel runs just before and after it."""
    near = before + report["setup_kernel_s"]
    return report["setup_s"] * speed.REF_S / statistics.median(near)


def start_worker(args, workdir, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--t0", repr(time.monotonic()), *extra]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)


def wait_worker(proc, deadline):
    """The worker's final JSON line, or None if it failed or ran out of time."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("bench: worker ran out of time", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.strip():
        print(f"bench: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def pin_to_one_cpu():
    """Keep this process and the workers it starts on one CPU.

    The host's speed phases differ from CPU to CPU, so the reference kernel
    tracks the work only when both run on the same one.  Every process of
    a run is single-threaded and waits for the one it started, so nothing
    competes for that CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure(args, spec):
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(ROOT, ".bench_build", f"work-{os.getpid()}")
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                before = speed.kernel_times(SETUP_KERNEL_RUNS)
                probe = wait_worker(start_worker(args, workdir, ["--setup-only"]), deadline)
                if probe is None:
                    return None
                setups.append(scaled_setup(before, probe))
        before = speed.kernel_times(SETUP_KERNEL_RUNS)
        report = wait_worker(start_worker(args, workdir), deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))  # only if nothing else is in it
        except OSError:
            pass
    if report is None:
        return None
    metrics = report["metrics"]
    if not args.trace:
        setups.append(scaled_setup(before, report))
        metrics["setup_s"] = statistics.median(setups)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, report


def summary(args, result, report):
    """Human-readable lines on stdout, before the JSON line."""
    fails = report["failed"] / report["attempted"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{report['attempted']} jobs attempted, fail_ratio {fails:.6g}")
    if "jobs" in report:
        print(f"# {report['jobs']} jobs per pass, job_tail_ms is p{report['tail_percentile']}"
              ", passes took " + " ".join(f"{t:.3f}" for t in report["pass_times"])
              + " s scaled, " + " ".join(f"{t:.3f}" for t in report["pass_walls"])
              + " s wall")
    for failure in report.get("failures", []):
        print(f"# FAILED {failure}")
    for name in report.get("absent", []):
        print(f"# absent (reported as 0): {name}")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")


def cmd_run(argv):
    ap = argparse.ArgumentParser(prog="bench/run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the tagged result to this JSON-lines file")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tuttepoly", "__init__.py")):
        return fail(f"no tuttepoly sources under {os.path.join(ROOT, 'src')}")
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    pin_to_one_cpu()
    measured = measure(args, spec)
    if measured is None:
        return 1
    result, report = measured
    summary(args, result, report)
    if args.out:
        tagged = dict(result, workload=args.workload, seed=args.seed, trace=args.trace)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(tagged) + "\n")
    print(json.dumps(result))
    return 0


# -- compare mode -------------------------------------------------------------------


def _read_results(path):
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                runs.setdefault(row["workload"], []).append(row)
    return runs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, better, bound):
    """better / worse / unchanged / unresolved for one metric on one workload."""
    sign = -1 if better == "lower" else 1
    q1, med, q3 = _quartiles(base)
    n1, nmed, n3 = _quartiles(new)
    if med == 0:
        return "unchanged" if nmed == 0 else "unresolved"
    gain = sign * (nmed - med) / med
    spread = max((q3 - q1) / med, (n3 - n1) / nmed if nmed else 0)
    if sorted(v * sign for v in new)[0] > max(v * sign for v in base):
        return "better"
    if max(v * sign for v in new) < min(v * sign for v in base):
        return "worse"
    if bound is not None and spread > bound:
        return "unresolved"
    if bound is not None and gain < -bound:
        return "worse"
    if gain > (q3 - q1) / med and gain > 0:
        return "better"
    return "unchanged"


def cmd_compare(argv):
    ap = argparse.ArgumentParser(prog="bench/run.py compare")
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    spec = load_spec()
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = _read_results(args.base), _read_results(args.new)
    print(f"{'workload':15} {'metric':42} {'base q1/med/q3':>32} "
          f"{'new q1/med/q3':>32}  verdict")
    for workload in sorted(set(base) & set(new)):
        names = sorted({k for row in base[workload] + new[workload]
                        for k in row["metrics"]})
        for name in names:
            bv = [r["metrics"][name]["value"] for r in base[workload] if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in new[workload] if name in r["metrics"]]
            if not bv or not nv:
                continue
            m = meta.get(name, {"better": "lower"})
            v = verdict(bv, nv, m.get("better", "lower"), m.get("bound"))
            fb = "/".join(f"{x:.4g}" for x in _quartiles(bv))
            fn = "/".join(f"{x:.4g}" for x in _quartiles(nv))
            print(f"{workload:15} {name:42} {fb:>32} {fn:>32}  {v}")
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return cmd_compare(argv[1:])
    return cmd_run(argv)


if __name__ == "__main__":
    sys.exit(main())
