"""The workload process: one closed-loop caller, one workload, one seed.

Started by ``run.py``; not meant to be run by hand.  It imports the package
from ``src/`` of the checkout it sits in, builds the workload's inputs from
the seed, then runs passes over the jobs until the time is up and prints
one JSON object on its last line.  ``--t0`` is the parent's monotonic clock
when it started this process, so the set-up time it reports includes
interpreter start.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tuttepoly import catalog as cat  # noqa: E402
from tuttepoly import engines as eng  # noqa: E402

MIN_PASSES = 3
JOB_LIMIT_S = 60.0      # a job slower than this counts as failed (timed out)
HARD_LIMIT_S = 120.0    # stop starting passes after this long in any case
SETUP_KERNEL_RUNS = 6   # reference kernel runs right after set-up, to scale it


def tail_rank(njobs):
    """(percentile, 1-based rank) of the highest percentile with >= 10 jobs beyond it."""
    pct = (100 * (njobs - 10)) // njobs
    rank = -(-pct * njobs // 100)
    return pct, max(rank, 1)


def _canon(result):
    """A plain value to compare results of the same job across passes."""
    if hasattr(result, "coeffs"):
        return [int(c) for c in result.coeffs()]
    if hasattr(result, "items"):
        return checks.terms(result)
    return result


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.verified = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def one_pass(self, jobs, gauge, tracer=None):
        """Time every job once; returns (wall times, scaled times, results).

        The gauge times the reference kernel between jobs, outside the jobs'
        timings, and scales each job by the kernel runs nearest to it.
        """
        clock = time.perf_counter
        starts, times, results = [], [], []
        for k, job in enumerate(jobs):
            gauge.sample()
            if tracer is not None:
                tracer.job = k
                tracer.active = True
            t = clock()
            try:
                res, err = job.run(), None
            except Exception as exc:  # a raising job is a failed job, not a crash
                res, err = None, f"{type(exc).__name__}: {exc}"
            times.append(clock() - t)
            starts.append(t)
            if tracer is not None:
                tracer.active = False
            results.append((res, err))
        gauge.sample(force=True)
        scaled = [dt * gauge.scale(t, t + dt) for t, dt in zip(starts, times)]
        return times, scaled, results

    def check(self, jobs, times, results):
        for job, dt, (res, err) in zip(jobs, times, results):
            self.attempted += 1
            if err is None and dt > JOB_LIMIT_S:
                err = f"timed out ({dt:.1f} s)"
            if err is None:
                canon = _canon(res)
                if self.verified.get(job.id, _MISSING) != canon:
                    err = job.check(res)
                    if err is None:
                        self.verified[job.id] = canon
            if err is not None:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{job.id}: {err}")


_MISSING = object()


def run_passes(runner, first_jobs, seconds, tracer=None, min_passes=MIN_PASSES):
    """Passes until the next one would overrun ``seconds`` (at least min_passes).

    Returns each pass's scaled time (the sum of its jobs' scaled times), each
    job's scaled times across the passes and each pass's wall time.
    """
    started = time.perf_counter()
    spawns = runner.workload.name == "cli" and not runner.workload.in_process
    gauge = speed.Gauge.for_processes() if spawns else speed.Gauge()
    pass_times, job_times, walls = [], None, []
    jobs = first_jobs
    while True:
        gc.collect()  # every pass starts from the same collector state
        times, scaled, results = runner.one_pass(jobs, gauge, tracer)
        runner.check(jobs, times, results)
        pass_times.append(sum(scaled))
        walls.append(sum(times))
        job_times = [[t] for t in scaled] if job_times is None else [
            acc + [t] for acc, t in zip(job_times, scaled)]
        if tracer is not None:
            tracer.collect()
        elapsed = time.perf_counter() - started
        if len(pass_times) >= min_passes and (
                elapsed + statistics.median(walls) > seconds
                or elapsed > HARD_LIMIT_S):
            return pass_times, job_times, walls
        jobs = runner.workload.jobs()  # fresh input objects, built outside the timing


def end_to_end(workload, pass_times, job_times):
    """Medians over the run: of the pass times, and of each job's times.

    Every time is scaled by the reference kernel (``speed.py``), which takes
    the host's speed phases out of it.
    """
    per_job = sorted(statistics.median(ts) for ts in job_times)
    pct, rank = tail_rank(len(per_job))
    usage = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return {
        "pass_s": statistics.median(pass_times),
        "job_p50_ms": statistics.median(per_job) * 1000,
        "job_tail_ms": per_job[rank - 1] * 1000,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    }, {"jobs": len(per_job), "tail_percentile": pct, "passes": len(pass_times),
        "pass_times": pass_times}


def per_layer(names, tracer, untraced, traced, traced_walls, repeat_share, cache):
    """Every per-layer metric named in BENCHMARK.json, from the traced passes.

    Spans are wall times, so a module's share divides its self time by the
    traced passes' wall time; the overhead compares scaled pass times.
    """
    passes = tracer.passes
    calls = passes[-1][0]
    self_s = {k: statistics.median(p[1][k] for p in passes) for k in calls}
    counters = passes[-1][2]
    traced_pass = statistics.median(traced)
    modules = {}
    for fname, s in self_s.items():
        mod = fname.split(".", 1)[0]
        agg = modules.setdefault(mod, [0, 0.0])
        agg[0] += calls[fname]
        agg[1] += s
    key_calls = calls.get("graphs.canonical_key", 0)
    special = {
        "graphs.canonical_key.none_ratio":
            counters["key_none"] / key_calls if key_calls else 0.0,
        "graphs.canonical_key.repeat_ratio":
            counters["key_repeat"] / key_calls if key_calls else 0.0,
        "bipoly.BiPoly.__mul__.term_products": counters["term_products"],
        "engines.basis_cache.hit_ratio": cache,
        "bench.trace_overhead": traced_pass / statistics.median(untraced),
        "bench.traced_pass_s": traced_pass,
        "bench.input_repeat_share": repeat_share,
    }
    out, absent = {}, []
    for name in names:
        base, stat = name.rsplit(".", 1)
        index = 0 if stat == "calls" else 1
        if name in special:
            out[name] = special[name]
        elif stat == "share":
            out[name] = modules.get(base, [0, 0.0])[1] / statistics.median(traced_walls)
        elif base in modules:  # a whole module: "families.calls"
            out[name] = modules[base][index]
        elif base in calls:
            out[name] = (calls, self_s)[index][base]
        else:
            absent.append(name)
            out[name] = 0
    return out, absent


def repeat_share(jobs):
    seen, repeats = set(), 0
    for job in jobs:
        if job.key is None:
            continue
        repeats += id(job.key) in seen
        seen.add(id(job.key))
    return repeats / len(jobs)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cat.names()  # the catalog JSON load is part of set-up
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    if hasattr(workload, "write_inputs"):
        workload.write_inputs()
    # the traced cli run sends the same argv through cli.main in-process
    workload.in_process = bool(args.trace)
    runner = Runner(workload)
    jobs = workload.jobs()
    report = {"setup_s": time.monotonic() - args.t0,
              "setup_kernel_s": speed.kernel_times(SETUP_KERNEL_RUNS)}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    if not args.trace:
        pass_times, job_times, walls = run_passes(runner, jobs, args.seconds)
        metrics, shape = end_to_end(workload, pass_times, job_times)
        report.update(shape, pass_walls=walls)
    else:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        share = repeat_share(jobs)
        untraced, _, _ = run_passes(runner, jobs, args.seconds * 0.4, min_passes=1)
        tracer = spans.Tracer().install()
        cached = getattr(eng, "_basis_mask_set", None)
        info = getattr(cached, "cache_info", lambda: None)
        before = info()
        traced, _, traced_walls = run_passes(runner, workload.jobs(), args.seconds * 0.6,
                                             tracer=tracer, min_passes=1)
        after = info()
        tracer.uninstall()
        cache = 0.0
        if before is not None:
            hits = after.hits - before.hits
            lookups = hits + after.misses - before.misses
            cache = hits / lookups if lookups else 0.0
        metrics, absent = per_layer(names, tracer, untraced, traced, traced_walls,
                                    share, cache)
        report["absent"] = absent + tracer.absent
    report.update(metrics=metrics, attempted=runner.attempted, failed=runner.failed,
                  failures=runner.failures)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
