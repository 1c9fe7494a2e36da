"""Self-tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

They show that input generation is deterministic for a seed, that every
job's check accepts the program's result and rejects it with one
coefficient changed, and that the traced run returns exactly what the
untraced run returns.  The file name keeps the repository's own test run
from collecting it.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tuttepoly import engines as eng  # noqa: E402


def _build(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name](seed, str(tmp_path / f"{name}-{seed}"))
    if hasattr(wl, "write_inputs"):
        wl.write_inputs()
    return wl


def test_generation_is_deterministic(tmp_path):
    for name, cls in workloads.WORKLOADS.items():
        first = cls(7, str(tmp_path)).specs
        assert cls(7, str(tmp_path)).specs == first, name
        assert cls(8, str(tmp_path)).specs != first, name


def test_every_check_rejects_a_perturbed_coefficient(tmp_path):
    for name in workloads.WORKLOADS:
        for job in _build(name, 3, tmp_path).jobs():
            result = job.run()
            assert job.check(result) is None, (name, job.id)
            assert job.check(job.perturb(result)) is not None, (name, job.id)


def test_traced_and_untraced_runs_return_the_same_results(tmp_path):
    original = eng.tutte_dc
    for name in workloads.WORKLOADS:
        wl = _build(name, 5, tmp_path)
        plain = [worker._canon(job.run()) for job in wl.jobs()[::3]]
        tracer = spans.Tracer().install()
        tracer.active = True
        try:
            wl.in_process = True  # the cli workload's traced form
            traced = [worker._canon(job.run()) for job in wl.jobs()[::3]]
        finally:
            tracer.active = False
            tracer.uninstall()
        calls, _, _ = tracer.collect()
        assert sum(calls.values()) > 0, name
        assert traced == plain, name
    assert eng.tutte_dc is original


def test_tail_percentile_leaves_ten_jobs_beyond():
    for njobs in (20, 25, 70, 100, 170, 294):
        pct, rank = worker.tail_rank(njobs)
        assert njobs - rank >= 10
        assert worker.tail_rank(njobs)[0] == pct


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main(["-q", __file__]))
