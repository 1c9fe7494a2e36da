"""CLI stdout against recorded goldens under tests/data/cli/.

Each case runs ``cli.main`` in process and compares its captured stdout,
byte for byte, with ``tests/data/cli/<case>.out``; every case exits 0.
To rewrite the goldens from the current code (only when a change of
output is intended), run this file as a script:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import pathlib

import pytest

from tuttepoly import cli

DATA = pathlib.Path(__file__).parent / "data" / "cli"
INPUTS = {
    "sparse_paving": ("--matroid", "sparse_paving.json"),
    "relax": ("--matroid", "relax.json"),
    "gf3": ("--matrix", "gf3.gf"),
    "paving": ("--matroid", "paving.json"),
    "dual_linear": ("--matroid", "dual_linear.json"),
}
ENGINES = ("subset", "dc", "activities", "coboundary")
FORMATS = ("text", "json", "latex")

CASES = {
    f"verify-all-{fmt}": ["catalog", "verify", "all", "--format", fmt]
    for fmt in ("text", "json")
}
for _name, (_flag, _file) in INPUTS.items():
    for _engine in ENGINES:
        for _fmt in FORMATS:
            CASES[f"compute-{_name}-{_engine}-{_fmt}"] = [
                "compute", _flag, str(DATA / _file),
                "--engine", _engine, "--format", _fmt,
            ]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_stdout_matches_golden(case):
    code, out = _run(CASES[case])
    assert code == 0
    assert out == (DATA / f"{case}.out").read_text()


if __name__ == "__main__":
    for case, argv in sorted(CASES.items()):
        code, out = _run(argv)
        if code != 0:
            raise SystemExit(f"{case} exited {code}")
        (DATA / f"{case}.out").write_text(out)
        print(f"wrote {case}.out")
