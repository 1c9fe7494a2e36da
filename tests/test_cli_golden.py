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


# Small valid arguments for every --family name the CLI accepts.
FAMILY_ARGS = {
    "uniform": ["--r", "2", "--n", "4"],
    "cycle": ["--n", "4"],
    "complete": ["--n", "4"],
    "complete-bipartite": ["--n", "2", "--m", "3"],
    "wheel": ["--n", "4"],
    "whirl": ["--n", "3"],
    "grid2": ["--n", "3"],
    "grid": ["--m", "2", "--n", "3"],
    "catalan": ["--n", "3"],
    "multilink": ["--n", "3"],
    "sparse-paving": ["--r", "3", "--n", "7", "--ch-count", "7"],
    "projective": ["--dim", "2", "--q", "2"],
    "affine": ["--dim", "2", "--q", "3"],
}
for _family, _args in FAMILY_ARGS.items():
    CASES[f"compute-family-{_family}-text"] = [
        "compute", "--family", _family, *_args,
    ]
for _fmt in ("json", "latex"):
    CASES[f"compute-family-wheel-{_fmt}"] = [
        "compute", "--family", "wheel", *FAMILY_ARGS["wheel"], "--format", _fmt,
    ]
CASES["eval-gf3"] = [
    "eval", "--matrix", str(DATA / "gf3.gf"), "--x", "2", "--y", "1/3",
]
CASES["eval-family-wheel"] = [
    "eval", "--family", "wheel", "--n", "4", "--x", "1/2", "--y=-2/3",
]
CASES["eval-family-wheel-negative"] = [
    "eval", "--family", "wheel", "--n", "3", "--x", "1", "--y", "-2/3",
]
CASES["catalog-list"] = ["catalog", "list"]
for _fmt in ("text", "json"):
    CASES[f"catalog-show-Q8-{_fmt}"] = ["catalog", "show", "Q8", "--format", _fmt]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_every_family_has_a_golden():
    assert sorted(FAMILY_ARGS) == sorted(cli._FAMILIES)


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
