"""README's examples run as documented: its Python block, and the command
lines that show their output."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from tuttepoly import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

WHEEL3 = "x^3 + 3*x^2 + 2*x + 4*x*y + 2*y + 3*y^2 + y^3"
F7_PASS = "PASS F7 (7 paths agree with the record)"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("command, comment, stdout", [
    ("compute --family wheel --n 3", "-> " + WHEEL3, WHEEL3),
    ("eval --family complete --n 5 --x 1 --y 1", "-> 125 spanning trees", "125"),
    ("eval --family wheel --n 3 --x 1 --y -2/3", "-> 82/27", "82/27"),
    ("catalog verify F7", F7_PASS, F7_PASS),
], ids=["wheel", "K5", "wheel-at-point", "verify-F7"])
def test_documented_command_output(command, comment, stdout, capsys):
    # the comment follows the command on its line or on the next one
    shown = rf"^tuttepoly {re.escape(command)}\s*# {re.escape(comment)}$"
    assert re.search(shown, README, re.M), command
    assert cli.main(command.split()) == 0
    assert capsys.readouterr().out == stdout + "\n"
