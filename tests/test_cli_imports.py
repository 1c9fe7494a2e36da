"""Each CLI subcommand imports only the modules it runs.

Every case runs ``cli.main`` in a fresh interpreter and lists which of the
heavy optional modules ended up in ``sys.modules``.  File inputs need
neither the closed-form families nor the catalog, and no subcommand needs
``dataclasses``.  The closed-form families need no engine, and the package
imports nothing outside itself and the standard library.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import tuttepoly

SRC = pathlib.Path(tuttepoly.__file__).resolve().parents[1]
DATA = pathlib.Path(__file__).parent / "data" / "cli"
OPTIONAL = ("tuttepoly.catalog", "tuttepoly.families", "dataclasses")

PROBE = """
import json, sys
from tuttepoly import cli
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([m for m in json.loads(sys.argv[2]) if m in sys.modules]))
sys.exit(code)
"""


def fresh(*args):
    """A fresh interpreter run on args, with this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, check=False)


def loaded_after(argv):
    proc = fresh("-c", PROBE, json.dumps(argv), json.dumps(OPTIONAL))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def triangle(tmp_path):
    path = tmp_path / "c3.edges"
    path.write_text("p 3 3\ne 0 1\ne 1 2\ne 2 0\n")
    return str(path)


@pytest.mark.parametrize("argv", [
    ["compute", "--matroid", str(DATA / "sparse_paving.json")],
    ["compute", "--matrix", str(DATA / "gf3.gf")],
    ["eval", "--matrix", str(DATA / "gf3.gf"), "--x", "2", "--y", "1/3"],
])
def test_file_inputs_load_no_catalog_families_or_dataclasses(argv):
    assert loaded_after(argv) == []


def test_graph_input_loads_no_catalog_families_or_dataclasses(triangle):
    assert loaded_after(["compute", "--graph", triangle]) == []


def test_catalog_verify_loads_no_dataclasses():
    assert loaded_after(["catalog", "verify", "F7"]) == [
        "tuttepoly.catalog", "tuttepoly.families",
    ]


def test_families_load_no_engine():
    proc = fresh("-c", "import sys, tuttepoly.families; "
                       "print('tuttepoly.engines' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout == "False\n", proc.stderr


def test_package_imports_only_itself_and_the_standard_library():
    for path in sorted((SRC / "tuttepoly").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
