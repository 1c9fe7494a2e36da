"""The four benchmark workloads: seeded inputs, jobs and their checks.

A workload is built in two steps.  ``__init__(seed, workdir)`` draws every
random choice from the seed and keeps the result as plain data (``specs``),
so the same seed always gives the same inputs.  ``jobs()`` turns the specs
into fresh program objects and returns one ``Job`` per call into the
program; the runner calls it once per pass, so no pass sees an object built
for an earlier one.  Only ``Job.run`` is timed.  ``Job.check`` is the
independent check from ``checks`` and runs outside the timed region;
``Job.perturb`` returns a copy of a result with one coefficient changed,
which the self-test feeds back to ``check`` to show that it is rejected.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Any, Callable

import checks
from tuttepoly import catalog as cat
from tuttepoly import cli as tcli
from tuttepoly import engines as eng
from tuttepoly import families as fam
from tuttepoly import formats, render
from tuttepoly import matroids as mt
from tuttepoly.bipoly import BiPoly
from tuttepoly.gf import GFMatrix
from tuttepoly.graphs import Multigraph

CLI_TIMEOUT_S = 60
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@dataclass
class Job:
    id: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    perturb: Callable[[Any], Any] = checks.perturbed
    # the program object the call receives; a job whose key was already used
    # by an earlier job of the same pass repeats that input on purpose
    key: Any = None


def _truth(entry):
    return entry.erratum["derived_truth"] if entry.erratum else entry.ground_truth


# -- seeded generators --------------------------------------------------------------


def random_multigraph(rng, nverts, ncomp, extra):
    """Edge list with ncomp components, parallel edges and loops, shuffled.

    The components are as near equal in size as they can be: the cost of
    tutte_dc grows steeply with the largest one, and sizes left to the seed
    would make a run's timings depend on the seed more than on the program.
    """
    verts = list(range(nverts))
    rng.shuffle(verts)
    sizes = [nverts // ncomp + (k < nverts % ncomp) for k in range(ncomp)]
    parts, at = [], 0
    for size in sizes:
        parts.append(verts[at:at + size])
        at += size
    edges = []
    for part in parts:
        for k in range(1, len(part)):
            edges.append((part[k], part[rng.randrange(k)]))
        for _ in range(len(part) * extra // 4):
            edges.append(tuple(rng.sample(part, 2)))
        if rng.random() < 0.5:
            w = rng.choice(part)
            edges.append((w, w))
        if rng.random() < 0.5:
            edges.append(edges[rng.randrange(len(edges))])
    rng.shuffle(edges)
    return edges


def random_chs(rng, r, n, count):
    """Up to count r-subsets of range(n), pairwise meeting in <= r-2 elements."""
    pool = list(combinations(range(n), r))
    rng.shuffle(pool)
    chs = []
    for s in pool:
        if len(chs) == count:
            break
        fs = frozenset(s)
        if all(len(fs & c) <= r - 2 for c in chs):
            chs.append(fs)
    return [sorted(c) for c in chs]


def random_gf_rows(rng, p, nrows, ncols):
    """A full-row-rank nrows x ncols matrix over GF(p)."""
    while True:
        rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
        if checks.gf_rank(p, [list(c) for c in zip(*rows)]) == nrows:
            return rows


def grid_edges(m, n):
    """Edges of the m x n grid, in the order the package's builder uses."""
    vid = lambda row, col: col * m + row  # noqa: E731
    edges = []
    for col in range(n):
        edges += [(vid(row, col), vid(row + 1, col)) for row in range(m - 1)]
        if col + 1 < n:
            edges += [(vid(row, col), vid(row, col + 1)) for row in range(m)]
    return edges


def wheel_edges(n):
    return [(0, i + 1) for i in range(n)] + [(i + 1, (i + 1) % n + 1) for i in range(n)]


def complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


PETERSEN = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def circuit_hyperplanes(m):
    """The non-basis r-subsets of a sparse paving matroid."""
    bases = set(mt.bases(m))
    r = m.full_rank
    return [sorted(s) for s in combinations(range(m.n), r) if frozenset(s) not in bases]


# -- graph_dc -------------------------------------------------------------------------


class GraphDC:
    """tutte_dc on graphic matroids: family sweeps plus seeded multigraphs."""

    name = "graph_dc"
    # enough seeded graphs that the median job, one of them, hardly moves
    # with the seed; 294 jobs put the tail (p96) among the fixed families
    RANDOM_GRAPHS = 270

    def __init__(self, seed, workdir=None):
        rng = random.Random(f"{self.name}:{seed}")
        specs = []
        # ladders stop at 2x8: 2x12 alone takes ~2 s, as long as the rest of
        # a pass, and would leave too few passes in a run for a steady median
        for k in range(2, 9):
            specs.append((f"ladder-2x{k}", 2 * k, grid_edges(2, k), ("grid2", k)))
        for m, ks in ((3, range(3, 7)), (4, range(3, 5))):
            specs += [(f"grid-{m}x{k}", m * k, grid_edges(m, k), None) for k in ks]
        specs += [(f"K{n}", n, complete_edges(n), ("complete_graph", n))
                  for n in range(3, 8)]
        specs += [(f"wheel-{n}", n + 1, wheel_edges(n), ("wheel", n))
                  for n in range(3, 8)]
        specs.append(("petersen", 10, PETERSEN, None))
        for i in range(self.RANDOM_GRAPHS):
            nverts = 8 + i % 5
            specs.append((f"random-{i}", nverts,
                          random_multigraph(rng, nverts, 2 + i % 2, 3), None))
        self.specs = specs

    def jobs(self):
        out = []
        for job_id, nverts, edges, closed in self.specs:
            m = mt.Graphic(Multigraph(nverts, edges))
            out.append(Job(job_id, lambda m=m: eng.tutte_dc(m),
                           self._checker(nverts, edges, closed), key=m))
        return out

    @staticmethod
    def _checker(nverts, edges, closed):
        def check(result):
            found = checks.check_graph(result, nverts, edges)
            if found or closed is None:
                return found
            name, arg = closed
            return checks.check_equal(result, getattr(fam, name)(arg))
        return check


# -- matroid_oracle -----------------------------------------------------------------


class MatroidOracle:
    """Non-graphic matroids through the rank oracle and minor views."""

    name = "matroid_oracle"
    # Every circuit-hyperplane relaxation of the catalog takes ~11 s, which
    # would leave one pass per run.  A run takes a seeded half of each
    # entry's circuit-hyperplanes instead (costs within an entry are alike,
    # so the pass time hardly depends on the seed), and S5_6_12, with 132 of
    # them at ~60 ms each, contributes a seeded 8.
    BIG_ENTRY, BIG_SAMPLE = "S5_6_12", 8
    ORDERS = 3
    ACTIVITY_ENTRIES = ("F7", "F7minus", "P7", "P8", "R8", "T8", "S8",
                        "AG32", "L8", "Q8", "Pappus", "R10")
    COBOUNDARY_ENTRIES = ("F7", "F7dual", "P7", "P8", "S8", "AG23",
                          "nonDesargues", "T8")

    def __init__(self, seed, workdir=None):
        rng = random.Random(f"{self.name}:{seed}")
        relax = []
        for name in cat.names():
            entry = cat.lookup(name)
            if not entry.flags["sparse_paving"]:
                continue
            chs = circuit_hyperplanes(cat.build_recipe(entry.recipe))
            keep = self.BIG_SAMPLE if name == self.BIG_ENTRY else (len(chs) + 1) // 2
            chs = sorted(rng.sample(chs, keep))
            relax += [(name, ch) for ch in chs]
        self.relax = relax
        r = rng.randint(3, 7)
        sp_r = rng.randint(3, 5)
        p = rng.choice((3, 5))
        self.subset = [
            ("uniform", (r, 17)),
            ("sparse_paving", (sp_r, 15, random_chs(rng, sp_r, 15, 8))),
            ("linear", (p, random_gf_rows(rng, p, 4, 13))),
        ]
        self.activities = []
        for name in self.ACTIVITY_ENTRIES:
            n = cat.build(name).n
            for _ in range(self.ORDERS):
                order = list(range(n))
                rng.shuffle(order)
                self.activities.append((name, order))
        self.specs = (self.relax, self.subset, self.activities,
                      list(self.COBOUNDARY_ENTRIES))

    def jobs(self):
        # one object per catalog entry and section: the activity jobs of an
        # entry share theirs on purpose, which is what engines' basis cache
        # (keyed by object identity) can hit
        built = {}

        def fresh(name):
            if name not in built:
                built[name] = cat.build_recipe(cat.lookup(name).recipe)
            return built[name]

        out = []
        for name, ch in self.relax:
            m = fresh(name)
            out.append(Job(
                f"relax-{name}-{'.'.join(map(str, ch))}",
                lambda m=m, ch=ch: eng.tutte_dc(mt.relax(m, ch)),
                lambda res, name=name: checks.check_relaxation(
                    res, _truth(cat.lookup(name)))))
        for kind, args in self.subset:
            m, check = self._subset_input(kind, args)
            out.append(Job(f"subset-{kind}-{m.n}", lambda m=m: eng.tutte_subset(m),
                           check, key=m))
        built.clear()
        for k, (name, order) in enumerate(self.activities):
            m = fresh(name)
            out.append(Job(f"activities-{name}-{k % self.ORDERS}",
                           lambda m=m, o=order: eng.tutte_activities(m, o),
                           self._truth_check(name), key=m))
        built.clear()
        for name in self.COBOUNDARY_ENTRIES:
            m = fresh(name)
            out.append(Job(f"coboundary-{name}", lambda m=m: eng.tutte_via_coboundary(m),
                           self._truth_check(name), key=m))
        return out

    @staticmethod
    def _truth_check(name):
        return lambda res: checks.check_equal(res, _truth(cat.lookup(name)))

    @staticmethod
    def _subset_input(kind, args):
        if kind == "uniform":
            r, n = args
            return mt.Uniform(r, n), lambda res: checks.check_equal(res, fam.uniform(r, n))
        if kind == "sparse_paving":
            r, n, chs = args
            m = mt.SparsePaving(r, n, [frozenset(c) for c in chs])
            return m, lambda res: checks.check_equal(
                res, fam.sparse_paving(r, n, len(chs)))
        p, rows = args
        return mt.Linear(GFMatrix(p, rows)), lambda res: checks.check_counts(
            res, len(rows[0]), checks.gf_basis_count(p, rows))


# -- poly_transfer ------------------------------------------------------------------


def _bad_colourings(n, colours):
    """Colourings of the n-rim wheel counted by monochromatic edges, by brute force."""
    edges = wheel_edges(n)
    counts = [0] * (len(edges) + 1)
    colour = [0] * (n + 1)
    total = colours ** (n + 1)
    for code in range(total):
        for v in range(n + 1):
            code, colour[v] = divmod(code, colours)
        counts[sum(colour[u] == colour[v] for u, v in edges)] += 1
    return counts


def _uni_coeffs(result):
    return [int(c) for c in (result.coeffs() if hasattr(result, "coeffs") else result)]


class PolyTransfer:
    """Large-operand BiPoly work: transfer matrices, conversions, closed forms."""

    name = "poly_transfer"
    GRIDS = ([(2, k) for k in range(2, 13)] + [(3, k) for k in range(2, 9)]
             + [(4, k) for k in range(2, 7)])
    WHEELS = ((3, 3), (4, 3), (5, 4), (6, 4), (8, 3), (5, 5))
    ROUND_TRIPS = 16
    # (family function, argument tuple, independent T(1,1), element count)
    FAMILIES = (
        [("complete_graph", (n,), n ** (n - 2), n * (n - 1) // 2) for n in (8, 12, 16, 20)]
        + [("complete_bipartite", (a, b), a ** (b - 1) * b ** (a - 1), a * b)
           for a, b in ((3, 3), (4, 5), (6, 6), (5, 8), (7, 7))]
        + [("wheel", (n,), checks.lucas(2 * n) - 2, 2 * n) for n in (5, 10, 20, 30)]
        + [("catalan", (n,), checks.catalan_number(n), 2 * n) for n in (4, 8, 12)]
        + [("projective", (d, q), checks.projective_bases(d, q),
            (q ** (d + 1) - 1) // (q - 1)) for d, q in ((2, 3), (2, 5), (3, 2), (3, 3), (4, 2))]
        + [("affine", (d, q), checks.affine_bases(d, q), q ** d)
           for d, q in ((2, 3), (3, 2), (2, 5), (3, 3))]
    )

    def __init__(self, seed, workdir=None):
        rng = random.Random(f"{self.name}:{seed}")
        # every term of total degree <= 8 with a seeded 6-digit coefficient:
        # the seed changes the values, not the shape, so not the cost
        support = [(i, j) for i in range(9) for j in range(9 - i)]
        self.round_trips = [
            ([(key, rng.choice((-1, 1)) * rng.randint(10**5, 10**6 - 1)) for key in support],
             8 + k % 4)
            for k in range(self.ROUND_TRIPS)]
        self.specs = (self.GRIDS, self.WHEELS, self.round_trips)

    def jobs(self):
        out = []
        for m, n in self.GRIDS:
            out.append(Job(f"transfer-grid-{m}x{n}", lambda m=m, n=n: eng.transfer_grid(m, n),
                           self._grid_check(m, n)))
        for n, c in self.WHEELS:
            out.append(Job(
                f"transfer-wheel-{n}-{c}", lambda n=n, c=c: eng.transfer_wheel(n, c),
                lambda res, n=n, c=c: None if _uni_coeffs(res) == _bad_colourings(n, c)
                else "bad-colouring counts differ from brute force",
                perturb=lambda res: [v + (k == 0) for k, v in enumerate(_uni_coeffs(res))]))
        for k, (terms, rank) in enumerate(self.round_trips):
            p = BiPoly(dict(terms))
            out.append(Job(
                f"round-trip-{k}",
                lambda p=p, r=rank: eng.tutte_from_coboundary(
                    eng.coboundary_from_tutte(p, r), r),
                lambda res, terms=terms: checks.check_equal(res, terms), key=p))
        for fn, args, bases, nelem in self.FAMILIES:
            out.append(Job(
                f"family-{fn}-{'-'.join(map(str, args))}",
                lambda fn=fn, args=args: getattr(fam, fn)(*args),
                lambda res, b=bases, n=nelem: checks.check_counts(res, n, b)))
        return out

    @staticmethod
    def _grid_check(m, n):
        def check(res):
            found = checks.check_graph(res, m * n, grid_edges(m, n))
            if found or m != 2:
                return found
            return checks.check_equal(res, fam.grid2(n))
        return check


# -- cli ------------------------------------------------------------------------------


RENDER = {
    "text": render.to_text,
    "latex": render.to_latex,
    "json": lambda p: json.dumps(formats.poly_to_obj(p)),
}
ENGINES = ("subset", "dc", "activities", "coboundary")
FAMILY_FUNCTIONS = {"complete": "complete_graph", "wheel": "wheel"}


def _edge_file(nverts, edges):
    return "".join([f"p {nverts} {len(edges)}\n"] + [f"e {u} {v}\n" for u, v in edges])


def _matrix_file(p, rows):
    return f"gf {p} {len(rows)} {len(rows[0])}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in rows)


def _matroid_from_doc(doc):
    """Build the matroid a matroid-JSON document describes, without the parser."""
    kind = doc["kind"]
    if kind == "sparse_paving":
        return mt.SparsePaving(doc["r"], doc["n"], [frozenset(c) for c in
                                                    doc["circuit_hyperplanes"]])
    if kind == "linear":
        return mt.Linear(GFMatrix(doc["p"], doc["rows"]))
    if kind == "dual":
        return mt.dual(_matroid_from_doc(doc["of"]))
    if kind == "relax":
        return mt.relax(_matroid_from_doc(doc["of"]), frozenset(doc["subset"]))
    raise ValueError(kind)


def _perturb_digit(text):
    """text with its first coefficient-like digit changed."""
    for k, ch in enumerate(text):
        if ch.isdigit():
            return text[:k] + str((int(ch) + 1) % 10) + text[k + 1:]
    return text + "1"


def _perturb_cli(result):
    code, out = result
    if out.startswith("PASS "):
        return code, "FAIL" + out[4:]
    if out.lstrip().startswith("["):  # verify json: change a route polynomial
        k = out.index('"engine:')
        k = out.index(": ", k) + 3
        return code, out[:k] + _perturb_digit(out[k:])
    return code, _perturb_digit(out)


def _in_process(argv):
    """Run tuttepoly's CLI entry point in this process, capturing stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = tcli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


class CLI:
    """tuttepoly subprocess invocations on generated input files.

    With ``in_process`` set, each job passes the same arguments to
    ``cli.main`` in this process instead, which is how the traced run sees
    inside the calls.
    """

    name = "cli"
    in_process = False

    def __init__(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        files = {}
        models = {}
        for k in range(2):
            nverts = 7
            edges = random_multigraph(rng, nverts, 2, 3)[:11]
            files[f"graph{k}.edges"] = _edge_file(nverts, edges)
            models[f"graph{k}.edges"] = (
                "graph", lambda nv=nverts, e=edges: mt.Graphic(Multigraph(nv, e)),
                len(edges), checks.spanning_forests(nverts, edges))
        r, n = 3, 9
        chs = random_chs(rng, r, n, 4)
        paving = {"kind": "sparse_paving", "r": r, "n": n, "circuit_hyperplanes": chs}
        dual_rows = random_gf_rows(rng, 3, 3, 7)
        docs = [(paving, n, comb(n, r) - len(chs)),
                ({"kind": "relax", "subset": chs[0], "of": paving},
                 n, comb(n, r) - len(chs) + 1),
                ({"kind": "dual", "of": {"kind": "linear", "p": 3, "rows": dual_rows}},
                 7, checks.gf_basis_count(3, dual_rows))]
        for k, (doc, size, bases) in enumerate(docs):
            files[f"matroid{k}.json"] = json.dumps(doc)
            models[f"matroid{k}.json"] = (
                "matroid", lambda doc=doc: _matroid_from_doc(doc), size, bases)
        p = 5
        rows = random_gf_rows(rng, p, 4, n)
        files["matrix0.gf"] = _matrix_file(p, rows)
        models["matrix0.gf"] = ("matrix", lambda: mt.Linear(GFMatrix(p, rows)),
                                n, checks.gf_basis_count(p, rows))
        self.files, self.models = files, models
        calls = [(("catalog", "verify", "all"), ("verify", "text")),
                 (("catalog", "verify", "all", "--format", "json"), ("verify", "json"))]
        fmts = list(RENDER)
        for k, name in enumerate(sorted(files)):
            # three engines per file, a different one left out each time, and
            # the output formats in rotation: every engine and every format
            # runs on graph and matroid-JSON files
            flag = "--" + self.models[name][0]
            for engine in ENGINES[:k % 4] + ENGINES[k % 4 + 1:]:
                fmt = fmts[len(calls) % len(fmts)]
                calls.append((("compute", flag, name, "--engine", engine,
                               "--format", fmt), ("compute", name, engine, fmt)))
        points = [(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                   Fraction(rng.randint(-3, 3), rng.randint(1, 4))) for _ in range(5)]
        evals = [("--graph", "graph0.edges"), ("--matroid", "matroid1.json"),
                 ("--matrix", "matrix0.gf"), ("--family", "complete", "--n", "6"),
                 ("--family", "wheel", "--n", "5")]
        for args, (x, y) in zip(evals, points):
            calls.append((("eval",) + args + (f"--x={x}", f"--y={y}"),
                          ("eval", args, x, y)))
        self.calls = calls
        self.specs = (sorted(files.items()), calls)

    def write_inputs(self):
        os.makedirs(self.workdir, exist_ok=True)
        for name, text in self.files.items():
            with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)

    def argv(self, call_args):
        """Program arguments with input file names made absolute."""
        return [os.path.join(self.workdir, a) if a in self.files else a
                for a in call_args]

    def jobs(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        out = []
        for args, what in self.calls:
            argv = self.argv(args)
            if self.in_process:
                run = lambda argv=argv: _in_process(argv)  # noqa: E731
            else:
                argv = [sys.executable, "-m", "tuttepoly.cli"] + argv
                run = lambda argv=argv: self._invoke(argv, env)  # noqa: E731
            out.append(Job(" ".join(args), run,
                           lambda res, what=what: self._check(what, res),
                           perturb=_perturb_cli))
        return out

    @staticmethod
    def _invoke(argv, env):
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=CLI_TIMEOUT_S, check=False)
        return proc.returncode, proc.stdout

    def _input_poly(self, name, engine):
        """The polynomial the library computes in-process for an input file."""
        _, build, n, bases = self.models[name]
        fn = {"subset": eng.tutte_subset, "dc": eng.tutte_dc,
              "activities": eng.tutte_activities,
              "coboundary": eng.tutte_via_coboundary}[engine]
        poly = fn(build())
        return poly, checks.check_counts(poly, n, bases)

    def _check(self, what, result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        if what[0] == "verify":
            return self._check_verify(what[1], out)
        if what[0] == "compute":
            _, name, engine, fmt = what
            poly, found = self._input_poly(name, engine)
            return found or (None if out == RENDER[fmt](poly) + "\n"
                             else "stdout differs from the in-process rendering")
        _, args, x, y = what
        if args[0] == "--family":
            poly = getattr(fam, FAMILY_FUNCTIONS[args[1]])(int(args[3]))
        else:
            poly, found = self._input_poly(args[1], "dc")
            if found:
                return found
        want = checks.evaluate(poly, x, y)
        if out != f"{want}\n":
            return f"printed {out.strip()!r}, in-process value {want}"
        return None

    @staticmethod
    def _check_verify(fmt, out):
        names = cat.names()
        if fmt == "text":
            lines = out.splitlines()
            got = [line.split()[:2] for line in lines]
            want = [["ERRATUM-CONFIRMED" if n == "Q8" else "PASS", n] for n in names]
            return None if got == want else "verify all verdicts differ"
        try:
            reports = json.loads(out)
        except ValueError:
            return "verify json is not JSON"
        if [r["name"] for r in reports] != names:
            return "verify json lists other entries"
        for r in reports:
            entry = cat.lookup(r["name"])
            erratum = entry.erratum is not None
            if not r["ok"] or r["erratum_confirmed"] != erratum or r["matches_truth"] == erratum:
                return f"verify json verdict wrong for {r['name']}"
            text = render.to_text(_truth(entry))
            if any(v != text for v in r["routes"].values()):
                return f"verify json route differs from the record for {r['name']}"
        return None


WORKLOADS = {w.name: w for w in (GraphDC, MatroidOracle, PolyTransfer, CLI)}
