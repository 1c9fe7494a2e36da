"""Batch command line: compute, evaluate, and verify Tutte polynomials.

Exit codes: 0 success, 2 parse or usage error, 3 resource budget exceeded
(including Python's recursion limit and memory), 4 verification mismatch.

Each subcommand imports only what it runs.  ``compute`` and ``eval`` on a
``--graph``, ``--matroid`` or ``--matrix`` file load the engines, the
parsers and the renderers; ``--family`` also loads ``families``; the
``catalog`` subcommands also load ``catalog`` (and with it ``families``).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import engines as eng
from . import matroids as mt
from .bipoly import evaluate
from .errors import BudgetExceeded, ParseError, SizeBudgetExceeded, TuttepolyError
from .formats import parse_graph, parse_matrix, parse_matroid
from .render import to_json, to_latex, to_text

# Closed-form producers reachable by name: the name of the function in
# ``families`` (``grid`` is ``engines.transfer_grid``), with the integer
# flags it needs.
_FAMILIES = {
    "uniform": ("uniform", ("r", "n")),
    "cycle": ("cycle", ("n",)),
    "complete": ("complete_graph", ("n",)),
    "complete-bipartite": ("complete_bipartite", ("n", "m")),
    "wheel": ("wheel", ("n",)),
    "whirl": ("whirl", ("n",)),
    "grid2": ("grid2", ("n",)),
    "grid": ("transfer_grid", ("m", "n")),
    "catalan": ("catalan", ("n",)),
    "multilink": ("multilink", ("n",)),
    "sparse-paving": ("sparse_paving", ("r", "n", "ch_count")),
    "projective": ("projective", ("dim", "q")),
    "affine": ("affine", ("dim", "q")),
}

_RENDERERS = {"text": to_text, "json": to_json, "latex": to_latex}


def _rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _signed_points(argv):
    """argv with "--x -2/3" joined into "--x=-2/3": argparse takes a token
    that starts with - for an option unless it reads as an integer or a
    decimal, and no option here starts with - and a digit."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--x", "--y") and re.match(r"-[0-9]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _pick_input(args):
    picked = [flag for flag in ("family", "matroid", "graph", "matrix")
              if getattr(args, flag) is not None]
    if len(picked) != 1:
        raise ParseError(
            "give exactly one of --family, --matroid, --graph, --matrix"
        )
    return picked[0]


def _input_matroid(args, kind):
    if kind == "matroid":
        return parse_matroid(_read(args.matroid))
    if kind == "graph":
        return mt.Graphic(parse_graph(_read(args.graph)))
    return mt.Linear(parse_matrix(_read(args.matrix)))


def _family_poly(args):
    from . import families as fam
    name, wanted = _FAMILIES[args.family]
    fn = getattr(eng if name == "transfer_grid" else fam, name)
    values = []
    for flag in wanted:
        v = getattr(args, flag)
        if v is None:
            pretty = "--" + flag.replace("_", "-")
            raise ParseError(f"--family {args.family} requires {pretty}")
        values.append(v)
    return fn(*values)


def _engine_poly(m, args):
    if args.engine == "subset":
        return eng.tutte_subset(m)
    if args.engine == "dc":
        return eng.tutte_dc(m, budget_nodes=args.budget_nodes)
    if args.engine == "activities":
        return eng.tutte_activities(m)
    return eng.tutte_via_coboundary(m)


def _polynomial(args):
    kind = _pick_input(args)
    if kind == "family":
        return _family_poly(args)
    return _engine_poly(_input_matroid(args, kind), args)


def cmd_compute(args):
    print(_RENDERERS[args.format](_polynomial(args)))
    return 0


def cmd_eval(args):
    value = evaluate(_polynomial(args), args.x, args.y)
    try:  # str() refuses an int of more digits than the interpreter's limit
        text = str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise SizeBudgetExceeded(f"the value has more than {limit} digits") from None
    print(text)
    return 0


def cmd_catalog_list(args):
    from . import catalog as cat
    for name in cat.names():
        print(name)
    return 0


def cmd_catalog_show(args):
    from . import catalog as cat
    entry = cat.lookup(args.name)
    if args.format == "json":
        print(json.dumps(cat.entry_to_obj(entry), indent=1, sort_keys=True))
        return 0
    print(f"name:       {entry.name}")
    print(f"recipe:     {entry.recipe}")
    print(f"provenance: {entry.provenance}")
    for key in sorted(entry.flags):
        print(f"{key}: {entry.flags[key]}")
    print(f"tutte:      {to_text(entry.ground_truth)}")
    if entry.erratum:
        print(f"erratum:    {entry.erratum['note']}")
        print(f"corrected:  {to_text(entry.erratum['derived_truth'])}")
    return 0


def _verify_line(report):
    k = len(report["routes"])
    if report["matches_truth"]:
        return f"PASS {report['name']} ({k} paths agree with the record)"
    if report["erratum_confirmed"]:
        return (f"ERRATUM-CONFIRMED {report['name']} ({k} paths agree with the "
                f"recorded correction, not the recorded misprint)")
    return f"FAIL {report['name']} ({k} paths)"


def cmd_catalog_verify(args):
    from . import catalog as cat
    selected = None if args.name == "all" else [args.name]
    reports = cat.verify_all(selected)
    if args.format == "json":
        out = [
            {
                "name": r["name"],
                "ok": r["ok"],
                "matches_truth": r["matches_truth"],
                "erratum_confirmed": r["erratum_confirmed"],
                "routes_agree": r["routes_agree"],
                "basis_count": r["basis_count"],
                "routes": {label: to_text(p)
                           for label, p in r["routes"].items()},
            }
            for r in reports
        ]
        print(json.dumps(out, indent=1, sort_keys=True))
    else:
        for r in reports:
            print(_verify_line(r))
    return 0 if all(r["ok"] for r in reports) else 4


def _add_input_flags(p):
    p.add_argument("--family", choices=sorted(_FAMILIES))
    p.add_argument("--matroid", metavar="FILE", help="matroid JSON file")
    p.add_argument("--graph", metavar="FILE", help="edge-list graph file")
    p.add_argument("--matrix", metavar="FILE", help="GF(p) matrix file")
    p.add_argument("--engine", default="dc",
                   choices=["subset", "dc", "activities", "coboundary"])
    for flag in ("--n", "--m", "--r", "--q", "--dim", "--ch-count"):
        p.add_argument(flag, type=int)
    p.add_argument("--budget-nodes", type=int, default=eng.DEFAULT_BUDGET)


def _parser():
    top = argparse.ArgumentParser(
        prog="tuttepoly",
        description="Exact Tutte polynomials of graphs and matroids.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="print a Tutte polynomial")
    _add_input_flags(p_compute)
    p_compute.add_argument("--format", default="text",
                           choices=["text", "json", "latex"])
    p_compute.set_defaults(func=cmd_compute)

    p_eval = sub.add_parser("eval", help="evaluate at an exact rational point")
    _add_input_flags(p_eval)
    p_eval.add_argument("--x", type=_rational, required=True,
                        metavar="P/Q", help='rational, e.g. "2", "1/3" or "-2/3"')
    p_eval.add_argument("--y", type=_rational, required=True, metavar="P/Q")
    p_eval.set_defaults(func=cmd_eval)

    p_cat = sub.add_parser("catalog", help="named-matroid corpus")
    cat_sub = p_cat.add_subparsers(dest="action", required=True)
    p_list = cat_sub.add_parser("list", help="print every entry name")
    p_list.set_defaults(func=cmd_catalog_list)
    p_show = cat_sub.add_parser("show", help="print one entry")
    p_show.add_argument("name")
    p_show.add_argument("--format", default="text", choices=["text", "json"])
    p_show.set_defaults(func=cmd_catalog_show)
    p_verify = cat_sub.add_parser(
        "verify", help="recompute an entry (or all) along every route"
    )
    p_verify.add_argument("name", help='entry name or "all"')
    p_verify.add_argument("--format", default="text",
                          choices=["text", "json"])
    p_verify.set_defaults(func=cmd_catalog_verify)

    return top


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(_signed_points(argv))
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RecursionError, MemoryError) as exc:
        print(f"error: input too large ({type(exc).__name__})", file=sys.stderr)
        return 3
    except TuttepolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
