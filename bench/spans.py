"""Spans around calls into the package's public functions, kept in memory.

``Tracer.install()`` replaces each public function and the listed public
methods of each module with a wrapper that records a span: name, start,
end, parent span and job id, in flat arrays.  It then rebinds every name
another module imported by value (``from .bipoly import exact_div``), and
the entries of module-level dispatch tables that hold such functions, so
calls that go through those names are traced too.  ``uninstall()`` puts
everything back.  ``collect()`` turns the spans of the last pass into call
counts and self times (a span's duration minus its child spans') and
clears them.

A function a later refactor removes is recorded in ``absent`` and reported
as zero calls; it is not an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

PACKAGE = "tuttepoly"
MODULES = ("graphs", "matroids", "gf", "bipoly", "engines", "families",
           "catalog", "formats", "render", "cli")

# Public methods traced per class; module-level public functions are all
# traced.  Hot helpers (UnionFind, Matroid._rank) are deliberately left
# out: their time counts toward the traced function that called them.
METHODS = {
    "graphs": {"Multigraph": ("rank_of", "full_rank", "delete_edges", "contract_edge",
                              "without_isolated", "loops", "components", "bridges",
                              "parallel_classes", "degree_two_chain", "is_cycle")},
    "matroids": {"Matroid": ("rank",)},
    "gf": {"GFMatrix": ("rank_of_columns", "delete_column", "contract_column")},
    "bipoly": {"BiPoly": ("__mul__", "__add__", "__sub__", "__rsub__", "__neg__",
                          "__pow__", "scale", "eval", "swap"),
               "UniPoly": ("__add__", "__sub__", "__mul__", "eval"),
               "PolyMatrix": ("__matmul__", "trace")},
}
# Reflected operators share the wrapper (and the metric) of their twin.
ALIASES = {"__add__": "__radd__", "__mul__": "__rmul__"}


def _public_functions(module):
    return [name for name, value in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(value)
            and value.__module__ == module.__name__]


class Tracer:
    def __init__(self):
        self.names = []
        self.index = {}
        self.absent = []
        self.active = False
        self.job = -1
        self.stack = []
        self.counters = {"term_products": 0, "key_none": 0, "key_repeat": 0}
        self.passes = []  # what collect() returned, one entry per pass
        self._seen_keys = set()
        self._patches = []
        self._clear()

    def _clear(self):
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- wrapping ----------------------------------------------------------------

    def _name_index(self, name):
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
        return self.index[name]

    def _wrap(self, name, fn):
        ix = self._name_index(name)
        before, after = self._hooks(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before()
            i = len(tracer.span_start)
            stack = tracer.stack
            tracer.span_name.append(ix)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_job.append(tracer.job)
            tracer.span_end.append(0.0)
            stack.append(i)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _hooks(self, name):
        """Counters that need a look at arguments or results."""
        counters = self.counters
        if name == "bipoly.BiPoly.__mul__":
            def products(args, result):
                a, b = args
                if hasattr(b, "_terms"):
                    counters["term_products"] += len(a) * len(b)
            return None, products
        if name == "graphs.canonical_key":
            seen = self._seen_keys

            def keys(args, result):
                if result is None:
                    counters["key_none"] += 1
                elif result in seen:
                    counters["key_repeat"] += 1
                else:
                    seen.add(result)
            return None, keys
        if name == "engines.tutte_dc":
            # the memo lives for one tutte_dc call; so does the set of keys seen
            return self._seen_keys.clear, None
        return None, None

    def _set(self, owner, key, value):
        """Replace owner[key] or owner.key, remembering the old value."""
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self):
        wrapped = {}  # id(original) -> wrapper; self._patches keeps the originals alive
        for short in MODULES:
            try:
                module = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:
                self.absent.append(short)
                continue
            for fname in _public_functions(module):
                fn = getattr(module, fname)
                wrapped[id(fn)] = self._wrap(f"{short}.{fname}", fn)
                self._set(module, fname, wrapped[id(fn)])
            for cname, methods in METHODS.get(short, {}).items():
                cls = getattr(module, cname, None)
                for meth in methods:
                    if cls is None or meth not in cls.__dict__:
                        self.absent.append(f"{short}.{cname}.{meth}")
                        continue
                    fn = cls.__dict__[meth]
                    wrapper = self._wrap(f"{short}.{cname}.{meth}", fn)
                    wrapped[id(fn)] = wrapper
                    self._set(cls, meth, wrapper)
                    alias = ALIASES.get(meth)
                    if alias and cls.__dict__.get(alias) is fn:
                        self._set(cls, alias, wrapper)
        self._rebind(wrapped)
        return self

    def _rebind(self, wrapped):
        """Point names bound by import, and dispatch-table entries, at wrappers."""
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._set(module, name, wrapped[id(value)])
                elif isinstance(value, dict) and not name.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in wrapped:
                            self._set(value, key, wrapped[id(item)])
                        elif (isinstance(item, tuple) and item
                              and id(item[0]) in wrapped):
                            self._set(value, key,
                                      (wrapped[id(item[0])],) + item[1:])

    def uninstall(self):
        for owner, key, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def collect(self):
        """Call counts, self seconds and counters of the spans since the last call.

        The result is also appended to ``passes``.
        """
        starts, ends = self.span_start, self.span_end
        dur = [e - s for s, e in zip(starts, ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        names = self.names
        for i, ix in enumerate(self.span_name):
            calls[names[ix]] += 1
            self_s[names[ix]] += dur[i] - child[i]
        counters = dict(self.counters)
        for key in self.counters:
            self.counters[key] = 0
        self._clear()
        self.passes.append((calls, self_s, counters))
        return calls, self_s, counters
