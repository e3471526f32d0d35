"""Layer tracing of the z2z4cyclic package, installed from outside it.

Inside ``with Tracer(pkg) as tr:`` every public function of the modules
gf2poly, z4poly, code, dual, analysis and cli records one span (name,
start, end, parent) per call.  The wrapper replaces the function under
every name any package module bound it to (``analysis`` and ``cli``
import ``codeword_matrix``, ``dual_spec`` and others by name), so no call
escapes through an early binding.  Two further layers are timed without
one span per call:

* ``poly``: the DensePoly arithmetic methods.  They run millions of times,
  so the tracer keeps a count per method and the total time spent in
  outermost poly calls, charged to the enclosing span.
* ``canon``: ``numpy.unique(..., axis=0)`` as the package modules call it,
  through a stand-in for their ``np`` name.  It does get spans.

Spans live in flat arrays until ``write_spans`` saves them.  A span's self
time is its duration minus its child spans and the poly time inside it.
Leaving the ``with`` block restores every original binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array
from collections import Counter

import numpy as np

SPAN_MODULES = ("gf2poly", "z4poly", "code", "dual", "analysis", "cli")

# DensePoly methods timed as the poly layer, by the counter they feed.
# Text forms (parse, str) are left to their callers, which are parse and render.
POLY_METHODS = {
    "_make": "make",
    "__add__": "add",
    "__sub__": "sub",
    "__neg__": "neg",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__pow__": "pow",
    "__divmod__": "divmod",
    "__floordiv__": "floordiv",
    "__mod__": "mod",
    "reciprocal": "reciprocal",
    "fold": "fold",
}


class Tracer:
    """Spans and counts for one traced stretch of package calls."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.poly_in = array("d")
        self.counts: Counter = Counter()
        self.poly_calls: Counter = Counter()
        self.poly_s = 0.0
        self._poly_depth = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installing and removing the wrappers ---------------------------

    def __enter__(self) -> Tracer:
        prefix = self.pkg.__name__
        mods = [m for n, m in list(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]
        wrapped: dict[int, tuple[object, object]] = {}
        for short in SPAN_MODULES:
            mod = sys.modules[f"{prefix}.{short}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        poly = sys.modules[f"{prefix}.poly"].DensePoly
        for meth, key in POLY_METHODS.items():
            orig = poly.__dict__[meth]
            if isinstance(orig, classmethod):
                new = classmethod(self._poly_wrap(key, orig.__func__))
            else:
                new = self._poly_wrap(key, orig)
            self._patch(poly, meth, new)
        proxy = types.ModuleType(np.__name__)
        proxy.__dict__.update(np.__dict__)
        proxy.unique = self._unique_wrap(np.unique)
        for mod in mods:
            if vars(mod).get("np") is np:
                self._patch(mod, "np", proxy)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    # -- wrappers ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, func):
        if inspect.isgeneratorfunction(func):
            return self._gen_wrap(name, func)
        after = {
            "code.codeword_matrix": self._after_codeword_matrix,
            "dual.brute_force_dual_matrix": self._after_brute_force,
        }.get(name)
        return self._span_wrap(name, func, after)

    def _span_wrap(self, name: str, func, after=None):
        nid = self._name_id(name)
        names, parent, start, end, poly_in = self.name, self.parent, self.start, self.end, self.poly_in
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            poly_in.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _gen_wrap(self, name: str, func):
        """Generators get no span (their body runs in the consumer); count yields."""
        counts = self.counts
        key = f"{name}.yields"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            for value in func(*args, **kwargs):
                counts[key] += 1
                yield value

        return wrapper

    def _poly_wrap(self, key: str, func):
        tracer = self
        calls = self.poly_calls
        stack, poly_in = self._stack, self.poly_in
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if tracer._poly_depth:
                return func(*args, **kwargs)
            tracer._poly_depth = 1
            t0 = clock()
            try:
                return func(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer._poly_depth = 0
                tracer.poly_s += dt
                if stack:
                    poly_in[stack[-1]] += dt

        return wrapper

    def _unique_wrap(self, func):
        counts = self.counts
        traced = self._span_wrap("canon.unique_rows", func)

        @functools.wraps(func)
        def wrapper(ar, *args, **kwargs):
            if kwargs.get("axis") != 0:
                return func(ar, *args, **kwargs)
            counts["canon.unique_rows.rows_in"] += len(ar)
            return traced(ar, *args, **kwargs)

        return wrapper

    def _after_codeword_matrix(self, args, result) -> None:
        self.counts["code.codeword_matrix.words"] += len(result)

    def _after_brute_force(self, args, result) -> None:
        spec = args[0]
        self.counts["dual.brute_force_dual_matrix.scanned"] += 2 ** (spec.alpha + 2 * spec.beta)
        self.counts["dual.brute_force_dual_matrix.kept"] += len(result)

    # -- reading the spans ------------------------------------------------

    def span_table(self):
        """(name id, parent, start, end, self time) as numpy arrays."""
        name = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        dur = end - start
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_s = dur - child - np.array(self.poly_in, dtype=np.float64)
        return name, parent, start, end, self_s

    def write_spans(self, path) -> None:
        name, parent, start, end, self_s = self.span_table()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent,
            start=start, end=end, self_s=self_s, poly_in=np.array(self.poly_in),
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, items: int, traced_wall: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass over `items` items."""
    name, _, start, end, self_s = tr.span_table()
    n_names = len(tr.names)
    calls = np.bincount(name, minlength=n_names)
    self_by = np.bincount(name, weights=self_s, minlength=n_names)

    def n(span: str) -> int:
        nid = tr._ids.get(span)
        return 0 if nid is None else int(calls[nid])

    def s(span: str) -> float:
        nid = tr._ids.get(span)
        return 0.0 if nid is None else float(self_by[nid])

    # codeword_matrix calls made while a search_codes call was running
    # (one thread, so nesting in time is nesting in the call tree).
    enum_in_search = 0
    if "analysis.search_codes" in tr._ids and "code.codeword_matrix" in tr._ids:
        cm = start[name == tr._ids["code.codeword_matrix"]]
        sid = name == tr._ids["analysis.search_codes"]
        for lo, hi in zip(start[sid], end[sid]):
            enum_in_search += int(np.count_nonzero((cm >= lo) & (cm <= hi)))
    scanned_specs = tr.counts["analysis.iter_valid_specs.yields"]
    c = tr.counts
    return {
        "poly.mul.calls": (tr.poly_calls["mul"], "count"),
        "poly.divmod.calls": (tr.poly_calls["divmod"], "count"),
        "poly.self_s": (tr.poly_s, "s"),
        "gf2poly.gcd.calls": (n("gf2poly.gcd"), "count"),
        "gf2poly.gcd.self_s": (s("gf2poly.gcd"), "s"),
        "gf2poly.factor_xn1.calls": (n("gf2poly.factor_xn1"), "count"),
        "gf2poly.divisors_xn1.calls": (n("gf2poly.divisors_xn1"), "count"),
        "z4poly.hensel_lift.calls": (n("z4poly.hensel_lift"), "count"),
        "z4poly.hensel_lift.self_s": (s("z4poly.hensel_lift"), "s"),
        "code.validate_spec.calls": (n("code.validate_spec"), "count"),
        "code.validate_spec.self_s": (s("code.validate_spec"), "s"),
        "code.validate_spec.per_item": (_ratio(n("code.validate_spec"), items), "calls/item"),
        "code.code_type.self_s": (s("code.code_type"), "s"),
        "code.codeword_matrix.calls": (n("code.codeword_matrix"), "count"),
        "code.codeword_matrix.self_s": (s("code.codeword_matrix"), "s"),
        "code.codeword_matrix.words": (c["code.codeword_matrix.words"], "count"),
        "code.code_type_from_words.self_s": (s("code.code_type_from_words"), "s"),
        "code.circ_product.calls": (n("code.circ_product"), "count"),
        "code.circ_product.self_s": (s("code.circ_product"), "s"),
        "canon.unique_rows.calls": (n("canon.unique_rows"), "count"),
        "canon.unique_rows.self_s": (s("canon.unique_rows"), "s"),
        "canon.unique_rows.rows_in": (c["canon.unique_rows.rows_in"], "count"),
        "canon.share": (_ratio(s("canon.unique_rows"), traced_wall), "ratio"),
        "dual.dual_generators.calls": (n("dual.dual_generators"), "count"),
        "dual.dual_generators.self_s": (s("dual.dual_generators"), "s"),
        "dual.dual_spec.calls": (n("dual.dual_spec"), "count"),
        "dual.dual_degrees.calls": (n("dual.dual_degrees"), "count"),
        "dual.brute_force_dual_matrix.calls": (n("dual.brute_force_dual_matrix"), "count"),
        "dual.brute_force_dual_matrix.self_s": (s("dual.brute_force_dual_matrix"), "s"),
        "dual.brute_force_dual_matrix.scanned": (c["dual.brute_force_dual_matrix.scanned"], "count"),
        "dual.brute_force_dual_matrix.keep_ratio": (
            _ratio(c["dual.brute_force_dual_matrix.kept"], c["dual.brute_force_dual_matrix.scanned"]),
            "ratio",
        ),
        "analysis.code_report.self_s": (s("analysis.code_report"), "s"),
        "analysis.verify_code.self_s": (s("analysis.verify_code"), "s"),
        "analysis.search_codes.self_s": (s("analysis.search_codes"), "s"),
        "analysis.search.dedup_enumerations": (_ratio(enum_in_search, scanned_specs), "calls/spec"),
        "cli.run.self_s": (s("cli.run"), "s"),
    }
