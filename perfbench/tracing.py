"""Span tracing for the benchmark's traced run.

The tracer wraps the public entry points of each jetfields layer from the
outside: the program itself is not edited.  Each wrapped call records one
span (name, start, end, parent) in flat in-memory arrays; nothing is
written until the run ends.  Spans of one request share a root: a suite
trial (``suite.trial``) or a calculator request (``cli.main``).

After the wrapped call returns, the wrapper also measures the result
(term counts, coefficient bit lengths).  That measuring happens after the
span's ``end`` and before its ``close``; a parent's self time excludes
its children up to their ``close``, so measuring is charged to no layer.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

# Layer name -> the (module, attribute path) pairs it wraps.  Every copy of
# each original object found in a jetfields module or class namespace is
# replaced, so names imported with ``from .maps import matrix_inverse``
# (as fields.py and suite.py do) are traced too.
TARGETS: dict[str, list[tuple[str, str]]] = {
    "jets.mul": [("jetfields.jets", "Jet.__mul__")],
    "jets.substitute": [("jetfields.jets", "Jet.substitute")],
    "jets.invert_unit": [("jetfields.jets", "Jet.invert_unit")],
    "jets.matmul": [("jetfields.jets", "JetMatrix.__matmul__")],
    "jets.det": [("jetfields.jets", "JetMatrix.det")],
    "linalg.inverse": [("jetfields.linalg", "inverse")],
    "maps.invert": [("jetfields.maps", "FormalMap.invert")],
    "maps.compose": [("jetfields.maps", "FormalMap.compose")],
    "maps.matrix_inverse": [("jetfields.maps", "matrix_inverse")],
    "maps.jacobian_matrix": [("jetfields.maps", "FormalMap.jacobian_matrix")],
    "maps.sample": [
        ("jetfields.maps", "random_automorphism"),
        ("jetfields.maps", "random_const_jacobian"),
    ],
    "fields.pushforward": [("jetfields.fields", "pushforward")],
    "fields.bracket": [("jetfields.fields", "Derivation.bracket")],
    "fields.apply": [("jetfields.fields", "Derivation.apply")],
    "fields.divergence": [("jetfields.fields", "Derivation.divergence")],
    "fields.sample": [
        ("jetfields.fields", "random_field"),
        ("jetfields.fields", "random_divergence_free"),
    ],
    "syntax.parse": [
        ("jetfields.syntax", "parse_series"),
        ("jetfields.syntax", "parse_field"),
        ("jetfields.syntax", "parse_map"),
    ],
    "syntax.format": [
        ("jetfields.jets", "Jet.__str__"),
        ("jetfields.jets", "JetMatrix.__str__"),
        ("jetfields.maps", "FormalMap.__str__"),
        ("jetfields.fields", "Derivation.__str__"),
    ],
    "cli.main": [("jetfields.cli", "main")],
    "cli.build_parser": [("jetfields.cli", "build_parser")],
    "suite.trial": [("jetfields.suite", "run_check")],
}

# Spans whose results feed the jets.terms_out count.
TERMS_OUT = ("jets.mul", "jets.substitute")


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the part of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a = max(a, reach)
        b = min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    """Records spans in flat arrays; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.close = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._kinds: dict[type, str] = {}
        self.terms_out = 0
        self.max_terms = 0
        self.max_bits = 0

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self._intern(name)
        counts_terms = name in TERMS_OUT
        clock, stack = self.clock, self._stack
        name_id, parent, start, end, close = (
            self.name_id, self.parent, self.start, self.end, self.close)
        observe = self._observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            close.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = clock()
                end[idx] = t
                close[idx] = t
                stack.pop()
            observe(result, counts_terms)
            close[idx] = clock()
            return result

        return traced

    # result measurement

    def _observe(self, result, counts_terms: bool) -> None:
        kind = self._kinds.get(type(result))
        if kind is None:
            return
        if kind == "jet":
            jets = (result,)
        elif kind == "matrix":
            jets = [e for row in result.rows for e in row]
        elif kind == "map":
            jets = result.images
        elif kind == "field":
            jets = result.coefficients
        else:  # a list of rows of rationals, from linalg.inverse
            self._bits(c for row in result for c in row)
            return
        for jet in jets:
            terms = jet.terms
            if counts_terms:
                self.terms_out += len(terms)
            if len(terms) > self.max_terms:
                self.max_terms = len(terms)
            self._bits(terms.values())

    def _bits(self, coeffs) -> None:
        top = self.max_bits
        for c in coeffs:
            b = max(c.numerator.bit_length(), c.denominator.bit_length())
            if b > top:
                top = b
        self.max_bits = top

    # installation

    def install(self) -> None:
        """Wrap every target, binding each copy of the original object."""
        from jetfields import cli, fields, jets, maps, suite  # noqa: F401

        self._kinds = {
            jets.Jet: "jet", jets.JetMatrix: "matrix",
            maps.FormalMap: "map", fields.Derivation: "field", list: "rows",
        }
        modules = [m for k, m in sys.modules.items()
                   if k == "jetfields" or k.startswith("jetfields.")]
        holders = list(modules)
        for mod in modules:
            holders += [v for v in vars(mod).values()
                        if isinstance(v, type) and v.__module__.startswith("jetfields")]
        for name, paths in TARGETS.items():
            for modname, path in paths:
                owner = sys.modules[modname]
                for part in path.split("."):
                    owner = getattr(owner, part)  # AttributeError if renamed
                self._bind(owner, self.wrap(name, owner), holders)
        for cd in suite.CHECKS.values():
            for attr, name in (("generate", "suite.generate"), ("evaluate", "suite.evaluate")):
                original = getattr(cd, attr)
                object.__setattr__(cd, attr, self.wrap(name, original))
                self._patches.append((object.__setattr__, cd, attr, original))

    def _bind(self, original, wrapped, holders) -> None:
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
                    self._patches.append((setattr, holder, key, original))

    def uninstall(self) -> None:
        """Put every wrapped object back."""
        for setter, holder, key, original in reversed(self._patches):
            setter(holder, key, original)
        self._patches.clear()

    # aggregation and output

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its children cover."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p].append(i)
        start, end, close = self.start, self.end, self.close
        out = []
        for i in range(len(start)):
            kids = children.get(i)
            dur = end[i] - start[i]
            if kids:
                dur -= covered(start[i], end[i], [(start[c], close[c]) for c in kids])
            out.append(dur)
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer name: span count and total self time in seconds."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for nid, s in zip(self.name_id, self.self_times()):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += s
        return out

    def write(self, path) -> None:
        """Write every span as gzipped JSON."""
        spans = [
            [self.names[n], p, s, e, c]
            for n, p, s, e, c in zip(self.name_id, self.parent, self.start,
                                     self.end, self.close)
        ]
        doc = {"fields": ["name", "parent", "start", "end", "close"], "spans": spans}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
