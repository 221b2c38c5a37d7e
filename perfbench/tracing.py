"""Per-layer spans for minordet, recorded from outside the package.

The tracer wraps public functions of minordet and rebinds every name that
refers to them, in every loaded minordet module, so calls made inside the
package through names imported from another module are seen too.  It also
rebinds the `det=` defaults that functions captured when they were defined.

A span is [name, start, end, parent index, counts]; spans stay in memory
until the caller aggregates or writes them.  Spans come from one thread's
call stack, so the children of a span never overlap and the time they cover
is the sum of their durations.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from types import FunctionType

BUILDERS = ("identities.compound_minor_products", "identities.compound_minors")
BAREISS = "exactmat.det_bareiss"

# Counters some spans carry, in the order their counts tuple holds them.
COUNTERS = {
    "polyring.accumulate_product": ("term_mults",),
    "polyring.exact_div": ("dividend_terms", "quotient_terms"),
    "exactmat.det_laplace": ("out_terms",),
    BAREISS + ".compound": ("bits",),
}


def _term_mults(tracer, rec, args, result):
    rec[4] = (len(args[1].terms) * len(args[2].terms),)


def _division_terms(tracer, rec, args, result):
    rec[4] = (len(args[0].terms), len(result.terms) if result is not None else 0)


def _out_terms(tracer, rec, args, result):
    rec[4] = (len(result.terms) if hasattr(result, "terms") else 0,)


def _remember_compound(tracer, rec, args, result):
    tracer.last_compound = result.matrix


def _classify_bareiss(tracer, rec, args, result):
    """A det_bareiss span is a minor under a compound builder, otherwise the
    compound determinant when its argument is the compound just built, and
    otherwise a divisor (det A or det B)."""
    parent = rec[3]
    if parent >= 0 and tracer.spans[parent][0] in BUILDERS:
        rec[0] = BAREISS + ".minor"
    elif args[0] is tracer.last_compound:
        rec[0] = BAREISS + ".compound"
        rec[4] = (abs(result).bit_length(),)
    else:
        rec[0] = BAREISS + ".divisor"


# (module, attribute path, span name, finisher run after the call)
TARGETS = (
    ("minordet.polyring", "accumulate_product", "polyring.accumulate_product", _term_mults),
    ("minordet.polyring", "exact_div", "polyring.exact_div", _division_terms),
    ("minordet.polyring", "Polynomial.__mul__", "polyring.Polynomial.__mul__", None),
    ("minordet.exactmat", "submatrix", "exactmat.submatrix", None),
    ("minordet.exactmat", "det_laplace", "exactmat.det_laplace", _out_terms),
    ("minordet.exactmat", "det_bareiss", BAREISS, _classify_bareiss),
    ("minordet.identities", "compound_minors", "identities.compound_minors", _remember_compound),
    ("minordet.identities", "compound_minor_products", "identities.compound_minor_products", _remember_compound),
    ("minordet.oracle", "fuzz_divisibility", "oracle.fuzz_divisibility", None),
    ("minordet.oracle", "negative_control", "oracle.negative_control", None),
    ("minordet.oracle", "random_instance", "oracle.random_instance", None),
)


def _resolve(module_name: str, path: str):
    obj = sys.modules[module_name]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _minordet_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "minordet" or name.startswith("minordet.")]


class Tracer:
    """Records spans around minordet's public functions while installed and active."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = True
        self.last_compound = None
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn, finish):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if finish is not None:
                finish(tracer, rec, args, result)
            return result

        return traced

    def call(self, name: str, fn):
        """Run fn() inside a root span of its own, e.g. one benchmark case."""
        return self._wrap(name, fn, None)()

    def install(self) -> None:
        """Wrap every target and rebind each name and default that refers to one."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        wrapped = {}
        for module_name, path, name, finish in TARGETS:
            original = _resolve(module_name, path)
            wrapped[id(original)] = (original, self._wrap(name, original, finish))

        def replacement(value):
            hit = wrapped.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        seen_functions = set()
        for module in _minordet_modules():
            for attr, value in list(vars(module).items()):
                new = replacement(value)
                if new is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, new)
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    for cattr, cvalue in list(vars(value).items()):
                        new = replacement(cvalue)
                        if new is not None:
                            self._undo.append((value, cattr, cvalue))
                            setattr(value, cattr, new)
                if isinstance(value, FunctionType) and value.__defaults__ and id(value) not in seen_functions:
                    seen_functions.add(id(value))
                    defaults = value.__defaults__
                    new_defaults = tuple(replacement(d) or d for d in defaults)
                    if new_defaults != defaults:
                        self._undo.append((value, "__defaults__", defaults))
                        value.__defaults__ = new_defaults

    def uninstall(self) -> None:
        while self._undo:
            setattr(*self._undo.pop())
        self.last_compound = None

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        self.last_compound = None
        return spans


def aggregate(spans: list[list]) -> dict[str, float]:
    """Per span name: calls, busy_s, self_s, counters; plus minors per builder.

    busy_s counts a span only when no ancestor has the same name, so nested
    calls of one layer are not counted twice; self_s is a span's duration
    minus the time its child spans cover.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, counts in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, counts) in enumerate(spans):
        duration = end - start
        out[name + ".calls"] += 1
        out[name + ".self_s"] += duration - covered[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[name + ".busy_s"] += duration
        if counts:
            for key, value in zip(COUNTERS[name], counts):
                out[f"{name}.{key}"] += value
        if parent >= 0 and spans[parent][0] in BUILDERS and name.startswith("exactmat.det_"):
            out[spans[parent][0] + ".minors"] += 1
    return out


def write_spans(spans: list[list], path) -> None:
    """One JSON array per line: name, start_s, end_s, parent index, counts."""
    with open(path, "w") as fh:
        for rec in spans:
            fh.write(json.dumps(rec))
            fh.write("\n")
