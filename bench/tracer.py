"""Span tracer for the traced benchmark pass: wraps degenpoly from outside.

``install(tracer)`` replaces, inside the current process only, every public
function of the six modules (``algebra``, ``egf``, ``sequences``,
``oracles``, ``verify``, ``cli``), the ring operators of ``LambdaPoly`` and
``XLPoly``, ``argparse.ArgumentParser.parse_args`` (reported as
``cli.parse_args``) and two private helpers that carry a layer's work
(``verify._agree``, once per case, and ``cli._emit_json``). Every binding
that refers to an original is re-pointed to its wrapper: the
``from .sequences import ...`` names in ``verify``, ``cli``, ``egf`` and
the package, and the class aliases ``__radd__ = __add__`` and
``__rmul__ = __mul__``. Otherwise those calls would run uncounted.

Per wrapped name the tracer keeps calls, total time and self time. Self
time is a call's duration minus the time its wrapped callees cover,
including their bookkeeping, so tracing cost lands in no layer's self time.

Every wrapped call except the ring operators, which run millions of times
and are only aggregated, records a span (name, start, end, parent span,
operation id) in memory until SPAN_LIMIT spans are held; later ones are
counted as dropped. The spans are written out when the pass ends.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
import time
from math import factorial
from typing import Callable, Dict, List, Optional

MODULES = ("algebra", "egf", "sequences", "oracles", "verify", "cli")

RING_METHODS = {
    "LambdaPoly": ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__eq__",
                   "eval", "scale_lambda"),
    "XLPoly": ("__init__", "__add__", "__sub__", "__mul__", "eval_x", "eval_lambda"),
}

#: Functions whose label carries their route argument, e.g.
#: ``sequences.eulerian_table.explicit``.
ROUTED = {"sequences.eulerian_table", "sequences.power_sum"}

PRIVATE_LAYER_FUNCTIONS = {"verify": ("_agree",), "cli": ("_emit_json",)}

#: Spans held per pass; a suite pass records about 21k.
SPAN_LIMIT = 50_000


class Tracer:
    def __init__(self):
        #: label -> [calls, total_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        #: name -> count, for counts that are not calls
        self.counts: Dict[str, int] = {}
        self.spans: List[list] = []
        self.spans_dropped = 0
        self.op: Optional[int] = None
        self.max_coeff_bits = 0
        self.max_lambda_degree = -1
        self.eulerian_tables = set()
        # frames: [label, child_s, index of the nearest span held]
        self._stack: List[list] = []

    def wrap(self, fn: Callable, label: str, record_spans: bool = True,
             after: Optional[Callable] = None) -> Callable:
        """A wrapper around ``fn`` that accounts its calls under ``label``."""
        stack = self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn) if label in ROUTED else None

        def wrapper(*args, **kwargs):
            name = label
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                name = f"{label}.{bound.arguments.get('route')}"
            parent = stack[-1] if stack else None
            span = parent[2] if parent else None
            own_span = record_spans and len(self.spans) < SPAN_LIMIT
            if own_span:
                self.spans.append([name, 0.0, 0.0, span, self.op])
                span = len(self.spans) - 1
            elif record_spans:
                self.spans_dropped += 1
            frame = [name, 0.0, span]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                stat = self.stats.get(name)
                if stat is None:
                    stat = self.stats[name] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += end - start
                stat[2] += end - start - frame[1]
                if own_span:
                    self.spans[span][1:3] = (start, end)
                if ok and after is not None:
                    after(name, args, kwargs, result)
                if parent is not None:
                    parent[1] += clock() - start
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        return wrapper

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def enclosing(self, prefix: str) -> Optional[str]:
        """Label of the innermost open call whose label starts with ``prefix``."""
        for frame in reversed(self._stack):
            if frame[0].startswith(prefix):
                return frame[0]
        return None

    # -- observers run after a call, outside its timed region ---------------

    def observe_product(self, _name, _args, _kwargs, poly) -> None:
        coeffs = poly.coeffs
        if len(coeffs) - 1 > self.max_lambda_degree:
            self.max_lambda_degree = len(coeffs) - 1
        if coeffs:
            bits = max(max(abs(c.numerator) for c in coeffs).bit_length(),
                       max(c.denominator for c in coeffs).bit_length())
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits

    def observe_enumeration(self, _name, args, kwargs, _result) -> None:
        self.count("oracles.permutations", factorial(args[0] if args else kwargs["n"]))

    def observe_table(self, name, args, kwargs, _result) -> None:
        self.eulerian_tables.add((name, args[0] if args else kwargs["max_n"]))

    def observe_case(self, _name, _args, _kwargs, _result) -> None:
        check = self.enclosing("verify.check.")
        if check is not None:
            self.count(check + ".cases")

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def report(self) -> dict:
        return {
            "stats": self.stats,
            "counts": self.counts,
            "spans": len(self.spans),
            "spans_dropped": self.spans_dropped,
            "max_coeff_bits": self.max_coeff_bits,
            "max_lambda_degree": self.max_lambda_degree,
            "eulerian_table_distinct": len(self.eulerian_tables),
        }


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def install(tracer: Tracer) -> None:
    """Wrap degenpoly in this process; see the module docstring."""
    modules = {name: importlib.import_module(f"degenpoly.{name}") for name in MODULES}
    replaced = {}  # id(original) -> wrapper
    after = {
        "oracles.descent_distribution": tracer.observe_enumeration,
        "oracles.excedance_distribution": tracer.observe_enumeration,
        "sequences.eulerian_table": tracer.observe_table,
        "verify._agree": tracer.observe_case,
    }

    for short, module in modules.items():
        functions = list(_public_functions(module))
        functions += [(name, getattr(module, name)) for name in PRIVATE_LAYER_FUNCTIONS.get(short, ())
                      if hasattr(module, name)]
        for name, fn in functions:
            label = f"{short}.{name}"
            if label == "verify.run_check":
                replaced[id(fn)] = _wrap_run_check(tracer, fn)
            else:
                replaced[id(fn)] = tracer.wrap(fn, label, after=after.get(label))

    algebra = modules["algebra"]
    for cls_name, methods in RING_METHODS.items():
        cls = getattr(algebra, cls_name)
        for method in (m for m in methods if m in vars(cls)):
            fn = vars(cls)[method]
            observe = tracer.observe_product if (cls_name, method) == ("LambdaPoly", "__mul__") else None
            replaced[id(fn)] = tracer.wrap(fn, f"algebra.{cls_name}.{method}",
                                           record_spans=False, after=observe)
        for attr, value in list(vars(cls).items()):
            if id(value) in replaced:
                setattr(cls, attr, replaced[id(value)])

    for name, module in list(sys.modules.items()):
        if name == "degenpoly" or name.startswith("degenpoly."):
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])

    argparse.ArgumentParser.parse_args = tracer.wrap(argparse.ArgumentParser.parse_args,
                                                     "cli.parse_args")


def _wrap_run_check(tracer: Tracer, run_check: Callable) -> Callable:
    """run_check accounted per check id, as ``verify.check.<id>``."""
    wrappers: Dict[str, Callable] = {}

    def dispatch(check, *args, **kwargs):
        label = f"verify.check.{check.id}"
        if label not in wrappers:
            wrappers[label] = tracer.wrap(run_check, label)
        return wrappers[label](check, *args, **kwargs)

    dispatch.__wrapped__ = run_check
    return dispatch
