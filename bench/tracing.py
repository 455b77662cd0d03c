"""Per-layer spans recorded from outside zndisc by wrapping its functions.

``Tracer.install`` replaces each public function of the package's modules
with a timing wrapper, in every module namespace that holds it, so calls
made through ``from .ap_system import max_ap_discrepancy`` inside
``constructions`` or ``exact`` are seen too.  Spans (name, start, end,
parent, unit, attributes) stay in memory until ``write``.  A few helpers
that the Fourier checkers call tens of thousands of times per unit are left
unwrapped; their time counts toward the caller.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time

LAYERS = ("number_theory", "ap_system", "engine", "constructions", "exact", "analysis", "cli")

# Inner-loop helpers: wrapping them would add about a tenth to fourier-check.
UNWRAPPED = {
    "number_theory": {"factorize", "divisors_from_factors", "totient"},
    "analysis": {"class_sums", "class_power", "class_power_table"},
    "engine": {"entropy_weight"},
}

SCAN = ("ap_system.max_ap_discrepancy", "ap_system.max_ap_discrepancy_batch")
CONGRUENCE = ("ap_system.max_congruence_discrepancy", "ap_system.congruence_class_sums",
              "ap_system.congruence_sum")
CHECKERS = ("analysis.check_subgroup_plancherel", "analysis.verify_rhs_lower",
            "analysis.verify_lhs_upper", "analysis.mobius_identity_check",
            "analysis.mobius_inequality_check", "analysis.composite_lower_check")
WEIGHTED = ("analysis.weighted_lhs", "analysis.weighted_lhs_all_m")
BB = "exact.exact_disc[branch_and_bound]"
EXHAUSTIVE = "exact.exact_disc[exhaustive]"


def _scan_cells(args, kwargs, result):
    n = args[0].n
    return {"cells": n * (n // 2)}


def _batch_cells(args, kwargs, result):
    n, values = args[0], args[1]
    return {"cells": len(values) * n * (n // 2)}


def _constraint_pairs(args, kwargs, result):
    return {"pairs": sum(size * len(group) for size, group in result.blocks.items()
                         if float(result.deltas[size]) < size)}


def _signed(args, kwargs, result):
    x = args[0].x
    return {"points": int(x.size), "signed": int((result.values[x] != 0).sum())}


def _nodes(args, kwargs, result):
    return {"nodes": int(result.nodes_explored)}


ATTRIBUTES = {
    "ap_system.max_ap_discrepancy": _scan_cells,
    "ap_system.max_ap_discrepancy_batch": _batch_cells,
    "engine.build_c2_request": _constraint_pairs,
    "engine.partial_color": _signed,
    BB: _nodes,
}


def _exact_disc_name(args, kwargs):
    method = kwargs.get("method", args[1] if len(args) > 1 else "branch_and_bound")
    return f"exact.exact_disc[{method}]"


class Tracer:
    """Collects spans; ``unit`` tags each span with the unit of work it ran in."""

    def __init__(self):
        self.spans: list[list] = []
        self.unit = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = [label, clock(), 0.0, stack[-1] if stack else -1, self.unit, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            attrs = ATTRIBUTES.get(label)
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every public function of the layer modules wherever it is bound."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        for layer in LAYERS:
            module = getattr(package, layer)
            names = getattr(module, "__all__", None) or [
                k for k in vars(module) if k == "main" or k.startswith("cmd_")]
            for fname in names:
                fn = getattr(module, fname)
                if (not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn)
                        or fn.__module__ != module.__name__
                        or fname in UNWRAPPED.get(layer, ())):
                    continue
                name = _exact_disc_name if fname == "exact_disc" else f"{layer}.{fname}"
                wrapper = self._wrap(name, fn)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._restore.append((mod, key, fn))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._restore):
            setattr(mod, key, fn)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, unit, attrs in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - self._t0, "end": end - self._t0,
                    "parent": parent, "unit": unit, "attrs": attrs,
                }) + "\n")

    def per_layer(self, units) -> dict[str, float]:
        """Median over the given units of each per-layer metric."""
        per_unit = [_unit_metrics(self.spans, u) for u in units]
        return {name: statistics.median(m[name] for m in per_unit) for name in per_unit[0]}


def _unit_metrics(spans: list[list], unit) -> dict[str, float]:
    idx = [i for i, s in enumerate(spans) if s[4] == unit]
    child = {i: 0.0 for i in idx}
    for i in idx:
        parent = spans[i][3]
        if parent in child:
            child[parent] += spans[i][2] - spans[i][1]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][3]

    def outer(names):
        """Spans of the group not nested in another span of the group."""
        group = set(names)
        return [i for i in idx if spans[i][0] in group
                and not any(a in group for a in ancestors(i))]

    def total(names):
        return sum(spans[i][2] - spans[i][1] for i in outer(names))

    def attr(names, key):
        return sum(spans[i][5][key] for i in outer(names) if spans[i][5])

    def self_time(pred):
        return sum(spans[i][2] - spans[i][1] - child[i] for i in idx if pred(spans[i][0]))

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    scan_s = total(SCAN)
    bb_s = total((BB,))
    requests = [i for i in idx if spans[i][0] == "engine.partial_color"]
    points = sum(spans[i][5]["points"] for i in requests)
    checks = outer(CHECKERS)
    checks_s = sum(spans[i][2] - spans[i][1] for i in checks)
    return {
        "number_theory.make_context_s": total(("number_theory.make_context",)),
        "ap_system.scan_s": scan_s,
        "ap_system.scan_calls": len(outer(SCAN)),
        "ap_system.scan_cells_per_s": rate(attr(SCAN, "cells"), scan_s),
        "ap_system.congruence_s": total(CONGRUENCE),
        "ap_system.complex_scan_s": total(("ap_system.max_ap_sum_complex",)),
        "engine.requests": len(requests),
        "engine.build_s": total(("engine.build_c2_request",)),
        "engine.constraint_pairs": attr(("engine.build_c2_request",), "pairs"),
        "engine.color_s": total(("engine.partial_color",)),
        "engine.colored_fraction": rate(attr(("engine.partial_color",), "signed"), points),
        "constructions.cells": len([i for i in idx if spans[i][0] in (
            "constructions.crt_box_coloring", "constructions.interval_doubling_coloring")]),
        "constructions.self_s": self_time(lambda s: s.startswith("constructions.")),
        "exact.bb_s": bb_s,
        "exact.bb_nodes": attr((BB,), "nodes"),
        "exact.bb_nodes_per_s": rate(attr((BB,), "nodes"), bb_s),
        "exact.exhaustive_s": total((EXHAUSTIVE,)),
        "exact.herdisc_s": total(("exact.exact_herdisc",)),
        "exact.measure_s": total(("exact.measure",)),
        "analysis.weighted_lhs_s": total(WEIGHTED),
        "analysis.spectral_s": self_time(
            lambda s: s.startswith("analysis.") and s not in WEIGHTED),
        "analysis.checks_per_s": rate(len(checks), checks_s),
        "cli.self_s": self_time(lambda s: s.startswith("cli.")),
    }
