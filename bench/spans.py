"""In-memory spans around the public functions of the cemasim modules.

A span is (name, start, end, parent). Spans stay in memory while the traced
jobs run and are written out once at the end. A span's self time is its
duration minus the time its child spans cover. Best responses are counted,
not spanned: they run once per node and round, and a span each would cost
more than the work it measures.

`install` rebinds a function in every `cemasim` module that holds it, because
`from .x import f` makes a second binding that patching `x.f` alone would
miss (for example `cli.validate_scenario` and `engine.validate_scenario`).
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import defaultdict

# (module, function) pairs that get a span, by the span's name.
SPANNED = (
    ("cli", "main"),
    ("scenario", "load_scenario"),
    ("scenario", "validate_scenario"),
    ("engine", "run"),
    ("engine", "lambda_step"),
    ("engine", "power_step"),
    ("engine", "write_trace_csv"),
    ("engine", "write_round_summary_csv"),
    ("oracle", "solve_centralized"),
    ("oracle", "kkt_check"),
    ("oracle", "implied_prices"),
    ("oracle", "brute_force_reference"),
)
# Functions whose calls are only counted, under one counter each.
COUNTED = {
    "best_response.calls": (
        ("best_response", "generator_response_original"),
        ("best_response", "generator_response_corrected"),
        ("best_response", "consumer_response"),
    ),
}

START, END, CHILD = 1, 2, 4  # fields of a span record [name, start, end, parent, child]


def axis_points(lo: float, hi: float, step: float) -> int:
    """Points of a brute-force grid axis: lo, lo+step, ... and hi itself."""
    k = math.floor((hi - lo) / step) + 1
    return k + 1 if lo + step * (k - 1) < hi else k


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)

    def span(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = end = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - rec[START]
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "cemasim" or k.startswith("cemasim.")]
        for module, fname in SPANNED:
            fn = getattr(sys.modules.get(f"cemasim.{module}"), fname, None)
            if fn is not None:
                name = f"{module}.{fname}"
                _rebind(modules, fn, self.span(name, fn, _AFTER.get(name)))
        for counter, targets in COUNTED.items():
            for module, fname in targets:
                fn = getattr(sys.modules.get(f"cemasim.{module}"), fname, None)
                if fn is not None:
                    _rebind(modules, fn, self.counter(counter, fn))

    def totals(self) -> dict:
        """{name: {"calls", "total_s", "self_s"}} over every span recorded."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for name, start, end, _, child in self.spans:
            t = out[name]
            t["calls"] += 1
            t["total_s"] += end - start
            t["self_s"] += end - start - child
        return dict(out)

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write("id,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                f.write(f"{i},{parent},{name},{start:.9f},{end:.9f}\n")


def _rebind(modules, fn, wrapper) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)


def _after_run(counts, args, result):
    rounds = getattr(result, "rounds", 0)
    counts["engine.rounds"] += rounds
    counts["engine.node_rounds"] += rounds * args[0].n_nodes


def _after_power_step(counts, args, result):
    counts["engine.node_evals"] += len(result)


def _after_solve(counts, args, result):
    counts["oracle.bisect_iters"] += getattr(result, "iterations", 0)


def _after_brute(counts, args, result):
    scenario, step = args[0], args[1]
    points = 1
    for g in scenario.generators:
        points *= axis_points(g.p_min, g.p_max, step)
    counts["oracle.brute_points"] += points


_AFTER = {
    "engine.run": _after_run,
    "engine.power_step": _after_power_step,
    "oracle.solve_centralized": _after_solve,
    "oracle.brute_force_reference": _after_brute,
}
