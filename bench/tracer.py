"""In-memory span recorder for the benchmark's traced runs.

The wrappers live here, outside the package. Each traced function is replaced
in every ``citemetrics`` module that binds it, so a call made through
``cli.load_dataset`` and one made through ``ingest.load_dataset`` both record
a span, and a traced call made inside another becomes its child span.

A span is ``[name, start_ns, end_ns, parent, op]``: ``parent`` is the index of
the enclosing span in the same list (-1 at top level) and ``op`` the
operation id the benchmark assigned before the call.
"""

from __future__ import annotations

import importlib
import math
import statistics
import sys
import time
from functools import wraps

# (module, function) pairs, named as in the package.
FUNCTIONS = (
    ("cli", "run"),
    ("cli", "_build_parser"),
    ("cli", "_emit"),
    ("ingest", "load_dataset"),
    ("ingest", "parse_csv"),
    ("ingest", "store_dataset"),
    ("model", "build_ranked_set"),
    ("indices", "derive_rates"),
    ("rankstats", "rank_series"),
    ("rankstats", "zipf_fit"),
    ("rankstats", "set_overlap"),
    ("distfit", "empirical_pdf"),
    ("distfit", "pareto_tail_fit"),
    ("distfit", "gumbel_fit"),
    ("distfit", "gumbel_curve_ks"),
    ("correlate", "pearson"),
    ("correlate", "dynamic_correlation"),
    ("correlate", "cross_measure_correlation"),
    ("correlate", "correlation_matrix"),
    ("correlate", "binned_trend"),
    ("synthgen", "build_fixture"),
    ("synthgen", "sample_pareto"),
    ("synthgen", "sample_gumbel_log"),
)
# Dataclasses that validate in __post_init__; the span takes the class name.
# JournalYearRecord is left out: one span per row would cost more than the
# validation it measures, and its time stays in the caller's self time.
CLASSES = (("model", "RankedSet"), ("rankstats", "RankSeries"))


def size_tag(samples) -> str:
    """``n1e3`` for about a thousand samples, ``n1e6`` for about a million."""
    return f"n1e{round(math.log10(max(len(samples), 1)))}"


def _pareto_label(samples, *args, **kwargs) -> str:
    return size_tag(samples)


def _gumbel_label(scaled_rates, method=None, *args, **kwargs) -> str:
    method = "lsq" if method is not None and method.value == "log_log_least_squares" else "mle"
    return f"{method}.{size_tag(scaled_rates)}"


# Spans of these functions are split by sample size (and fit method), so the
# same kernel at paper scale and at 1e6 samples reads as separate layers.
LABELS = {
    "distfit.pareto_tail_fit": _pareto_label,
    "distfit.gumbel_fit": _gumbel_label,
}


class Tracer:
    """Records spans for one process; ``op`` tags the spans that follow."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        label = LABELS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            span_name = f"{name}.{label(*args, **kwargs)}" if label else name
            span = [span_name, 0, 0, self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()

        return traced

    def install(self):
        """Patch every traced name in the loaded package; returns the undo."""
        modules = {m: importlib.import_module(f"citemetrics.{m}") for m, _ in FUNCTIONS + CLASSES}
        package = [
            mod for key, mod in list(sys.modules.items())
            if key == "citemetrics" or key.startswith("citemetrics.")
        ]
        undo = []
        for mod_name, attr in FUNCTIONS:
            original = getattr(modules[mod_name], attr)
            wrapper = self.wrap(f"{mod_name}.{attr}", original)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name in CLASSES:
            cls = getattr(modules[mod_name], cls_name)
            undo.append((cls, "__post_init__", cls.__post_init__))
            cls.__post_init__ = self.wrap(f"{mod_name}.{cls_name}", cls.__post_init__)

        def restore():
            for obj, key, value in reversed(undo):
                setattr(obj, key, value)

        return restore


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, busy seconds and self seconds.

    Busy time counts only the outermost span of a name, so a nested call of
    the same name is not counted twice. Self time is a span's duration minus
    that of its direct children, which never overlap in one thread.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, _op) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["self_ns"] += end - start - child_ns[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            row["busy_ns"] += end - start
    return out


def per_cycle(cycles: list[list[list[list]]]) -> tuple[dict[str, dict], list[str]]:
    """Median busy/self seconds per cycle and the exact calls per cycle.

    A cycle is a list of operations, each with its own span list. Every cycle
    runs the same operations, so calls must agree between cycles; names whose
    counts differ are returned as drift.
    """
    summaries = []
    for ops in cycles:
        total: dict[str, dict] = {}
        for spans in ops:
            for name, row in summarize(spans).items():
                acc = total.setdefault(name, dict.fromkeys(row, 0))
                for key, value in row.items():
                    acc[key] += value
        summaries.append(total)
    names = sorted({name for s in summaries for name in s})
    out, drift = {}, []
    for name in names:
        rows = [s.get(name, {"calls": 0, "busy_ns": 0, "self_ns": 0}) for s in summaries]
        calls = {r["calls"] for r in rows}
        if len(calls) > 1:
            drift.append(name)
        out[name] = {
            "calls": max(calls),
            "busy_s": statistics.median(r["busy_ns"] for r in rows) / 1e9,
            "self_s": statistics.median(r["self_ns"] for r in rows) / 1e9,
        }
    return out, drift
