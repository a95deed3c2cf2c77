"""Shared numeric kernels against test-local copies of the loops they replaced.

``binned_rank_average`` and ``binned_trend`` share ``rankstats.binned_mean``,
and the Pareto auto-``x_min`` scan measures each candidate with
``ks_statistic_samples``. The references below are the former per-function
loops, copied unchanged; every property requires equal results (``==``).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from citemetrics.correlate import binned_trend
from citemetrics.distfit import pareto_tail_fit
from citemetrics.errors import ValidationError
from citemetrics.model import Basis, Discipline, Measure
from citemetrics.rankstats import (
    RankSeries,
    SeriesLabel,
    binned_mean,
    binned_rank_average,
    log_rank_bins,
)
from citemetrics.synthgen import sample_pareto

LABEL = SeriesLabel(Discipline.SCI, Basis.CITATIONS, 2000, Measure.RATE)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValidationError as exc:
        return ("error", str(exc))


# --- former binning loops ------------------------------------------------------


def former_binned_rank_average(series, bin_edges=None):
    ranks = np.asarray(series.ranks, dtype=float)
    values = np.asarray(series.values, dtype=float)
    if bin_edges is None:
        edges = log_rank_bins(int(ranks.max()))
    else:
        edges = np.asarray(bin_edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValidationError("bin edges must be a strictly increasing 1-d sequence")
    if edges[0] > ranks.min() or edges[-1] < ranks.max():
        raise ValidationError(
            f"bins [{edges[0]}, {edges[-1]}] do not cover rank range "
            f"[{ranks.min():g}, {ranks.max():g}]"
        )

    idx = np.searchsorted(edges, ranks, side="right") - 1
    idx[ranks == edges[-1]] = edges.size - 2  # top edge belongs to the last bin
    out = []
    for i in range(edges.size - 1):
        sel = values[idx == i]
        if sel.size == 0:
            continue
        center = math.sqrt(edges[i] * edges[i + 1])
        mean = float(sel.mean())
        if sel.size < 2 or np.all(sel == sel[0]):
            stderr = 0.0
        else:
            stderr = float(sel.std(ddof=1) / math.sqrt(sel.size))
        out.append((center, mean, stderr))
    return out


def former_binned_trend(xs, ys, bin_edges=None, n_bins=10):
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size == 0:
        raise ValidationError("xs and ys must be equally long 1-d series")
    if bin_edges is None:
        lo, hi = float(x.min()), float(x.max())
        if not hi > lo:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, n_bins + 1)
    else:
        edges = np.asarray(bin_edges, dtype=float)
        if edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValidationError("bin edges must be strictly increasing")

    idx = np.searchsorted(edges, x, side="right") - 1
    idx[x == edges[-1]] = edges.size - 2
    out = []
    for i in range(edges.size - 1):
        sel = y[(idx == i) & (x >= edges[0]) & (x <= edges[-1])]
        if sel.size == 0:
            continue
        center = 0.5 * (edges[i] + edges[i + 1])
        mean = float(sel.mean())
        if sel.size < 2 or np.all(sel == sel[0]):
            stderr = 0.0
        else:
            stderr = float(sel.std(ddof=1) / math.sqrt(sel.size))
        out.append((center, mean, stderr))
    return out


# Few distinct values, so bins with one sample, constant bins and x on an
# edge (the top edge included) come up often; -5 and 20 lie outside every
# edge set drawn from GRID.
GRID = [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 10.0]
edge_lists = st.lists(st.sampled_from(GRID), min_size=2, max_size=6, unique=True).map(sorted)
finite_x = st.sampled_from(GRID + [-5.0, 20.0]) | st.floats(-6.0, 21.0)
y_values = st.sampled_from([0.0, 1.0, 2.5, 7.0]) | st.floats(-100.0, 100.0)


@settings(max_examples=300, deadline=None)
@given(
    points=st.lists(st.tuples(finite_x | st.just(math.nan), y_values), min_size=1, max_size=40),
    edges=edge_lists,
)
def test_binned_mean_equals_former_trend_loop(points, edges):
    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    edges = np.array(edges)
    want = former_binned_trend(x, y, edges)
    assert binned_mean(x, y, edges, 0.5 * (edges[:-1] + edges[1:])) == want
    if np.isnan(x).any():
        assert outcome(binned_trend, x, y, edges)[0] == "error"
    else:
        assert binned_trend(x, y, edges) == want


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(st.tuples(finite_x, y_values), min_size=1, max_size=40),
    n_bins=st.integers(1, 8),
)
def test_binned_trend_default_bins_equal_former_loop(points, n_bins):
    x = [p[0] for p in points]
    y = [p[1] for p in points]
    assert binned_trend(x, y, n_bins=n_bins) == former_binned_trend(x, y, n_bins=n_bins)


rank_sets = st.sets(st.integers(1, 60), min_size=1, max_size=30).map(sorted)
rank_edges = st.none() | st.lists(
    st.sampled_from([0.5, 1.0, 2.0, 2.5, 3.0, 5.0, 8.0, 10.0, 20.0, 30.0, 60.0, 64.0]),
    min_size=2, max_size=6, unique=True,
).map(sorted)


@settings(max_examples=300, deadline=None)
@given(ranks=rank_sets, data=st.data(), edges=rank_edges)
def test_binned_rank_average_equals_former_loop(ranks, data, edges):
    values = data.draw(
        st.lists(
            st.sampled_from([1.0, 2.0, 3.5]) | st.floats(0.01, 1e3),
            min_size=len(ranks), max_size=len(ranks),
        )
    )
    series = RankSeries(tuple(ranks), tuple(values), LABEL)
    assert outcome(binned_rank_average, series, edges) == outcome(
        former_binned_rank_average, series, edges
    )


# --- former Pareto auto-x_min scan ----------------------------------------------


def former_pareto_mle(tail, x_min):
    log_ratio = np.log(tail / x_min)
    total = float(log_ratio.sum())
    if total <= 0:
        raise ValidationError("degenerate tail: all samples at x_min")
    return 1.0 + tail.size / total


def former_pareto_ks(tail, x_min, gamma):
    x = np.sort(tail)
    n = x.size
    model = 1.0 - (x_min / x) ** (gamma - 1.0)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(max(np.max(upper - model), np.max(model - lower)))


def former_pareto_auto(samples, min_tail):
    x = np.asarray(samples, dtype=float)
    lo, hi = float(x.min()), float(x.max())
    if not hi > lo:
        raise ValidationError("degenerate sample: all values equal")
    n_candidates = max(2, math.ceil((math.log10(hi) - math.log10(lo)) * 10))
    candidates = np.logspace(math.log10(lo), math.log10(hi), n_candidates + 1)[:-1]
    best = None
    for cand in candidates:
        tail = x[x >= cand]
        if tail.size < min_tail:
            continue
        g = former_pareto_mle(tail, float(cand))
        d = former_pareto_ks(tail, float(cand), g)
        if best is None or d < best[0]:
            best = (d, float(cand), g, tail)
    if best is None:
        raise ValidationError(f"no candidate x_min leaves {min_tail} tail samples")
    _, chosen, gamma, tail = best
    stderr = (gamma - 1.0) / math.sqrt(tail.size)
    return {"gamma": gamma, "x_min": chosen}, {"gamma": stderr, "x_min": 0.0}, (
        chosen, float(tail.max())
    )


def fit_triple(samples, min_tail):
    fit = pareto_tail_fit(samples, min_tail=min_tail)
    return fit.params, fit.stderr, fit.fit_range


@settings(max_examples=150, deadline=None)
@given(
    gamma=st.floats(1.3, 4.0),
    x_min=st.floats(0.01, 100.0),
    count=st.integers(20, 600),
    seed=st.integers(0, 2**32 - 1),
    min_tail=st.sampled_from([5, 20, 50]),
    decimals=st.none() | st.integers(0, 2),
)
def test_pareto_auto_xmin_equals_former_scan(gamma, x_min, count, seed, min_tail, decimals):
    samples = sample_pareto(gamma, x_min, count, seed)
    if decimals is not None:  # ties, and tails that sit on a candidate
        samples = np.maximum(np.round(samples, decimals), 10.0**-decimals)
    assert outcome(fit_triple, samples, min_tail) == outcome(former_pareto_auto, samples, min_tail)
