"""Shared numeric kernels against test-local copies of the loops they replaced.

``binned_rank_average`` and ``binned_trend`` share ``rankstats.binned_mean``;
``empirical_pdf``, the least-squares Gumbel fit and ``gumbel_curve_ks`` share
``distfit._binned_density``; the Pareto auto-``x_min`` scan scores each
candidate from suffix log sums of the sample sorted once and re-scores the
near-minimal ones exactly; ``RankSeries`` checks its fields as arrays; the
KS distance, the Pareto MLE and CDF and the Gumbel scale equation and
location form their temporaries in reused buffers. The references below are
the former loops and expressions, copied unchanged except that the
``RankSeries`` loop also rejects str and bytes values; every property
requires equal results (``==``) or the same error message. A last test
bounds the peak memory of the large-n fits.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citemetrics import distfit
from citemetrics.correlate import binned_trend
from citemetrics.distfit import pareto_tail_fit
from citemetrics.errors import ValidationError
from citemetrics.model import Basis, Discipline, Measure, basis_measure
from citemetrics.rankstats import (
    RankSeries,
    SeriesLabel,
    binned_mean,
    binned_rank_average,
    log_rank_bins,
    zipf_fit,
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


def scan_candidates(samples):
    lo, hi = float(np.min(samples)), float(np.max(samples))
    n_candidates = max(2, math.ceil((math.log10(hi) - math.log10(lo)) * 10))
    return np.logspace(math.log10(lo), math.log10(hi), n_candidates + 1)[:-1]


pareto_samples = st.builds(
    lambda gamma, x_min, count, seed, decimals: (
        sample_pareto(gamma, x_min, count, seed) if decimals is None
        else np.maximum(np.round(sample_pareto(gamma, x_min, count, seed), decimals),
                        10.0**-decimals)
    ),
    st.floats(1.3, 4.0), st.floats(0.01, 100.0), st.integers(20, 600),
    st.integers(0, 2**32 - 1), st.none() | st.integers(0, 2),
)


@settings(max_examples=100, deadline=None)
@given(samples=pareto_samples, min_tail=st.sampled_from([5, 20, 50]))
def test_pareto_scan_ks_distances_lie_in_unit_interval(samples, min_tail):
    seen = []
    measure = distfit._ks_sorted

    def record(x, model_cdf):
        seen.append(measure(x, model_cdf))
        return seen[-1]

    with mock.patch.object(distfit, "_ks_sorted", record):
        outcome(pareto_tail_fit, samples, min_tail=min_tail)
    assert all(0.0 <= d <= 1.0 for d in seen)


def test_pareto_scan_equals_former_scan_at_1e5_with_ties_and_early_stop():
    samples = sample_pareto(2.43, 1.0, 100_000, 20101000)
    candidates = scan_candidates(samples)
    # Put 40 samples exactly on each of five candidate cutoffs, away from the
    # sample's minimum and maximum so the candidates stay the same.
    inner = np.flatnonzero((samples > samples.min()) & (samples < samples.max()))
    for j, cand in enumerate(candidates[[1, 5, 10, 20, 30]]):
        samples[inner[40 * j:40 * (j + 1)]] = cand
    assert np.array_equal(scan_candidates(samples), candidates)
    assert all(np.any(samples == c) for c in candidates[[1, 5, 10, 20, 30]])
    for min_tail in (50, 20_000):
        assert outcome(fit_triple, samples, min_tail) == outcome(
            former_pareto_auto, samples, min_tail
        )
    # with 20 000 the last candidates leave too few samples and end the scan
    assert np.sum(samples >= candidates[-1]) < 20_000 <= np.sum(samples >= candidates[1])


def progressive_pareto_scan(samples, min_tail):
    """The one-pass auto-x_min scan the two-pass scan replaced: each tail is
    filtered from the one before and every candidate is scored exactly, with
    the test-local former kernels in place of the package's."""
    x = np.asarray(samples, dtype=float)
    lo, hi = float(x.min()), float(x.max())
    if not hi > lo:
        raise ValidationError("degenerate sample: all values equal")
    xs = np.sort(x)
    tail = x
    best = None
    for cand in scan_candidates(x).tolist():
        tail = tail[tail >= cand]
        if tail.size < min_tail:
            break
        g = former_pareto_mle(tail, cand)
        d = former_ks_sorted(xs[xs.size - tail.size:], lambda t: 1.0 - (cand / t) ** (g - 1.0))
        if best is None or d < best[0]:
            best = (d, cand, g, tail.size)
    if best is None:
        raise ValidationError(f"no candidate x_min leaves {min_tail} tail samples")
    _, chosen, gamma, m = best
    return {"gamma": gamma, "x_min": chosen}, {"gamma": (gamma - 1.0) / math.sqrt(m),
                                               "x_min": 0.0}, (chosen, hi)


@st.composite
def scan_inputs(draw):
    """Pareto draws over scales 1e-100..1e100 and exponents from 1.1 (spans of
    tens of decades) to 40 (spans under a tenth of one), or samples 1 to 1e6
    ulps wide (whose fast scores are not all trusted and whose tails can be
    degenerate); with ties, samples on candidate cutoffs, and a minimum tail
    straddling some candidate's tail size."""
    x_min = 10.0 ** draw(st.floats(-100, 100))
    ulps = draw(st.none() | st.floats(0, 6))
    if ulps is not None:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        offsets = rng.integers(0, int(10**ulps) + 1, draw(st.integers(50, 300)))
        x = x_min + np.spacing(x_min) * offsets
    else:
        x = sample_pareto(draw(st.floats(1.1, 40.0)), x_min, draw(st.integers(50, 5_000)),
                          draw(st.integers(0, 2**32 - 1)))
        decimals = draw(st.none() | st.integers(0, 3))
        if decimals is not None:  # a few distinct values
            x = x_min * np.round(x / x_min, decimals)
    candidates = scan_candidates(x)
    inner = np.flatnonzero((x > x.min()) & (x < x.max()))
    for j, k in enumerate(draw(st.lists(st.integers(1, candidates.size - 1), max_size=4))):
        x[inner[20 * j:20 * (j + 1)]] = candidates[k]  # min and max stay, and so the candidates
    sizes = x.size - np.searchsorted(np.sort(x), candidates)
    min_tail = draw(st.sampled_from([1, 5, 50]) | st.builds(
        lambda k, delta: int(sizes[k % sizes.size]) + delta,
        st.integers(0, 2**16), st.integers(-1, 1),
    ))
    return x, min_tail


# Eight ulps wide: every candidate rounds to the maximum, whose tail is degenerate.
ULP_WIDE = 123456.0 + np.spacing(123456.0) * np.repeat(np.arange(9.0), [60, 60] + [10] * 7)


@pytest.mark.parametrize("slack", ["default", "inf"])
@settings(max_examples=150, deadline=None)
@given(inputs=scan_inputs())
@example(inputs=(ULP_WIDE, 1))
def test_pareto_two_pass_scan_equals_progressive_scan(slack, inputs):
    """With the module's slack, and with every candidate re-scored exactly."""
    samples, min_tail = inputs
    patch = {"default": distfit._SCAN_SLACK, "inf": math.inf}[slack]
    with mock.patch.object(distfit, "_SCAN_SLACK", patch):
        got = outcome(fit_triple, samples, min_tail)
    assert got == outcome(progressive_pareto_scan, samples, min_tail)


# --- former large-n fit expressions ----------------------------------------------

# Above 256 KiB (32,768 float64) numpy forms some of an expression's
# temporaries in place; 40,000 is above that size and the others below.
KERNEL_SIZES = (60, 2_000, 40_000)


def former_ks_sorted(x, model_cdf):
    n = x.size
    f = np.asarray(model_cdf(x), dtype=float)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(max(np.max(upper - f), np.max(f - lower)))


def former_gumbel_scale_equation(x, xs):
    x_bar = float(x.mean())

    def imbalance(b):
        w = np.exp(-xs / b)
        return b - x_bar + float((x * w).sum() / w.sum())

    return imbalance


def former_gumbel_location(xs, shift, b):
    return shift - b * math.log(float(np.exp(-xs / b).mean()))


def kernel_samples(n, seed):
    """A Pareto sample, with every third seed rounded for ties."""
    x = sample_pareto(2.43, 1.0, n, seed)
    return np.round(x, 1) if seed % 3 == 0 else x


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_ks_sorted_equals_former_expression(n):
    for seed in range(6):
        x = np.sort(kernel_samples(n, seed))
        cdfs = [
            lambda t: distfit._pareto_cdf(t, float(x[0]), 2.43),
            lambda t: 1.0 - (float(x[0]) / t) ** 1.43,
            lambda t: t / t[-1],
            lambda t: np.full(t.size, 0.5),
        ]
        for cdf in cdfs:
            assert distfit._ks_sorted(x, cdf) == former_ks_sorted(x, cdf)
    # a model CDF may hand back its argument, which must not be written to
    u = np.sort(np.random.default_rng(n).uniform(size=n))
    kept = u.copy()
    assert distfit._ks_sorted(u, lambda t: t) == former_ks_sorted(kept, lambda t: t)
    assert np.array_equal(u, kept)


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_pareto_mle_and_cdf_equal_former_expressions(n):
    for seed in range(6):
        x = kernel_samples(n, seed)
        for x_min in (float(x.min()), float(np.median(x)), 1.3):
            tail = x[x >= x_min]
            assert outcome(distfit._pareto_mle, tail, x_min) == outcome(
                former_pareto_mle, tail, x_min
            )
        t = np.sort(x)
        for gamma in (1.5, 2.0, 3.0, 2.43, 1.0 + 1 / 0.7):  # powers 0.5, 1 and 2 among them
            model = distfit._pareto_cdf(t, float(t[0]), gamma)
            assert np.array_equal(model, 1.0 - (float(t[0]) / t) ** (gamma - 1.0))


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_gumbel_scale_equation_and_location_equal_former_expressions(n):
    rng = np.random.default_rng(n)
    for i in range(4):
        x = rng.gumbel(rng.normal(), rng.uniform(0.05, 3.0), n)
        if i % 2:
            x = np.round(x, 2)
        shift = float(x.min())
        xs = x - shift
        new, former = distfit._gumbel_scale_equation(x, xs), former_gumbel_scale_equation(x, xs)
        b0 = float(x.std()) * math.sqrt(6.0) / math.pi
        for b in (b0 / 64, b0 / 2, b0, 1.7 * b0, 8 * b0, 0.3, 2.0):
            assert new(b) == former(b)
        a, b = distfit._gumbel_mle(x)
        assert a == former_gumbel_location(xs, shift, b)


@pytest.mark.parametrize("n", KERNEL_SIZES)
@pytest.mark.parametrize("log_base", [math.e, 10.0, 2.5])
def test_gumbel_fit_logs_equal_former_expression(n, log_base):
    rates = np.exp(np.random.default_rng(n).gumbel(-0.55, 0.8, n))
    seen = []
    mle = distfit._gumbel_mle

    def record(x):
        seen.append(x.copy())
        return mle(x)

    with mock.patch.object(distfit, "_gumbel_mle", record):
        distfit.gumbel_fit(rates, log_base=log_base)
    assert np.array_equal(seen[0], np.log(rates) / math.log(log_base))


# --- peak memory of the large-n fits -----------------------------------------------


def peak_per_sample(fn, n):
    """tracemalloc's peak while ``fn`` runs, in units of 8n bytes (one float64 copy)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / (8 * n)
    finally:
        tracemalloc.stop()


def test_large_n_fits_bound_their_temporaries():
    """At n = 1e5 each fit holds at most about four sample-sized arrays at once.

    Before the kernels reused their buffers the peaks were 6.1, 6.1 and 5.1.
    """
    n = 100_000
    x = sample_pareto(2.43, 1.0, n, 20001000 + n)
    series = RankSeries(np.arange(1, n + 1), np.sort(x)[::-1], SeriesLabel(
        Discipline.SCI, Basis.CITATIONS, 2000, Measure.CITATIONS))
    assert peak_per_sample(lambda: zipf_fit(series), n) <= 4.5
    assert peak_per_sample(lambda: pareto_tail_fit(x), n) <= 4.5
    assert peak_per_sample(lambda: distfit.ks_statistic_samples(x, lambda t: 1.0 - 1.0 / t), n) <= 3.5


# --- former RankSeries loops ------------------------------------------------------


def former_rank_series_check(ranks, values, label):
    if len(ranks) != len(values):
        raise ValidationError("ranks and values must have equal length")
    if not ranks:
        raise ValidationError("a RankSeries cannot be empty")
    prev = 0
    for k in ranks:
        if not isinstance(k, int) or k <= prev:
            raise ValidationError("ranks must be strictly increasing integers >= 1")
        prev = k
    for v in values:
        # str and bytes are rejected too; the former loop raised TypeError on them.
        if isinstance(v, (str, bytes)) or not (v > 0) or not math.isfinite(v):
            raise ValidationError(f"series values must be positive and finite, got {v!r}")
    if label.measure is basis_measure(label.basis):
        vals = values
        if any(b > a for a, b in zip(vals, vals[1:])):
            raise ValidationError(
                "values of the ranking measure must be non-increasing in rank"
            )
    return "ok"


def new_rank_series_check(ranks, values, label):
    RankSeries(ranks, values, label)
    return "ok"


# Mostly increasing ranks, with a bool, a float or a repeat mixed in; integer
# values stay below 2**53, where Python and float comparisons agree.
rank_items = st.integers(-2, 40) | st.booleans() | st.sampled_from([1.0, 2.0, 2.5])
rank_tuples = (
    st.sets(st.integers(1, 40), max_size=12).map(lambda r: tuple(sorted(r)))
    | st.lists(rank_items, max_size=8).map(tuple)
    | st.tuples(st.booleans(), st.integers(-1, 4), st.integers(2, 6))
)
value_items = (
    st.integers(-3, 2**53)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0, 0.0, -0.0, -1, math.nan, math.inf, -math.inf, 1, 1.0, True])
    | st.sampled_from(["1.5", b"2", "-1", "abc", "", b"inf"])
    | st.text(max_size=3)
)
series_labels = st.sampled_from([
    LABEL,
    SeriesLabel(Discipline.SCI, Basis.CITATIONS, 2000, Measure.CITATIONS),
    SeriesLabel(Discipline.SCI, Basis.IMPACT_FACTOR, 2000, Measure.IMPACT_FACTOR),
])


@settings(max_examples=500, deadline=None)
@given(ranks=rank_tuples, data=st.data(), label=series_labels)
def test_rank_series_checks_equal_former_loops(ranks, data, label):
    n = len(ranks) + data.draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    values = data.draw(
        st.lists(value_items, min_size=max(n, 0), max_size=max(n, 0))
        | st.lists(st.floats(1e-3, 1e6) | st.integers(1, 10**6),
                   min_size=max(n, 0), max_size=max(n, 0)).map(
            lambda v: sorted(v, reverse=True))
    )
    values = tuple(values)
    assert outcome(new_rank_series_check, ranks, values, label) == outcome(
        former_rank_series_check, ranks, values, label
    )


def test_rank_series_names_the_first_str_or_bytes_value():
    for values, bad in [(("1.5", b"2"), "'1.5'"), ((3.0, b"2"), "b'2'"), ((3.0, "x"), "'x'")]:
        assert outcome(new_rank_series_check, (1, 2), values, LABEL) == (
            "error", f"series values must be positive and finite, got {bad}"
        )


def test_rank_series_accepts_numpy_integers_and_rejects_beyond_int64():
    series = RankSeries((np.int64(1), np.uint8(2), 3), (3.0, 2.0, 1.0), LABEL)
    assert len(series) == 3
    for ranks in [(2**63,), (1, 2**63), (1, 2**64)]:
        assert outcome(new_rank_series_check, ranks, (1.0,) * len(ranks), LABEL) == (
            "error", "ranks must be strictly increasing integers >= 1"
        )


# --- former binned densities ----------------------------------------------------


def former_empirical_pdf_density(x, edges):
    counts, edges = np.histogram(x, bins=edges)
    n = int(counts.sum())
    return counts / (n * np.diff(edges)), edges, n


def former_lsq_density(x, bins):
    counts, edges = np.histogram(x, bins=bins)
    widths = np.diff(edges)
    return counts / (x.size * widths), edges


def former_curve_density(r, edges):
    counts, _ = np.histogram(r, bins=edges)
    return counts / (counts.sum() * np.diff(edges))


# Positive samples with repeats; logspace edges over their range round, so the
# unpinned end edges of the curve KS can leave the minimum or maximum out.
positive = st.sampled_from([0.1, 1.0, 1.5, 7.0]) | st.floats(1e-3, 1e4)


@settings(max_examples=300, deadline=None)
@given(samples=st.lists(positive, min_size=2, max_size=60), n_points=st.integers(1, 25))
def test_binned_density_equals_the_three_former_expressions(samples, n_points):
    x = np.array(samples)
    lo, hi = float(x.min()), float(x.max())
    if not hi > lo:
        return
    unpinned = np.logspace(math.log10(lo), math.log10(hi), n_points + 1)
    pinned = unpinned.copy()
    pinned[0], pinned[-1] = lo, hi

    density, edges = distfit._binned_density(x, pinned)
    want, want_edges, n = former_empirical_pdf_density(x, pinned)
    assert n == x.size  # pinned edges bin every sample: empirical_pdf's n_samples
    np.testing.assert_array_equal(density, want)
    np.testing.assert_array_equal(edges, want_edges)

    with np.errstate(invalid="ignore"):  # rounded edges can leave both of two samples out: 0/0
        density, _ = distfit._binned_density(x, unpinned)
        np.testing.assert_array_equal(density, former_curve_density(x, unpinned))

    density, edges = distfit._binned_density(x, n_points)  # a bin count bins every sample
    want, want_edges = former_lsq_density(x, n_points)
    np.testing.assert_array_equal(density, want)
    np.testing.assert_array_equal(edges, want_edges)
