"""Rank-plot analytics: Zipf fits, mean-scaled collapse, set overlap.

A rank plot shows a measure against the 1-based rank k of each journal.
When curves from several years are rescaled by their averages they collapse
onto one shape; the straight part of the log-log plot is the Zipf law
value ~ A * k**(-b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ValidationError
from .model import (
    Basis, Discipline, FitMethod, FitResult, Measure, RankedSet, basis_measure,
    common_rows, float_sample, id_positions,
)

DEFAULT_K_MIN = 10
_INT64_MAX = int(np.iinfo(np.int64).max)


class SeriesLabel(NamedTuple):
    discipline: Discipline
    basis: Basis
    year: int
    measure: Measure

    def text(self) -> str:
        return f"{self.discipline.value}:{self.basis.value}:{self.year}:{self.measure.value}"


@dataclass(frozen=True, eq=False)
class RankSeries:
    """Aligned (rank, value) pairs for one labelled measure.

    Ranks are a strictly increasing subset of 1..K (journals whose measure is
    undefined may be absent). When the measure is the one the set was ranked
    by, values must be non-increasing in rank; other measures scattered
    against the same ranks are free to fluctuate.

    Both fields are read-only arrays: ``ranks`` int64 and ``values`` float64.
    The constructor takes any sequences and converts each once; an array is
    copied, so a later write to it cannot change the series. Ranks may be
    Python or numpy integers (or bools, as Python counts them) up to the int64
    maximum; values are read by the package's one rule for samples,
    ``model.float_sample``, so any value that is no number, str and bytes
    included, is rejected. Two series are equal when their labels and both
    arrays are; the hash is the label's.
    """

    ranks: np.ndarray
    values: np.ndarray
    label: SeriesLabel

    def __post_init__(self):
        n = len(self.ranks)
        if not hasattr(self.values, "__len__"):  # a scalar: the sample rule names it
            float_sample(self.values, "series values")
        if n != len(self.values):
            raise ValidationError("ranks and values must have equal length")
        if not n:
            raise ValidationError("a RankSeries cannot be empty")
        try:
            k = np.array(self.ranks)  # a copy, even of an array
        except ValueError:  # ragged nesting
            k = np.empty(0)
        if not (k.dtype.kind in "biu" and k.ndim == 1 and k[0] >= 1 and k[-1] <= _INT64_MAX
                and np.all(k[1:] > k[:-1])):
            raise ValidationError("ranks must be strictly increasing integers >= 1")
        v = float_sample(self.values, "series values", "positive and finite",
                         lambda x: (x > 0) & np.isfinite(x))
        if v is self.values:
            v = v.copy()
        if self.label.measure is basis_measure(self.label.basis) and np.any(v[1:] > v[:-1]):
            raise ValidationError("values of the ranking measure must be non-increasing in rank")
        k = k.astype(np.int64, copy=False)
        k.flags.writeable = v.flags.writeable = False
        object.__setattr__(self, "ranks", k)
        object.__setattr__(self, "values", v)

    def __eq__(self, other):
        if not isinstance(other, RankSeries):
            return NotImplemented
        return (self.label == other.label and np.array_equal(self.ranks, other.ranks)
                and np.array_equal(self.values, other.values))

    def __hash__(self) -> int:
        return hash(self.label)  # equal series share a label

    def __len__(self) -> int:
        return len(self.ranks)


def rank_series(ranked: RankedSet, measure: Measure) -> RankSeries:
    """Extract one measure of a RankedSet as a rank series.

    Journals where the measure is undefined or non-positive (no articles for
    the rate, zero values that cannot sit on a log axis) are skipped.
    """
    values = ranked.column(measure)
    keep = values > 0  # also drops the NaN rate of journals without articles
    if not keep.any():
        raise ValidationError(f"no positive {measure.value!r} values in set")
    label = SeriesLabel(ranked.discipline, ranked.basis, ranked.year, measure)
    ranks = np.flatnonzero(keep) + 1
    return RankSeries(ranks, values[keep], label)


def scale_by_mean(series: RankSeries) -> RankSeries:
    """Divide all values by their arithmetic mean (the scaling collapse).

    The output mean is 1 to within 1e-12. Idempotent up to the same
    tolerance.
    """
    # the values are positive, so their mean is too
    return RankSeries(series.ranks, series.values / float(series.values.mean()), series.label)


def zipf_fit(series: RankSeries, k_min: int = DEFAULT_K_MIN) -> FitResult:
    """Least-squares line fit of log(value) against log(rank) for rank > k_min.

    Returns the Zipf exponent b (negated slope) and amplitude A, with the
    ordinary least-squares standard error of the slope. Small ranks are
    excluded because the top of the ranking is nearly rank-independent.
    """
    # ranks ascend, so the points with rank > k_min are a suffix of the series
    start = int(np.searchsorted(series.ranks, k_min, side="right"))
    ranks, values = series.ranks[start:], series.values[start:]
    if ranks.size < 10:
        raise ValidationError(f"need at least 10 points with rank > {k_min}, have {ranks.size}")

    # Two sample-sized buffers, each term formed in place by the operations of
    # the plain expression in its comment; x and y are formed twice, as the
    # sums for the slope overwrite them.
    n = ranks.size
    x = np.log(ranks)
    x_bar = x.mean()
    dev = np.subtract(x, x_bar)
    sxx = float(np.sum(np.square(dev, out=dev)))  # sum((x - x_bar) ** 2)
    y = np.log(values, out=dev)
    y_bar = y.mean()
    centred = np.multiply(np.subtract(x, x_bar, out=x), np.subtract(y, y_bar, out=y), out=x)
    sxy = float(np.sum(centred))  # sum((x - x_bar) * (y - y_bar))
    slope = sxy / sxx
    intercept = y_bar - slope * x_bar
    line = np.add(intercept, np.multiply(slope, np.log(ranks, out=x), out=x), out=x)
    residuals = np.subtract(np.log(values, out=y), line, out=y)  # y - (intercept + slope * x)
    rss = float(np.sum(np.square(residuals, out=residuals)))
    sigma2 = rss / (n - 2) if n > 2 else 0.0
    slope_err = math.sqrt(max(sigma2, 0.0) / sxx)
    intercept_err = math.sqrt(max(sigma2, 0.0) * (1.0 / n + x_bar**2 / sxx))
    amplitude = math.exp(intercept)

    return FitResult(
        params={"b": -slope, "A": amplitude},
        stderr={"b": slope_err, "A": amplitude * intercept_err},
        fit_range=(float(ranks[0]), float(ranks[-1])),
        method=FitMethod.LOG_LOG_LEAST_SQUARES,
    )


def set_overlap(a: RankedSet, b: RankedSet) -> tuple[tuple[str, ...], int]:
    """Journals common to two sets, in ascending id order, with their count.

    A plain set intersection of the ids as Python strings ("a" and "a\\x00"
    differ); joins on rank positions go through ``id_positions``.
    """
    common = sorted(set(a.table.journal_id).intersection(b.table.journal_id))
    return tuple(common), len(common)


def rank_scatter(a: RankedSet, b: RankedSet) -> list[tuple[str, int, int]]:
    """(journal_id, rank in a, rank in b) for the common journals, by ascending id."""
    rows_a, rows_b = common_rows(*id_positions([a, b]))
    ids = map(a.table.journal_id.__getitem__, rows_a.tolist())
    return list(zip(ids, (rows_a + 1).tolist(), (rows_b + 1).tolist()))


def write_series_csv(
    path: str | Path, label: str, xs: Iterable[float], ys: Iterable[float]
) -> None:
    """Emit a plot series as CSV: `x,y` under a `# label:` comment header.

    Floats are written with 9 significant digits so emitted files are
    portable golden-test material.
    """
    xs, ys = list(xs), list(ys)
    if len(xs) != len(ys):
        raise ValidationError("series columns must have equal length")
    lines = [f"# label: {label}", "x,y"] + [f"{x:.9g},{y:.9g}" for x, y in zip(xs, ys)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
