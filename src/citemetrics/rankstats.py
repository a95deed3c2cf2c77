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
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .model import (
    Basis, Discipline, FitMethod, FitResult, Measure, RankedSet, basis_measure, join_rows,
)

DEFAULT_K_MIN = 10
BINS_PER_DECADE = 10


class SeriesLabel(NamedTuple):
    discipline: Discipline
    basis: Basis
    year: int
    measure: Measure

    def text(self) -> str:
        return f"{self.discipline.value}:{self.basis.value}:{self.year}:{self.measure.value}"


@dataclass(frozen=True)
class RankSeries:
    """Aligned (rank, value) pairs for one labelled measure.

    Ranks are a strictly increasing subset of 1..K (journals whose measure is
    undefined may be absent). When the measure is the one the set was ranked
    by, values must be non-increasing in rank; other measures scattered
    against the same ranks are free to fluctuate.
    """

    ranks: tuple[int, ...]
    values: tuple[float, ...]
    label: SeriesLabel

    def __post_init__(self):
        if len(self.ranks) != len(self.values):
            raise ValidationError("ranks and values must have equal length")
        if not self.ranks:
            raise ValidationError("a RankSeries cannot be empty")
        prev = 0
        for k in self.ranks:
            if not isinstance(k, int) or k <= prev:
                raise ValidationError("ranks must be strictly increasing integers >= 1")
            prev = k
        for v in self.values:
            if not (v > 0) or not math.isfinite(v):
                raise ValidationError(f"series values must be positive and finite, got {v!r}")
        if self.label.measure is basis_measure(self.label.basis):
            vals = self.values
            if any(b > a for a, b in zip(vals, vals[1:])):
                raise ValidationError(
                    "values of the ranking measure must be non-increasing in rank"
                )

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
    return RankSeries(tuple(ranks.tolist()), tuple(values[keep].tolist()), label)


def scale_by_mean(series: RankSeries) -> RankSeries:
    """Divide all values by their arithmetic mean (the scaling collapse).

    The output mean is 1 to within 1e-12. Idempotent up to the same
    tolerance.
    """
    values = np.asarray(series.values, dtype=float)
    mean = float(values.mean())
    if mean <= 0:
        raise ValidationError("cannot scale a series with non-positive mean")
    scaled = values / mean
    return RankSeries(series.ranks, tuple(float(v) for v in scaled), series.label)


def zipf_fit(series: RankSeries, k_min: int = DEFAULT_K_MIN) -> FitResult:
    """Least-squares line fit of log(value) against log(rank) for rank > k_min.

    Returns the Zipf exponent b (negated slope) and amplitude A, with the
    ordinary least-squares standard error of the slope. Small ranks are
    excluded because the top of the ranking is nearly rank-independent.
    """
    ranks = np.asarray(series.ranks, dtype=float)
    values = np.asarray(series.values, dtype=float)
    keep = ranks > k_min
    if int(keep.sum()) < 10:
        raise ValidationError(
            f"need at least 10 points with rank > {k_min}, have {int(keep.sum())}"
        )
    if np.any(values[keep] <= 0):
        raise ValidationError("non-positive values in fit range")

    x = np.log(ranks[keep])
    y = np.log(values[keep])
    n = x.size
    x_bar, y_bar = x.mean(), y.mean()
    sxx = float(np.sum((x - x_bar) ** 2))
    sxy = float(np.sum((x - x_bar) * (y - y_bar)))
    slope = sxy / sxx
    intercept = y_bar - slope * x_bar
    residuals = y - (intercept + slope * x)
    rss = float(np.sum(residuals**2))
    sigma2 = rss / (n - 2) if n > 2 else 0.0
    slope_err = math.sqrt(max(sigma2, 0.0) / sxx)
    intercept_err = math.sqrt(max(sigma2, 0.0) * (1.0 / n + x_bar**2 / sxx))
    amplitude = math.exp(intercept)

    return FitResult(
        params={"b": -slope, "A": amplitude},
        stderr={"b": slope_err, "A": amplitude * intercept_err},
        fit_range=(float(ranks[keep].min()), float(ranks[keep].max())),
        method=FitMethod.LOG_LOG_LEAST_SQUARES,
    )


def set_overlap(a: RankedSet, b: RankedSet) -> tuple[tuple[str, ...], int]:
    """Journals common to two sets, in ascending id order, with their count."""
    common, _, _ = join_rows(a, b)
    return tuple(common.tolist()), len(common)


def rank_scatter(a: RankedSet, b: RankedSet) -> list[tuple[str, int, int]]:
    """(journal_id, rank in a, rank in b) for the common journals, by ascending id."""
    common, rows_a, rows_b = join_rows(a, b)
    return list(zip(common.tolist(), (rows_a + 1).tolist(), (rows_b + 1).tolist()))


def log_rank_bins(k_max: int, per_decade: int = BINS_PER_DECADE) -> np.ndarray:
    """Logarithmically spaced rank bin edges covering [1, k_max]."""
    if k_max < 1:
        raise ValidationError(f"k_max must be >= 1, got {k_max}")
    n_steps = max(1, math.ceil(math.log10(k_max) * per_decade))
    edges = np.power(10.0, np.arange(n_steps + 1) / per_decade)
    while edges[-1] < k_max:
        edges = np.append(edges, edges[-1] * 10 ** (1 / per_decade))
    return edges


def binned_mean(
    x: np.ndarray, y: np.ndarray, edges: np.ndarray, centers: np.ndarray
) -> list[tuple[float, float, float]]:
    """(center, mean, standard error) of y over the x-bins, empty bins omitted.

    Bin i holds edges[i] <= x < edges[i + 1]; the last bin also holds
    x == edges[-1]. An x outside the edges, or NaN, falls in no bin.
    ``centers`` labels bin i with ``centers[i]``.
    """
    idx = np.searchsorted(edges, x, side="right") - 1
    idx[x == edges[-1]] = edges.size - 2
    out = []
    for i in range(edges.size - 1):
        sel = y[idx == i]
        if sel.size == 0:
            continue
        mean = float(sel.mean())
        if sel.size < 2 or np.all(sel == sel[0]):
            stderr = 0.0
        else:
            stderr = float(sel.std(ddof=1) / math.sqrt(sel.size))
        out.append((float(centers[i]), mean, stderr))
    return out


def binned_rank_average(
    series: RankSeries, bin_edges: Sequence[float] | None = None
) -> list[tuple[float, float, float]]:
    """Per-bin mean and standard error of the values over rank bins.

    Empty bins are omitted. Bin centers are geometric (edges are positive by
    construction). Default bins are logarithmic, 10 per decade, since ranks
    span several decades.
    """
    ranks = np.asarray(series.ranks, dtype=float)
    values = np.asarray(series.values, dtype=float)
    if bin_edges is None:
        edges = log_rank_bins(int(ranks.max()))
    else:
        edges = np.asarray(bin_edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise ValidationError("bin edges must be a strictly increasing 1-d sequence")
    if edges[0] > ranks.min() or edges[-1] < ranks.max():
        raise ValidationError(
            f"bins [{edges[0]}, {edges[-1]}] do not cover rank range "
            f"[{ranks.min():g}, {ranks.max():g}]"
        )
    return binned_mean(ranks, values, edges, np.sqrt(edges[:-1] * edges[1:]))


def write_series_csv(
    path: str | Path,
    label: str,
    xs: Iterable[float],
    ys: Iterable[float],
    yerr: Iterable[float] | None = None,
) -> None:
    """Emit a plot series as CSV: `x,y[,yerr]` under a `# label:` comment header.

    Floats are written with 9 significant digits so emitted files are
    portable golden-test material.
    """
    xs = list(xs)
    ys = list(ys)
    errs = list(yerr) if yerr is not None else None
    if len(xs) != len(ys) or (errs is not None and len(errs) != len(xs)):
        raise ValidationError("series columns must have equal length")
    lines = [f"# label: {label}", "x,y,yerr" if errs is not None else "x,y"]
    for i in range(len(xs)):
        row = [f"{xs[i]:.9g}", f"{ys[i]:.9g}"]
        if errs is not None:
            row.append(f"{errs[i]:.9g}")
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
