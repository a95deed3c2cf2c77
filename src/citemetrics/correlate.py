"""Correlation analyses: log-Pearson coefficients, year-to-year and cross-measure
correlations, binned trends.

All coefficients are the plain sample correlation

    R = sum((x - x_bar)(y - y_bar)) / sqrt(sum((x - x_bar)^2) sum((y - y_bar)^2)),

computed after an optional transform: LogLog takes logarithms of both series
(covering power-law dependence), RankRank correlates rank pairs, Identity uses
values as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .model import Measure, RankedSet, common_rows, finite_samples, float_sample, id_positions
from .rankstats import SeriesLabel

MIN_PAIRS = 2


class Transform(str, Enum):
    LOG_LOG = "log_log"
    RANK_RANK = "rank_rank"
    IDENTITY = "identity"


@dataclass(frozen=True)
class CorrelationReport:
    r_value: float
    n_pairs: int
    transform: Transform
    subjects: tuple[str, str]
    dropped_pairs: int = 0

    def __post_init__(self):
        if abs(self.r_value) > 1 + 1e-12:
            raise ValidationError(f"|R| must be <= 1, got {self.r_value!r}")
        if self.n_pairs < MIN_PAIRS:
            raise ValidationError(f"need at least {MIN_PAIRS} pairs, got {self.n_pairs}")

    def as_dict(self) -> dict:
        return {
            "subjects": list(self.subjects),
            "transform": self.transform.value,
            "n_pairs": self.n_pairs,
            "r_value": self.r_value,
            "dropped_pairs": self.dropped_pairs,
        }


def pearson(
    xs: Sequence[float],
    ys: Sequence[float],
    transform: Transform = Transform.IDENTITY,
    subjects: tuple[str, str] = ("x", "y"),
) -> CorrelationReport:
    """Sample correlation of two aligned series under a transform.

    Under LogLog, pairs with a non-positive or NaN member are dropped and
    counted rather than aborting: truncated real tables contain occasional
    zeros. ValidationError if NaN or inf is left after the transform.
    """
    x, y = float_sample(xs, "xs"), float_sample(ys, "ys")
    if x.size != y.size:
        raise ValidationError(f"series must be equally long, got {x.size} and {y.size}")
    dropped = 0
    if transform is Transform.LOG_LOG:
        keep = (x > 0) & (y > 0)
        dropped = int(x.size - keep.sum())
        x, y = np.log(x[keep]), np.log(y[keep])
    if x.size < MIN_PAIRS:
        raise ValidationError(f"need at least {MIN_PAIRS} usable pairs, have {x.size}")
    finite_samples(x, "xs")
    finite_samples(y, "ys")

    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(np.sum(dx * dx))
    syy = float(np.sum(dy * dy))
    if sxx == 0.0 or syy == 0.0:
        raise ValidationError("degenerate series: zero variance after transform")
    r = float(np.sum(dx * dy) / math.sqrt(sxx * syy))
    r = max(-1.0, min(1.0, r))
    return CorrelationReport(r, int(x.size), transform, subjects, dropped)


def _label(ranked: RankedSet, measure: Measure) -> str:
    return SeriesLabel(ranked.discipline, ranked.basis, ranked.year, measure).text()


def dynamic_correlation(
    year_a: RankedSet,
    year_b: RankedSet,
    field_: Measure,
    rows: tuple[np.ndarray, np.ndarray] | None = None,
) -> CorrelationReport:
    """Correlation of one field across two years, over the common journals.

    Ranks correlate as rank pairs; values correlate on log scale. ``rows``
    are the common journals' rank positions in each year, by ascending id,
    as ``common_rows`` gives them, for a caller that has numbered the sets
    with ``id_positions`` already; by default the pair is numbered here.
    """
    if year_a.basis is not year_b.basis or year_a.discipline is not year_b.discipline:
        raise ValidationError("dynamic correlation requires matching discipline and basis")
    rows_a, rows_b = common_rows(*id_positions([year_a, year_b])) if rows is None else rows
    if rows_a.size < MIN_PAIRS:
        raise ValidationError(f"overlap of {rows_a.size} journals is too small to correlate")
    xs = year_a.column(field_)[rows_a]
    ys = year_b.column(field_)[rows_b]
    defined = ~(np.isnan(xs) | np.isnan(ys))
    xs, ys = xs[defined], ys[defined]
    return pearson(
        xs,
        ys,
        transform=Transform.RANK_RANK if field_ is Measure.RANK else Transform.LOG_LOG,
        subjects=(_label(year_a, field_), _label(year_b, field_)),
    )


def cross_measure_correlation(
    ranked: RankedSet, measure_x: Measure, measure_y: Measure
) -> CorrelationReport:
    """Correlation between two measures within one set, on log scale."""
    if measure_x is Measure.RANK or measure_y is Measure.RANK:
        raise ValidationError("cross-measure correlation is between value measures")
    xs = ranked.column(measure_x)
    ys = ranked.column(measure_y)
    defined = ~(np.isnan(xs) | np.isnan(ys))
    if np.count_nonzero(defined) < MIN_PAIRS:
        raise ValidationError("fewer than 2 journals have both measures")
    xs, ys = xs[defined], ys[defined]
    return pearson(
        xs,
        ys,
        transform=Transform.LOG_LOG,
        subjects=(_label(ranked, measure_x), _label(ranked, measure_y)),
    )


def binned_trend(
    xs: Sequence[float], ys: Sequence[float], n_bins: int = 10
) -> list[tuple[float, float, float]]:
    """(center, mean, standard error) of y over ``n_bins`` equal-width x-bins
    spanning the x range; empty bins omitted.

    Bin i holds edges[i] <= x < edges[i + 1]; the last bin also holds the
    largest x.
    """
    x, y = float_sample(xs, "xs"), float_sample(ys, "ys")
    if x.size != y.size or x.size == 0:
        raise ValidationError("xs and ys must be equally long 1-d series")
    finite_samples(x, "xs")
    finite_samples(y, "ys")
    if n_bins < 1:
        raise ValidationError(f"bin count must be >= 1, got {n_bins}")
    lo, hi = float(x.min()), float(x.max())
    if not hi > lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    idx = np.searchsorted(edges, x, side="right") - 1
    idx[x == edges[-1]] = n_bins - 1
    out = []
    for i in range(n_bins):
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


def correlation_matrix(
    ranked_sets: Sequence[RankedSet], field_: Measure
) -> tuple[tuple[int, ...], dict[tuple[int, int], CorrelationReport | str]]:
    """All-pairs year correlation matrix for one discipline+basis.

    Returns the sorted years and a cell map keyed by (year_i, year_j).
    Diagonal cells are exact R = 1 reports; failed cells, a one-journal
    year's diagonal among them, carry the error message instead of a report.
    The matrix is symmetric by construction. Each pair is joined on integer
    id codes numbered once for all the sets.
    """
    if len(ranked_sets) < 2:
        raise ValidationError("need at least two years for a correlation matrix")
    by_year = {rs.year: rs for rs in ranked_sets}
    if len(by_year) != len(ranked_sets):
        raise ValidationError("duplicate years in correlation matrix input")
    years = tuple(sorted(by_year))
    sets = [by_year[y] for y in years]
    positions = id_positions(sets)
    transform = Transform.RANK_RANK if field_ is Measure.RANK else Transform.LOG_LOG
    cells: dict[tuple[int, int], CorrelationReport | str] = {}
    for i, a in enumerate(sets):
        for j, b in enumerate(sets[i:], start=i):
            try:
                if j == i:
                    label = _label(a, field_)
                    cell = CorrelationReport(1.0, len(a), transform, (label, label))
                else:
                    cell = dynamic_correlation(
                        a, b, field_, common_rows(positions[i], positions[j])
                    )
            except ValidationError as exc:
                cell = str(exc)
            cells[a.year, b.year] = cells[b.year, a.year] = cell
    return years, cells
