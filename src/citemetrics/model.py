"""Core domain types: journal-year records, ranked journal sets, fit results.

All types are immutable after construction and validate their invariants in
``__post_init__``, so a constructed object can be shared freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError

DEFAULT_CAP = 1000


class Discipline(str, Enum):
    SCI = "sci"
    SOCSCI = "socsci"


class Basis(str, Enum):
    """Ranking basis: Set I orders journals by annual citations, Set II by impact factor."""

    CITATIONS = "citations"
    IMPACT_FACTOR = "if"


class Measure(str, Enum):
    """Per-journal measures: the 1-based rank k, annual citations n, impact
    factor I and citation rate r = n/N."""

    RANK = "rank"
    CITATIONS = "n"
    IMPACT_FACTOR = "if"
    RATE = "cr"


def basis_measure(basis: Basis) -> Measure:
    """The measure a set is ranked by."""
    return Measure.CITATIONS if basis is Basis.CITATIONS else Measure.IMPACT_FACTOR


class FitMethod(str, Enum):
    LOG_LOG_LEAST_SQUARES = "log_log_least_squares"
    MAXIMUM_LIKELIHOOD = "maximum_likelihood"


@dataclass(frozen=True, slots=True)
class JournalYearRecord:
    """One journal in one calendar year.

    Attributes
    ----------
    journal_id : str
        Opaque non-empty key, unique within a ranked set.
    year : int
        Calendar year the counts refer to.
    citations : int
        Annual citations n: all citations received this year, >= 0.
    impact_factor : float
        Impact factor I as supplied by the source table, >= 0.
    articles : int
        Articles N published this year, >= 0.
    """

    journal_id: str
    year: int
    citations: int
    impact_factor: float
    articles: int

    def __post_init__(self):
        if not self.journal_id:
            raise ValidationError("journal_id must be a non-empty string")
        if not isinstance(self.citations, int) or self.citations < 0:
            raise ValidationError(
                f"{self.journal_id!r}: citations must be a non-negative integer, "
                f"got {self.citations!r}"
            )
        if not isinstance(self.articles, int) or self.articles < 0:
            raise ValidationError(
                f"{self.journal_id!r}: articles must be a non-negative integer, "
                f"got {self.articles!r}"
            )
        if not math.isfinite(self.impact_factor) or self.impact_factor < 0:
            raise ValidationError(
                f"{self.journal_id!r}: impact_factor must be finite and >= 0, "
                f"got {self.impact_factor!r}"
            )


class _Columns(NamedTuple):
    """Read-only numpy columns of a RankedSet."""

    ids: np.ndarray  # rank order; object dtype keeps Python str (no NUL stripping)
    sorted_ids: np.ndarray  # ids in ascending Python str order
    id_order: np.ndarray  # 0-based rank positions of sorted_ids
    values: dict[str, np.ndarray]  # measure value -> float column in rank order


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _rank_key(record: JournalYearRecord, basis: Basis) -> tuple[float, str]:
    """Sort key of the ranking rule: basis value descending, ties by ascending id."""
    value = record.citations if basis is Basis.CITATIONS else record.impact_factor
    return (-float(value), record.journal_id)


@dataclass(frozen=True)
class RankedSet:
    """A discipline+basis+year labelled collection, sorted by the basis field.

    Records are ordered non-increasing in the basis value; ties break by
    ascending journal_id so that ranking is deterministic. The rank of
    ``records[i]`` is ``i + 1``.

    ``records`` is the stored field. The per-measure columns that analyses
    read (``column``, ``journal_ids``, ``rank_of``, ``join_rows``) are built
    from it once, on first use, and cached as read-only arrays; constructing
    or writing a set never builds them.
    """

    discipline: Discipline
    basis: Basis
    year: int
    records: tuple[JournalYearRecord, ...]
    cap: int = DEFAULT_CAP

    def __post_init__(self):
        if self.cap < 1:
            raise ValidationError(f"cap must be >= 1, got {self.cap}")
        if not self.records:
            raise ValidationError("a RankedSet cannot be empty")
        if len(self.records) > self.cap:
            raise ValidationError(
                f"{len(self.records)} records exceed cap {self.cap}"
            )
        seen = set()
        for rec in self.records:
            if rec.year != self.year:
                raise ValidationError(
                    f"{rec.journal_id!r}: record year {rec.year} != set year {self.year}"
                )
            if rec.journal_id in seen:
                raise ValidationError(f"duplicate journal_id {rec.journal_id!r}")
            seen.add(rec.journal_id)
        keys = [_rank_key(rec, self.basis) for rec in self.records]
        for prev, cur in zip(keys, keys[1:]):
            if cur < prev:
                raise ValidationError(
                    f"records out of order at {cur[1]!r}: "
                    "must be non-increasing in basis value, ties by ascending id"
                )

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def _columns(self) -> _Columns:
        recs = self.records
        citations = [rec.citations for rec in recs]
        articles = [rec.articles for rec in recs]
        # Python int division is correctly rounded at any size, as before.
        rates = [c / n if n else math.nan for c, n in zip(citations, articles)]
        ids = np.array([rec.journal_id for rec in recs], dtype=object)
        order = np.argsort(ids, kind="stable")
        values = {
            "rank": np.arange(1, len(recs) + 1, dtype=float),
            "n": np.array(citations, dtype=float),
            "if": np.array([rec.impact_factor for rec in recs], dtype=float),
            "cr": np.array(rates, dtype=float),
            "articles": np.array(articles, dtype=float),
        }
        return _Columns(
            ids=_read_only(ids),
            sorted_ids=_read_only(ids[order]),
            id_order=_read_only(order),
            values={key: _read_only(col) for key, col in values.items()},
        )

    def column(self, measure: Measure | str) -> np.ndarray:
        """One per-journal measure as a read-only float array in rank order.

        ``measure`` is a ``Measure`` or its value (``"rank"``, ``"n"``,
        ``"if"``, ``"cr"``), or ``"articles"`` for the article count N. The
        rate is NaN for journals with no articles, where it is undefined;
        every other column is defined for every journal.
        """
        key = getattr(measure, "value", measure)
        try:
            return self._columns.values[key]
        except KeyError:
            raise ValidationError(f"unknown measure {measure!r}") from None

    def rank_of(self, journal_id: str) -> int:
        """1-based rank of a journal; raises KeyError if absent."""
        cols = self._columns
        if isinstance(journal_id, str):
            i = int(np.searchsorted(cols.sorted_ids, journal_id))
            if i < len(cols.sorted_ids) and cols.sorted_ids[i] == journal_id:
                return int(cols.id_order[i]) + 1
        raise KeyError(journal_id)

    def journal_ids(self) -> tuple[str, ...]:
        """Journal ids in rank order."""
        return tuple(self._columns.ids.tolist())


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters with per-parameter standard errors and provenance.

    ``params`` and ``stderr`` are parallel name->value mappings; ``fit_range``
    is the (lower, upper) interval of the independent variable actually used.
    """

    params: dict[str, float]
    stderr: dict[str, float]
    fit_range: tuple[float, float]
    method: FitMethod

    def __post_init__(self):
        lo, hi = self.fit_range
        if not lo < hi:
            raise ValidationError(f"fit_range lower must be < upper, got ({lo}, {hi})")
        if set(self.params) != set(self.stderr):
            raise ValidationError("params and stderr must carry the same parameter names")
        for name, err in self.stderr.items():
            if err < 0 or not math.isfinite(err):
                raise ValidationError(f"stderr[{name!r}] must be finite and >= 0, got {err}")


def join_rows(a: RankedSet, b: RankedSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Journals common to two sets, by ascending id, and their rows in each.

    Returns the common ids (object array) and, aligned with them, their
    0-based rank positions in ``a`` and in ``b``. Ids match as Python
    strings, so ids that differ only by trailing NULs stay distinct.
    """
    ca, cb = a._columns, b._columns
    common, ia, ib = np.intersect1d(
        ca.sorted_ids, cb.sorted_ids, assume_unique=True, return_indices=True
    )
    return common, ca.id_order[ia], cb.id_order[ib]


def finite_samples(values: Sequence[float], what: str) -> np.ndarray:
    """``values`` as a float array; ValidationError if it is empty or holds NaN or inf."""
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValidationError(f"no {what} given")
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{what} must be finite")
    return x


def build_ranked_set(
    records: Iterable[JournalYearRecord],
    discipline: Discipline,
    basis: Basis,
    year: int,
    cap: int = DEFAULT_CAP,
) -> RankedSet:
    """Sort, deduplicate and truncate records into a RankedSet.

    Records sort non-increasing by the basis field, ties broken by ascending
    journal_id. Exact duplicate records collapse silently; the same id with
    conflicting values is rejected. Only the top ``cap`` records are kept.
    """
    if cap < 1:
        raise ValidationError(f"cap must be >= 1, got {cap}")
    records = list(records)
    if not records:
        raise ValidationError("cannot rank an empty record list")

    by_id: dict[str, JournalYearRecord] = {}
    for rec in records:
        if rec.year != year:
            raise ValidationError(
                f"{rec.journal_id!r}: record year {rec.year} does not match set year {year}"
            )
        prior = by_id.get(rec.journal_id)
        if prior is None:
            by_id[rec.journal_id] = rec
        elif prior != rec:
            raise ValidationError(
                f"duplicate journal_id {rec.journal_id!r} with conflicting values"
            )

    ordered = sorted(by_id.values(), key=lambda r: _rank_key(r, basis))
    return RankedSet(
        discipline=discipline,
        basis=basis,
        year=year,
        records=tuple(ordered[:cap]),
        cap=cap,
    )
