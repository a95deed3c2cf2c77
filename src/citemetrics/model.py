"""Core domain types: journal-year tables, ranked journal sets, fit results.

All types are immutable after construction and validate their invariants in
``__post_init__``, so a constructed object can be shared freely. Journal-year
rows travel as a ``JournalTable``: a ``RankedSet`` stores one. Each row rule
and its message are written once, in ``row_fault``, which the table's search
for its first bad row and ``parse_csv`` share.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections.abc import Callable, Iterable, Mapping, Sequence, Set
from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import compress, count
from typing import TYPE_CHECKING

from .errors import ValidationError

if TYPE_CHECKING:  # numpy loads where a column, sample or join is built, so ingest never loads it
    import numpy as np

DEFAULT_CAP = 1000
# The largest integer whose float is finite: 2**1024 - 2**970 rounds up to 2**1024.
MAX_FLOAT_INT = 2**1024 - 2**970 - 1


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


class FixtureProfile(str, Enum):
    """The bundled synthetic fixtures, one per discipline and Set (``synthgen.PROFILES``)."""

    SCI_SET_I = "sci_set_i"
    SCI_SET_II = "sci_set_ii"
    SOCSCI_SET_I = "socsci_set_i"
    SOCSCI_SET_II = "socsci_set_ii"


@dataclass(frozen=True, slots=True)
class JournalTable:
    """Journal-year rows stored as one list per field, in row order.

    Row ``i`` is journal ``journal_id[i]`` (non-empty, unique within a ranked
    set, no leading or trailing whitespace) in calendar year ``year[i]``, with
    its annual citations n, impact factor I as the source gives it, and
    articles N. Years and counts are ``int``, not ``bool``, in
    0..``MAX_FLOAT_INT``; an impact factor is finite and >= 0, an ``int`` one
    exactly a float. Counts stay Python ints, so they are exact at any size.
    The columns are checked whole; after a fault, each row in turn by ``row_fault``.
    """

    journal_id: list[str]
    year: list[int]
    citations: list[int]
    impact_factor: list[float]
    articles: list[int]

    def __post_init__(self):
        n = len(self.journal_id)
        if any(len(col) != n for col in (self.year, self.citations, self.impact_factor,
                                         self.articles)):
            raise ValidationError("table columns must be equally long")
        try:
            valid = (
                all(self.journal_id)
                and list(map(str.strip, self.journal_id)) == self.journal_id  # non-str: TypeError
                and all(_ints_valid(col) for col in (self.year, self.citations, self.articles))
                and all(map(math.isfinite, self.impact_factor))
                # as floats: numpy casts a Python float to float32 to compare the two
                and min(map(float, self.impact_factor), default=0) >= 0
                and (int not in set(map(type, self.impact_factor))
                     or all(float(v) == v for v in self.impact_factor if type(v) is int))
            )
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            for row in zip(self.journal_id, self.year, self.citations, self.impact_factor,
                           self.articles):
                if fault := row_fault(*row):
                    raise ValidationError(f"{_shown(row[0])}: {fault}")

    @classmethod
    def from_rows(cls, rows: Iterable[tuple]) -> JournalTable:
        """A table of ``(journal_id, year, citations, impact_factor, articles)`` rows."""
        columns = [list(col) for col in zip(*rows)]
        return cls(*columns) if columns else cls([], [], [], [], [])

    def __len__(self) -> int:
        return len(self.journal_id)


def _ints_valid(col: list[int]) -> bool:
    """True if every year or count is an int in 0..MAX_FLOAT_INT, as ``row_fault`` requires."""
    return (
        {int}.issuperset(map(type, col))
        and min(col, default=0) >= 0
        and max(col, default=0) <= MAX_FLOAT_INT
    )


def row_fault(journal_id, year, citations, impact_factor, articles) -> str | None:
    """The row's first fault in the CSV's order (year, citations, impact factor,
    articles, id), or None: every row rule's one wording. A table prefixes it
    with the row's id, ``parse_csv`` with the file line."""
    fault = (_int_fault("year", year) or _int_fault("citations", citations)
             or _impact_fault(impact_factor) or _int_fault("articles", articles))
    if fault or not isinstance(journal_id, str) or not journal_id:
        return fault or "journal_id must be a non-empty string"
    if journal_id != journal_id.strip():  # a CSV field is read back trimmed
        return "journal_id must not start or end with whitespace"


def _int_fault(name: str, value) -> str | None:
    if type(value) is not int:
        return f"column {name!r} must be an integer, got {_shown(value)}"
    if value < 0:
        return f"column {name!r} must be >= 0, got {_shown(value)}"
    if value > MAX_FLOAT_INT:  # above every finite float
        return f"column {name!r} exceeds the float range (about 1.8e308)"


def _impact_fault(value) -> str | None:
    try:
        finite = math.isfinite(value)
    except (TypeError, ValueError):  # not a real number
        return f"column 'impact_factor' must be numeric, got {_shown(value)}"
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        return f"column 'impact_factor' must be finite, got {_shown(value)}"
    if value < 0:
        return f"column 'impact_factor' must be >= 0, got {_shown(value)}"
    if type(value) is int and float(value) != value:
        return f"column 'impact_factor' must be exactly a float, got {value}"


def _shown(value) -> str:
    """``repr(value)``, or a stand-in for an int past the float range: its digits are unbounded."""
    huge = isinstance(value, int) and not -MAX_FLOAT_INT <= value <= MAX_FLOAT_INT
    return "an integer past the float range" if huge else repr(value)


def _first_rows(table: JournalTable, year: int) -> Iterable[tuple[int, int]]:
    """Each row's index and its id's first row's index, in row order; raises at a stray year."""
    first: dict[str, int] = {}
    for i, (journal_id, row_year) in enumerate(zip(table.journal_id, table.year)):
        if row_year != year:
            raise ValidationError(f"{journal_id!r}: record year {row_year} != set year {_shown(year)}")
        yield i, first.setdefault(journal_id, i)


@dataclass(frozen=True)
class RankedSet:
    """A discipline+basis+year labelled collection, sorted by the basis field.

    Journals are ordered non-increasing in the basis value; ties break by
    ascending journal_id so that ranking is deterministic. The journal in
    row ``i`` has rank ``i + 1``.

    The stored field is ``table``, a validated ``JournalTable`` already in
    rank order: ``RankedSet(discipline, basis, year, table, cap)``, as
    ``load_dataset`` does. ``build_ranked_set`` sorts, deduplicates and
    truncates a table into one. The per-measure columns that analyses read
    (``column``) are built from the table on first use and cached as
    read-only arrays.
    """

    discipline: Discipline
    basis: Basis
    year: int
    table: JournalTable = field(hash=False, repr=False)
    cap: int = DEFAULT_CAP

    def __post_init__(self):
        table = self.table
        if self.cap < 1:
            raise ValidationError(f"cap must be >= 1, got {_shown(self.cap)}")
        if not len(table):
            raise ValidationError("a RankedSet cannot be empty")
        if len(table) > self.cap:
            raise ValidationError(f"{len(table)} records exceed cap {self.cap}")
        if type(self.year) is not int:
            raise ValidationError(f"set year must be an integer, got {self.year!r}")
        ids = table.journal_id
        if table.year.count(self.year) != len(ids) or len(set(ids)) != len(ids):
            for i, first in _first_rows(table, self.year):
                if i != first:
                    raise ValidationError(f"duplicate journal_id {ids[i]!r}")
        # build_ranked_set's order, on the values as floats: each lower than the one
        # before, or equal to it with a larger id. Only the ties and rises are walked.
        counts = self.basis is Basis.CITATIONS
        value = table.citations if counts else table.impact_factor
        if not counts or max(value) > 2**53:  # ints up to 2**53 compare as their floats do
            value = list(map(float, value))
        for i in compress(count(1), map(operator.ge, value[1:], value)):
            if value[i] > value[i - 1] or ids[i] < ids[i - 1]:
                raise ValidationError(
                    f"records out of order at {ids[i]!r}: "
                    "must be non-increasing in basis value, ties by ascending id"
                )

    def __len__(self) -> int:
        return len(self.table)

    @property
    def records(self) -> JournalTable:
        """``table``, read only by ``bench/run.py`` until it reads ``table`` (ROADMAP item 1a)."""
        return self.table

    @cached_property
    def _columns(self) -> dict[str, np.ndarray]:
        import numpy as np
        table = self.table
        # Python int division is correctly rounded at any size, as before.
        rates = [c / n if n else math.nan for c, n in zip(table.citations, table.articles)]
        columns = {
            "rank": np.arange(1, len(table) + 1, dtype=float),
            "n": np.array(table.citations, dtype=float),
            "if": np.array(table.impact_factor, dtype=float),
            "cr": np.array(rates, dtype=float),
            "articles": np.array(table.articles, dtype=float),
        }
        for col in columns.values():
            col.setflags(write=False)
        return columns

    def column(self, measure: Measure | str) -> np.ndarray:
        """One per-journal measure as a read-only float array in rank order.

        ``measure`` is a ``Measure`` or its value (``"rank"``, ``"n"``,
        ``"if"``, ``"cr"``), or ``"articles"`` for the article count N. The
        rate is NaN for journals with no articles, where it is undefined;
        every other column is defined for every journal.
        """
        key = getattr(measure, "value", measure)
        try:
            return self._columns[key]
        except KeyError:
            raise ValidationError(f"unknown measure {measure!r}") from None


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


def id_positions(sets: Sequence[RankedSet]) -> list[np.ndarray]:
    """Each set's rows by an integer id code shared by all the sets.

    Code ``c`` is the ``c``-th id of the sets' sorted id union, so codes
    ascend in Python string order. Element ``c`` of a set's array is that
    id's 0-based rank position in the set, or -1 where the set lacks it.
    """
    import numpy as np
    union = sorted(set().union(*(rs.table.journal_id for rs in sets)))
    code = dict(zip(union, range(len(union))))
    positions = []
    for rs in sets:
        ids = rs.table.journal_id
        rows = np.full(len(union), -1, dtype=np.intp)
        rows[np.fromiter(map(code.__getitem__, ids), np.intp, len(ids))] = np.arange(len(ids))
        positions.append(rows)
    return positions


def common_rows(rows_a: np.ndarray, rows_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank positions of the journals two sets share, by ascending id.

    ``rows_a`` and ``rows_b`` are the two sets' arrays from one
    ``id_positions`` call.
    """
    shared = (rows_a >= 0) & (rows_b >= 0)
    return rows_a[shared], rows_b[shared]


def float_sample(values: Sequence[float], what: str, must: str = "real numbers",
                 ok: Callable = lambda x: True) -> np.ndarray:
    """A caller's sample as a 1-d float64 array: the package's one rule for numbers.

    A 1-d numpy array of bools, ints or floats converts whole (a float64 one
    is not copied), any other sequence item by item as ``array("d")`` reads
    items; NaN and inf pass. ValidationError names any other input, and the
    first item that is no real number or fails the elementwise test ``ok``.
    """
    import numpy as np
    whole = isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "biuf"
    # str, bytes and a mapping's or set's keys would iterate as numbers
    if not whole and (isinstance(values, (str, bytes, bytearray, memoryview, Mapping, Set))
                      or getattr(values, "ndim", 1) != 1 or not hasattr(values, "__len__")):
        raise ValidationError(f"{what} must be a 1-d sequence of numbers, got {type(values).__name__}")
    if whole and np.all(ok(x := values.astype(float, copy=False))):
        return x  # a real dtype holds no complex item
    import warnings
    # raised by reading an item that is no real number; numpy's ComplexWarning is made one
    no_number = (TypeError, ValueError, OverflowError, np.exceptions.ComplexWarning)
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        with suppress(*no_number):
            if np.all(ok(x := np.frombuffer(array("d", values)))):
                return x
        for item in values:  # name the first item at fault
            with suppress(*no_number):
                if ok(array("d", (item,))[0]):
                    continue
            raise ValidationError(f"{what} must be {must}, got {_shown(item)}")


def finite_samples(values: Sequence[float], what: str) -> np.ndarray:
    """``float_sample(values, what)``; ValidationError if it is empty or holds NaN or inf."""
    import numpy as np
    x = float_sample(values, what)
    if x.size == 0:
        raise ValidationError(f"no {what} given")
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{what} must be finite")
    return x


def build_ranked_set(
    table: JournalTable,
    discipline: Discipline,
    basis: Basis,
    year: int,
    cap: int = DEFAULT_CAP,
) -> RankedSet:
    """Sort, deduplicate and truncate a table into a RankedSet.

    Rows sort non-increasing by the basis field, ties broken by ascending
    journal_id. Exact duplicate rows collapse silently into the first; the
    same id with conflicting values is rejected. Only the top ``cap`` rows
    are kept.
    """
    if not isinstance(table, JournalTable):
        raise ValidationError(f"build_ranked_set needs a JournalTable, got {type(table).__name__}")
    if cap < 1:
        raise ValidationError(f"cap must be >= 1, got {_shown(cap)}")
    if not len(table):
        raise ValidationError("cannot rank an empty record list")

    columns = (ids := table.journal_id, table.year, table.citations, table.impact_factor,
               table.articles)
    if table.year.count(year) == len(ids) and len(set(ids)) == len(ids):  # no stray year, no repeat
        keep = list(range(len(ids)))
    else:
        keep = []
        for i, first in _first_rows(table, year):
            if i == first:
                keep.append(i)
            elif [col[i] for col in columns] != [col[first] for col in columns]:
                raise ValidationError(f"duplicate journal_id {ids[i]!r} with conflicting values")

    values = table.citations if basis is Basis.CITATIONS else table.impact_factor
    keep.sort(key=ids.__getitem__)  # a stable sort, reversed or not, keeps ties in id order
    keep.sort(key=list(map(float, values)).__getitem__, reverse=True)
    top = keep[:cap]
    return RankedSet(discipline, basis, year,
                     JournalTable(*(list(map(col.__getitem__, top)) for col in columns)), cap)
