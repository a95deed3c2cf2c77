import dataclasses
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from rows import Row, rows_of

from citemetrics.errors import ValidationError
from citemetrics.model import (
    Basis,
    Discipline,
    FitMethod,
    FitResult,
    MAX_FLOAT_INT,
    JournalTable,
    RankedSet,
    _shown,
    build_ranked_set,
    row_fault,
)


def rec(jid, citations=10, impact=1.0, articles=5, year=2000):
    return Row(journal_id=jid, year=year, citations=citations, impact_factor=impact,
               articles=articles)


def table(*rows):
    return JournalTable.from_rows(rows)


class TestRecordValidation:
    def test_rejects_empty_id(self):
        with pytest.raises(ValidationError):
            table(rec(""))

    def test_rejects_negative_citations(self):
        with pytest.raises(ValidationError):
            table(rec("J", citations=-1))

    def test_rejects_negative_articles(self):
        with pytest.raises(ValidationError):
            table(rec("J", articles=-3))

    def test_rejects_negative_impact(self):
        with pytest.raises(ValidationError):
            table(rec("J", impact=-0.5))

    def test_rejects_non_integer_counts(self):
        with pytest.raises(ValidationError):
            table(rec("J", citations=1.5))

    @pytest.mark.parametrize("field", ["citations", "articles"])
    def test_counts_must_fit_a_float(self, field):
        assert np.isfinite(float(getattr(table(rec("J", **{field: MAX_FLOAT_INT})), field)[0]))
        with pytest.raises(ValidationError, match=f"'{field}' exceeds the float range"):
            table(rec("J", **{field: MAX_FLOAT_INT + 1}))
        with pytest.raises(OverflowError):
            float(MAX_FLOAT_INT + 1)


class TestBuildRankedSet:
    def test_tie_breaks_by_ascending_id(self):
        records = table(rec("c", citations=5), rec("b", citations=9), rec("a", citations=9))
        ranked = build_ranked_set(records, Discipline.SCI, Basis.CITATIONS, 2000)
        assert ranked.table.journal_id == ["a", "b", "c"]

    def test_truncates_to_cap_keeping_largest(self):
        records = table(*(rec(f"J{i:04d}", citations=i) for i in range(1500)))
        ranked = build_ranked_set(records, Discipline.SCI, Basis.CITATIONS, 2000, cap=1000)
        assert len(ranked) == 1000
        kept = set(ranked.table.citations)
        assert kept == set(range(500, 1500))

    def test_recovers_generation_order_of_power_law_values(self):
        # citations = k**(-0.7) * 1e6 for k = 1..800, shuffled before ranking
        ks = np.arange(1, 801)
        values = np.round(1e6 * ks.astype(float) ** -0.7).astype(int)
        assert len(set(values)) == len(values)
        records = [rec(f"J{k:04d}", citations=int(v)) for k, v in zip(ks, values)]
        rng = np.random.default_rng(42)
        shuffled = [records[i] for i in rng.permutation(len(records))]
        ranked = build_ranked_set(table(*shuffled), Discipline.SCI, Basis.CITATIONS, 2000)
        assert ranked.table.journal_id == [f"J{k:04d}" for k in ks]

    def test_conflicting_duplicate_rejected_naming_journal(self):
        records = table(rec("DUP", citations=5), rec("DUP", citations=6))
        with pytest.raises(ValidationError, match="DUP"):
            build_ranked_set(records, Discipline.SCI, Basis.CITATIONS, 2000)

    def test_identical_duplicate_collapses(self):
        records = table(rec("DUP"), rec("DUP"), rec("other", citations=3))
        ranked = build_ranked_set(records, Discipline.SCI, Basis.CITATIONS, 2000)
        assert len(ranked) == 2

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            build_ranked_set(table(), Discipline.SCI, Basis.CITATIONS, 2000)

    def test_year_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            build_ranked_set(table(rec("J", year=1999)), Discipline.SCI, Basis.CITATIONS, 2000)

    def test_cap_below_one_rejected(self):
        with pytest.raises(ValidationError):
            build_ranked_set(table(rec("J")), Discipline.SCI, Basis.CITATIONS, 2000, cap=0)

    def test_impact_factor_basis(self):
        records = table(rec("a", impact=1.0), rec("b", impact=9.0))
        ranked = build_ranked_set(records, Discipline.SCI, Basis.IMPACT_FACTOR, 2000)
        assert ranked.table.journal_id == ["b", "a"]

    def test_a_list_of_rows_is_a_validation_error_naming_the_table(self):
        with pytest.raises(ValidationError, match="^build_ranked_set needs a JournalTable, got list$"):
            build_ranked_set([rec("a")], Discipline.SCI, Basis.CITATIONS, 2000)


class TestRankingProperties:
    def test_ranking_is_permutation_of_top_values(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(5, 120))
            cap = int(rng.integers(1, n + 1))
            values = rng.integers(0, 50, size=n)
            records = table(*(rec(f"J{i:03d}", citations=int(v)) for i, v in enumerate(values)))
            ranked = build_ranked_set(records, Discipline.SCI, Basis.CITATIONS, 2000, cap=cap)
            expected = sorted(values.tolist(), reverse=True)[:cap]
            assert sorted(ranked.table.citations, reverse=True) == expected

    def test_reranking_is_idempotent(self):
        rng = np.random.default_rng(8)
        records = [rec(f"J{i:03d}", citations=int(v)) for i, v in enumerate(rng.integers(0, 30, 50))]
        once = build_ranked_set(table(*records), Discipline.SCI, Basis.CITATIONS, 2000)
        twice = build_ranked_set(once.table, Discipline.SCI, Basis.CITATIONS, 2000)
        assert once == twice

    def test_sorting_determinism_over_permutations(self):
        rng = np.random.default_rng(9)
        records = [rec(f"J{i:03d}", citations=int(v)) for i, v in enumerate(rng.integers(0, 10, 80))]
        baseline = build_ranked_set(table(*records), Discipline.SCI, Basis.CITATIONS, 2000)
        for _ in range(5):
            shuffled = table(*(records[i] for i in rng.permutation(len(records))))
            assert build_ranked_set(shuffled, Discipline.SCI, Basis.CITATIONS, 2000) == baseline


@st.composite
def record_lists(draw):
    """Unique-id rows of one year with tied and untied basis values."""
    ids = draw(st.lists(st.sampled_from(["a", "a\x00", "b", "B", "J01", "J1", "\u00e9", "z"]),
                        min_size=2, max_size=8, unique=True))
    return [
        rec(jid, citations=draw(st.integers(0, 4) | st.integers(0, 2**60)),
            impact=draw(st.sampled_from([0.0, 1.5, 2.0]) | st.floats(0, 1e6)))
        for jid in ids
    ]


@settings(max_examples=300, deadline=None)
@given(records=record_lists(), basis=st.sampled_from(Basis), data=st.data())
def test_built_sets_validate_and_any_adjacent_swap_is_rejected(records, basis, data):
    ranked = build_ranked_set(table(*records), Discipline.SCI, basis, 2000)
    rows = rows_of(ranked.table)
    assert RankedSet(Discipline.SCI, basis, 2000, table(*rows)) == ranked
    i = data.draw(st.integers(0, len(ranked) - 2))
    swapped = list(rows)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    # ids are unique, so adjacent sort keys always differ
    message = (
        f"records out of order at {rows[i].journal_id!r}: "
        "must be non-increasing in basis value, ties by ascending id"
    )
    with pytest.raises(ValidationError) as err:
        RankedSet(Discipline.SCI, basis, 2000, table(*swapped))
    assert str(err.value) == message


class TestRankedSetInvariants:
    def test_out_of_order_records_rejected(self):
        records = (rec("a", citations=1), rec("b", citations=5))
        with pytest.raises(ValidationError):
            RankedSet(Discipline.SCI, Basis.CITATIONS, 2000, table(*records))


class TestFitResult:
    def test_requires_ordered_range(self):
        with pytest.raises(ValidationError):
            FitResult({"b": 1.0}, {"b": 0.1}, (5.0, 5.0), FitMethod.MAXIMUM_LIKELIHOOD)

    def test_requires_nonnegative_stderr(self):
        with pytest.raises(ValidationError):
            FitResult({"b": 1.0}, {"b": -0.1}, (1.0, 5.0), FitMethod.MAXIMUM_LIKELIHOOD)

    def test_requires_matching_names(self):
        with pytest.raises(ValidationError):
            FitResult({"b": 1.0}, {"c": 0.1}, (1.0, 5.0), FitMethod.MAXIMUM_LIKELIHOOD)


# --- columnar validation against the former record loop -------------------------


def former_ranked_set_check(basis, year, records, cap=1000):
    """RankedSet's former per-record checks, copied unchanged."""
    if cap < 1:
        raise ValidationError(f"cap must be >= 1, got {cap}")
    if not records:
        raise ValidationError("a RankedSet cannot be empty")
    if len(records) > cap:
        raise ValidationError(f"{len(records)} records exceed cap {cap}")
    seen = set()
    for r in records:
        if r.year != year:
            raise ValidationError(f"{r.journal_id!r}: record year {r.year} != set year {year}")
        if r.journal_id in seen:
            raise ValidationError(f"duplicate journal_id {r.journal_id!r}")
        seen.add(r.journal_id)
    keys = [
        (-float(r.citations if basis is Basis.CITATIONS else r.impact_factor), r.journal_id)
        for r in records
    ]
    for prev, cur in zip(keys, keys[1:]):
        if cur < prev:
            raise ValidationError(
                f"records out of order at {cur[1]!r}: "
                "must be non-increasing in basis value, ties by ascending id"
            )
    return "ok"


def outcome(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
        return "ok"
    except ValidationError as exc:
        return ("error", str(exc))


# Repeated ids, a stray year and tied values are all frequent; citations reach
# past 2**53, where float comparisons tie distinct integers.
loose_records = st.lists(
    st.builds(
        Row,
        st.sampled_from(["a", "a\x00", "b", "B", "J1", "\u00e9"]),
        st.sampled_from([2000, 2000, 2000, 1999]),
        st.integers(0, 3) | st.integers(2**53, 2**53 + 4) | st.just(10**300),
        st.sampled_from([0.0, -0.0, 1.5, 2.0]) | st.floats(0, 1e300),
        st.integers(0, 3),
    ),
    max_size=7,
)


@settings(max_examples=400, deadline=None)
@given(records=loose_records, basis=st.sampled_from(Basis), cap=st.sampled_from([1, 5, 1000]))
def test_columnar_checks_equal_former_record_loop(records, basis, cap):
    expected = outcome(former_ranked_set_check, basis, 2000, records, cap)
    assert outcome(RankedSet, Discipline.SCI, basis, 2000, cap=cap,
                   table=table(*records)) == expected
    assert outcome(RankedSet, Discipline.SCI, basis, 2000, table(*records), cap) == expected


def former_numpy_order_check(basis, table):
    """RankedSet's former order check on numpy arrays, copied unchanged."""
    ids = table.journal_id
    values = table.citations if basis is Basis.CITATIONS else table.impact_factor
    value = np.array(values, dtype=float)
    out_of_order = value[1:] > value[:-1]
    tie = value[1:] == value[:-1]
    if tie.any():
        out_of_order[tie] = [ids[i + 1] < ids[i] for i in np.flatnonzero(tie).tolist()]
    if out_of_order.any():
        raise ValidationError(
            f"records out of order at {ids[int(np.argmax(out_of_order)) + 1]!r}: "
            "must be non-increasing in basis value, ties by ascending id"
        )


# Basis values that tie often, also as floats where they differ as written: counts
# around and past 2**53, and impact factors as ints, Decimals, Fractions and float32s.
ORDER_VALUES = {
    Basis.CITATIONS: (st.integers(0, 3) | st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, 2**53 + 2])
                      | st.integers(2**60, 2**60 + 300) | st.integers(0, MAX_FLOAT_INT)),
    Basis.IMPACT_FACTOR: (st.sampled_from([0.0, -0.0, 1.5, 2, 2.0]) | st.floats(0, 1e6)
                          | st.decimals(0, 2, places=20) | st.fractions(0, 2)
                          | st.floats(0, 2, width=32).map(np.float32)),
}
# Sort keys of a row's basis value: as build_ranked_set sorts it, and exactly as written.
ORDER_KEYS = {
    "float": float,
    "exact": lambda v: Fraction(float(v) if isinstance(v, np.float32) else v),
}


@settings(max_examples=500, deadline=None)
@given(basis=st.sampled_from(Basis), data=st.data())
def test_order_check_equals_the_former_numpy_check(basis, data):
    ids = data.draw(st.lists(st.text("abc", min_size=1, max_size=3), min_size=1, max_size=40,
                             unique=True))
    field = "citations" if basis is Basis.CITATIONS else "impact_factor"
    rows = [rec(jid, **{field.split("_")[0]: data.draw(ORDER_VALUES[basis])}) for jid in ids]
    order = data.draw(st.sampled_from(["drawn", *ORDER_KEYS]))
    if order != "drawn":  # sorted, ties by ascending id, then some neighbours swapped
        key = ORDER_KEYS[order]
        rows.sort(key=lambda r: (-key(getattr(r, field)), r.journal_id))
        for i in data.draw(st.lists(st.integers(0, max(len(rows) - 2, 0)), max_size=3)):
            rows[i:i + 2] = rows[i:i + 2][::-1]
    built = table(*rows)
    assert (outcome(RankedSet, Discipline.SCI, basis, 2000, built)
            == outcome(former_numpy_order_check, basis, built))


# (column, value, the record's wording before row_fault, row_fault's wording)
TABLE_FAULTS = [
    ("journal_id", "", "journal_id must be a non-empty string",
     "'': journal_id must be a non-empty string"),
    ("journal_id", 5, "journal_id must be a non-empty string",
     "5: journal_id must be a non-empty string"),
    ("citations", -1, "'b': citations must be a non-negative integer, got -1",
     "'b': column 'citations' must be >= 0, got -1"),
    ("citations", 2.0, "'b': citations must be a non-negative integer, got 2.0",
     "'b': column 'citations' must be an integer, got 2.0"),
    ("articles", MAX_FLOAT_INT + 1, "'b': articles exceeds the float range",
     "'b': column 'articles' exceeds the float range (about 1.8e308)"),
    ("impact_factor", math.inf, "'b': impact_factor must be finite and >= 0, got inf",
     "'b': column 'impact_factor' must be finite, got inf"),
    ("impact_factor", "1.0", "'b': impact_factor must be finite and >= 0, got '1.0'",
     "'b': column 'impact_factor' must be numeric, got '1.0'"),
    ("impact_factor", None, "'b': impact_factor must be finite and >= 0, got None",
     "'b': column 'impact_factor' must be numeric, got None"),
    ("impact_factor", 10**400, "'b': impact_factor must be finite and >= 0, got 1000",
     "'b': column 'impact_factor' must be finite, got an integer past the float range"),
    ("year", 2000.0, "'b': year must be a non-negative integer within the float range",
     "'b': column 'year' must be an integer, got 2000.0"),
    ("year", -5, "'b': year must be a non-negative integer within the float range",
     "'b': column 'year' must be >= 0, got -5"),
    ("year", "2000", "'b': year must be a non-negative integer within the float range",
     "'b': column 'year' must be an integer, got '2000'"),
    ("year", True, "'b': year must be a non-negative integer within the float range",
     "'b': column 'year' must be an integer, got True"),
    ("year", np.int64(2000), "'b': year must be a non-negative integer within the",
     "'b': column 'year' must be an integer, got "),
    ("year", MAX_FLOAT_INT + 1, "'b': year must be a non-negative integer within the",
     "'b': column 'year' exceeds the float range (about 1.8e308)"),
    ("citations", True, "'b': citations must be a non-negative integer, got True",
     "'b': column 'citations' must be an integer, got True"),
    ("articles", False, "'b': articles must be a non-negative integer, got False",
     "'b': column 'articles' must be an integer, got False"),
    ("journal_id", " b", "journal_id ' b' must not start or end with whitespace",
     "' b': journal_id must not start or end with whitespace"),
    ("journal_id", "b\x1c", "journal_id 'b\\x1c' must not start or end with whitespace",
     "'b\\x1c': journal_id must not start or end with whitespace"),
    ("impact_factor", 2**60 + 1,
     "'b': an int impact_factor must be exactly a float, got 1152921504606846977",
     "'b': column 'impact_factor' must be exactly a float, got 1152921504606846977"),
]
FORMER_WORDING = {message: former for *_, former, message in TABLE_FAULTS}


class TestColumnarSet:
    def test_table_and_records_builds_agree(self):
        records = (rec("b", citations=9, impact=2.5), rec("a", citations=5, articles=0))
        positional = RankedSet(Discipline.SCI, Basis.CITATIONS, 2000, table(*records))
        from_table = RankedSet(Discipline.SCI, Basis.CITATIONS, 2000, table=table(*records))
        assert from_table == positional
        assert hash(from_table) == hash(positional)
        assert "_columns" not in vars(from_table)
        assert rows_of(from_table.table) == list(records)
        assert from_table.table.journal_id == ["b", "a"]
        assert from_table.column("cr")[0] == 9 / 5 and math.isnan(from_table.column("cr")[1])

    def test_is_immutable(self):
        ranked = RankedSet(Discipline.SCI, Basis.CITATIONS, 2000, table(rec("a")))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ranked.year = 2001

    def test_needs_records_or_table(self):
        with pytest.raises(TypeError):
            RankedSet(Discipline.SCI, Basis.CITATIONS, 2000)

    @pytest.mark.parametrize(
        "column, value, message",
        [(column, value, message) for column, value, _, message in TABLE_FAULTS],
        # each case keeps the id it had when the record worded its own faults
        ids=lambda v: FORMER_WORDING.get(v) if type(v) is str else None,
    )
    def test_table_rejects_what_a_record_rejects(self, column, value, message):
        columns = {"journal_id": ["a", "b"], "year": [2000, 2000], "citations": [3, 2],
                   "impact_factor": [1.0, 1.0], "articles": [1, 1]}
        columns[column][1] = value
        with pytest.raises(ValidationError) as err:
            JournalTable(**columns)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("year", [2000.0, np.int64(2000), True, "2000"])
    def test_set_year_must_be_an_int(self, year):
        table = JournalTable(["a"], [2000], [1], [1.0], [1])
        with pytest.raises(ValidationError, match="set year must be an integer, got"):
            RankedSet(Discipline.SCI, Basis.CITATIONS, year, table)

    def test_set_cap_below_one_rejected(self):
        table = JournalTable(["a"], [2000], [1], [1.0], [1])
        with pytest.raises(ValidationError, match="cap must be >= 1, got 0"):
            RankedSet(Discipline.SCI, Basis.CITATIONS, 2000, table, cap=0)

    def test_table_columns_must_be_equally_long(self):
        with pytest.raises(ValidationError, match="equally long"):
            JournalTable(["a"], [2000], [1], [1.0], [])


# --- one row rule for the table and the CSV ----------------------------------------


@pytest.mark.parametrize("huge", [10**5000, -10**5000], ids=["plus", "minus"])
@pytest.mark.parametrize("field", ["year", "citations", "impact_factor", "articles"])
def test_an_int_too_long_to_print_is_a_validation_error(field, huge):
    row = {"journal_id": "a", "year": 2000, "citations": 1, "impact_factor": 1.0, "articles": 1}
    valid = JournalTable.from_rows([tuple(row.values())])
    row[field] = huge
    assert row_fault(*row.values())
    with pytest.raises(ValidationError):
        JournalTable.from_rows([tuple(row.values())])
    if field == "year":  # a valid table in a set of that year
        with pytest.raises(ValidationError):
            RankedSet(Discipline.SCI, Basis.CITATIONS, huge, valid)
        with pytest.raises(ValidationError):
            build_ranked_set(valid, Discipline.SCI, Basis.CITATIONS, huge)
    if huge < 0:  # and as a cap
        with pytest.raises(ValidationError):
            RankedSet(Discipline.SCI, Basis.CITATIONS, 2000, valid, cap=huge)
        with pytest.raises(ValidationError):
            build_ranked_set(valid, Discipline.SCI, Basis.CITATIONS, 2000, cap=huge)


# Ids and values of every type a caller might pass: bools, numpy scalars, ints past
# the float range and past any printable length, NaN and infinities, text, and a
# Decimal that float() refuses.
any_ids = st.sampled_from(["a", "", " a", "a ", "b\x1c", "\u00e9", 5, 10**5000, None, b"a",
                          np.str_("a")])
any_ints = (
    st.integers(-2, 3) | st.integers(2**53, 2**53 + 2)
    | st.sampled_from([MAX_FLOAT_INT, MAX_FLOAT_INT + 1, 10**400, -10**5000, True, False,
                       np.int64(3), np.int32(-1), 2000.0, "7", None, math.nan])
)
any_impacts = (
    st.floats() | st.integers(-2, 2**60 + 2)
    | st.sampled_from([2**60 + 1, 10**400, -10**5000, True, np.float64(1.5), np.float32("nan"),
                       np.float64("-inf"), np.int64(2), "1.0", None, Decimal("sNaN")])
)


@settings(max_examples=400, deadline=None)
@given(row=st.tuples(any_ids, any_ints, any_ints, any_impacts, any_ints))
def test_a_one_row_table_words_its_fault_by_row_fault(row):
    fault = row_fault(*row)
    expected = ("error", f"{_shown(row[0])}: {fault}") if fault else "ok"
    assert outcome(JournalTable.from_rows, [row]) == expected


# --- build_ranked_set on tables against the former record sort -------------------


def former_build_ranked_set(records, discipline, basis, year, cap=1000):
    """build_ranked_set as it was when it sorted records, copied unchanged but
    for the final RankedSet call, which now takes a table."""
    if cap < 1:
        raise ValidationError(f"cap must be >= 1, got {cap}")
    records = list(records)
    if not records:
        raise ValidationError("cannot rank an empty record list")

    by_id = {}
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

    def rank_key(r):
        value = r.citations if basis is Basis.CITATIONS else r.impact_factor
        return (-float(value), r.journal_id)

    ordered = sorted(by_id.values(), key=rank_key)
    return RankedSet(discipline, basis, year, JournalTable.from_rows(ordered[:cap]), cap)


def ranked_outcome(build, rows, basis, cap):
    """The built set with every value as its repr (so -0.0 differs from 0.0), or the error."""
    try:
        ranked = build(rows, Discipline.SCI, basis, 2000, cap)
    except ValidationError as exc:
        return ("error", str(exc))
    columns = [getattr(ranked.table, f.name) for f in dataclasses.fields(JournalTable)]
    return ranked.cap, [tuple(map(repr, row)) for row in zip(*columns)]


def reworded(outcome):
    """The former sort's outcome in today's wording: a stray year reads ``!=``, as in
    ``RankedSet``, where it read ``does not match``."""
    if outcome[0] != "error":
        return outcome
    return "error", outcome[1].replace(" does not match set year ", " != set year ")


@st.composite
def records_with_repeats(draw):
    """Distinct-id rows (a few in a stray year; tied, zero and past-2**53 values) with
    repeats inserted: equal, equal but for 0.0 against -0.0, or conflicting in a count
    or the year."""
    records = draw(st.lists(
        st.builds(
            Row,
            st.sampled_from(["a", "a\x00", "b", "B", "J1", "\u00e9"]),
            st.sampled_from([2000] * 9 + [1999]),
            st.integers(0, 3) | st.integers(2**53, 2**53 + 4) | st.just(10**300),
            st.sampled_from([0.0, -0.0, 1.5]) | st.floats(0, 1e300),
            st.integers(0, 3),
        ),
        max_size=7,
        unique_by=lambda r: r.journal_id,
    ))
    for _ in range(draw(st.integers(0, 3)) if records else 0):
        twin = draw(st.sampled_from(records))
        flipped = -twin.impact_factor if twin.impact_factor == 0 else twin.impact_factor
        twin = draw(st.sampled_from([
            twin,
            *[twin._replace(impact_factor=flipped)] * 3,
            twin._replace(articles=twin.articles + 1),
            twin._replace(year=1999),
        ]))
        records.insert(draw(st.integers(0, len(records))), twin)
    return records


@settings(max_examples=400, deadline=None)
@given(records=records_with_repeats(), basis=st.sampled_from(Basis),
       cap=st.sampled_from([1, 5, 1000]))
def test_build_ranked_set_equals_former_record_sort(records, basis, cap):
    expected = reworded(ranked_outcome(former_build_ranked_set, records, basis, cap))
    assert ranked_outcome(build_ranked_set, table(*records), basis, cap) == expected


# --- build_ranked_set against the former row-tuple build ---------------------------


def former_row_tuple_build(table, discipline, basis, year, cap=1000):
    """build_ranked_set as it was when it walked every row for repeats and sorted
    row tuples by a (value, id) key, copied unchanged with ``_first_rows`` inlined."""
    if not isinstance(table, JournalTable):
        raise ValidationError(f"build_ranked_set needs a JournalTable, got {type(table).__name__}")
    if cap < 1:
        raise ValidationError(f"cap must be >= 1, got {_shown(cap)}")
    if not len(table):
        raise ValidationError("cannot rank an empty record list")

    def first_rows():
        first = {}
        for i, (journal_id, row_year) in enumerate(zip(table.journal_id, table.year)):
            if row_year != year:
                raise ValidationError(
                    f"{journal_id!r}: record year {row_year} != set year {_shown(year)}")
            yield i, first.setdefault(journal_id, i)

    rows = list(zip(table.journal_id, table.year, table.citations, table.impact_factor,
                    table.articles))
    keep = []
    for i, first in first_rows():
        if i == first:
            keep.append(i)
        elif rows[i] != rows[first]:
            raise ValidationError(f"duplicate journal_id {rows[i][0]!r} with conflicting values")

    values = table.citations if basis is Basis.CITATIONS else table.impact_factor
    keep.sort(key=lambda i: (-float(values[i]), table.journal_id[i]))
    kept = JournalTable.from_rows(rows[i] for i in keep[:cap])
    return RankedSet(discipline, basis, year, kept, cap)


def built_outcome(build, rows, basis, year, cap):
    """The built set with every value as its type and repr (so -0.0 differs from 0.0,
    and a float32 or an int from a float), or the error."""
    try:
        ranked = build(table(*rows), Discipline.SCI, basis, year, cap)
    except ValidationError as exc:
        return ("error", str(exc))
    columns = [getattr(ranked.table, f.name) for f in dataclasses.fields(JournalTable)]
    return ranked.cap, [[(type(v), repr(v)) for v in col] for col in columns]


@st.composite
def rows_to_rank(draw):
    """Distinct-id rows with repeats inserted (as ``records_with_repeats``), whose basis
    values tie often: 0.0 and -0.0, 2 and 2.0, a float32, and counts past 2**53 that are
    equal as floats."""
    records = draw(st.lists(
        st.builds(
            Row,
            st.sampled_from(["a", "a\x00", "b", "B", "J1", "é", "c,d", 'q"x']),
            st.sampled_from([2000] * 9 + [1999]),
            st.integers(0, 3) | st.integers(2**53, 2**53 + 4) | st.just(10**300),
            st.sampled_from([0.0, -0.0, 2, 2.0, 2**60, 1.5, np.float32(1.5)]) | st.floats(0, 4),
            st.integers(0, 3),
        ),
        min_size=1,
        max_size=8,
        unique_by=lambda r: r.journal_id,
    ))
    for _ in range(draw(st.integers(0, 3))):
        twin = draw(st.sampled_from(records))
        flipped = -twin.impact_factor if twin.impact_factor == 0 else twin.impact_factor
        twin = draw(st.sampled_from([
            twin,
            twin._replace(impact_factor=flipped),
            twin._replace(citations=twin.citations + 1),
            twin._replace(year=1999),
        ]))
        records.insert(draw(st.integers(0, len(records))), twin)
    return records


@settings(max_examples=400, deadline=None)
@given(rows=rows_to_rank(), basis=st.sampled_from(Basis),
       year=st.sampled_from([2000, 2000, 2000, 1999, 2000.0, np.int64(2000)]),
       cap=st.sampled_from([1, 2, 5, 1000]))
def test_build_ranked_set_equals_former_row_tuple_build(rows, basis, year, cap):
    expected = built_outcome(former_row_tuple_build, rows, basis, year, cap)
    assert built_outcome(build_ranked_set, rows, basis, year, cap) == expected
