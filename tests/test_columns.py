"""RankedSet's cached columns and the id-numbered joins built on them.

The property tests compare the column-based analyses with a plain-dict
reference: per-journal value dicts and Python set intersections, as the
package computed them before the columns existed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citemetrics.correlate import (
    Transform,
    correlation_matrix,
    cross_measure_correlation,
    dynamic_correlation,
    pearson,
)
from citemetrics.errors import ValidationError
from citemetrics.model import (
    Basis,
    Discipline,
    JournalTable,
    JournalYearRecord,
    Measure,
    RankedSet,
    build_ranked_set,
)
from citemetrics.rankstats import rank_scatter, set_overlap

# Ids that differ only by trailing NULs, non-ASCII ids and a combining mark. The
# model rejects ids with leading or trailing whitespace.
ID_POOL = [
    "a", "a\x00", "a\x00\x00", "\x00", "b", "J0001", "J0001\x00", "J0002",
    "\u00e9", "e\u0301", "\u03a9", "\u65e5\u672c", "z", "z\x00", "\u00df", "!x",
]
journal_ids = st.sampled_from(ID_POOL) | st.text(min_size=1, max_size=3).filter(
    lambda s: s == s.strip()
)
# Zero citations, zero impact factor and zero articles are all frequent.
record_values = st.tuples(
    st.integers(0, 30) | st.just(0),
    st.sampled_from([0.0, 0.5, 1.25, 3.0]) | st.floats(0, 100, allow_nan=False),
    st.integers(0, 4),
)


@st.composite
def ranked_years(draw, years=(2000, 2001)):
    basis = draw(st.sampled_from(list(Basis)))
    sets = []
    for year in years:
        ids = draw(st.lists(journal_ids, min_size=1, max_size=14, unique=True))
        records = [JournalYearRecord(j, year, *draw(record_values)) for j in ids]
        sets.append(build_ranked_set(records, Discipline.SCI, basis, year))
    return sets


# --- plain-dict reference ----------------------------------------------------


def ref_values(ranked, field_):
    values = {}
    for pos, rec in enumerate(ranked.records, start=1):
        if field_ is Measure.RANK:
            values[rec.journal_id] = float(pos)
        elif field_ is Measure.CITATIONS:
            values[rec.journal_id] = float(rec.citations)
        elif field_ is Measure.IMPACT_FACTOR:
            values[rec.journal_id] = float(rec.impact_factor)
        elif rec.articles > 0:
            values[rec.journal_id] = rec.citations / rec.articles
    return values


def ref_label(ranked, name):
    return f"{ranked.discipline.value}:{ranked.basis.value}:{ranked.year}:{name}"


def ref_overlap(a, b):
    ids_a = [rec.journal_id for rec in a.records]
    ids_b = [rec.journal_id for rec in b.records]
    common = sorted(set(ids_a) & set(ids_b))
    return tuple(common), len(common)


def ref_rank_scatter(a, b):
    rank_a = {rec.journal_id: k for k, rec in enumerate(a.records, start=1)}
    rank_b = {rec.journal_id: k for k, rec in enumerate(b.records, start=1)}
    return [(j, rank_a[j], rank_b[j]) for j in ref_overlap(a, b)[0]]


def ref_dynamic(a, b, field_):
    common, count = ref_overlap(a, b)
    if count < 2:
        raise ValidationError(f"overlap of {count} journals is too small to correlate")
    va, vb = ref_values(a, field_), ref_values(b, field_)
    ids = [j for j in common if j in va and j in vb]
    transform = Transform.RANK_RANK if field_ is Measure.RANK else Transform.LOG_LOG
    return pearson(
        [va[j] for j in ids], [vb[j] for j in ids], transform=transform,
        subjects=(ref_label(a, field_.value), ref_label(b, field_.value)),
    )


def ref_cross(ranked, mx, my):
    vx, vy = ref_values(ranked, mx), ref_values(ranked, my)
    ids = [j for j in vx if j in vy]
    if len(ids) < 2:
        raise ValidationError("fewer than 2 journals have both measures")
    return pearson(
        [vx[j] for j in ids], [vy[j] for j in ids], transform=Transform.LOG_LOG,
        subjects=(ref_label(ranked, mx.value), ref_label(ranked, my.value)),
    )


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except ValidationError as exc:
        return ("error", str(exc))


VALUE_FIELDS = [f for f in Measure if f is not Measure.RANK]


@settings(max_examples=300, deadline=None)
@given(ranked_years())
def test_joins_and_correlations_match_dict_reference(pair):
    a, b = pair
    assert set_overlap(a, b) == ref_overlap(a, b)
    assert rank_scatter(a, b) == ref_rank_scatter(a, b)
    for field_ in Measure:
        assert outcome(dynamic_correlation, a, b, field_) == outcome(ref_dynamic, a, b, field_)
    for ranked in (a, b):
        for mx in VALUE_FIELDS:
            for my in VALUE_FIELDS:
                assert outcome(cross_measure_correlation, ranked, mx, my) == outcome(
                    ref_cross, ranked, mx, my
                )


@settings(max_examples=200, deadline=None)
@given(ranked_years((2000, 2001, 2002)), st.permutations(range(3)))
def test_matrix_cells_equal_single_pair_results(group, order):
    """Numbering three sets at once never reorders the rows of one pair."""
    for field_ in Measure:
        years, cells = correlation_matrix([group[i] for i in order], field_)
        assert years == (2000, 2001, 2002)
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                cell = cells[a.year, b.year]
                got = ("error", cell) if isinstance(cell, str) else ("ok", cell)
                assert got == outcome(dynamic_correlation, a, b, field_)
                assert cells[b.year, a.year] == cell


@settings(max_examples=200, deadline=None)
@given(ranked_years())
def test_journal_ids_match_records(pair):
    ranked = pair[0]
    assert ranked.table.journal_id == [rec.journal_id for rec in ranked.records]


def make_set():
    records = [
        JournalYearRecord("a", 2000, 30, 2.5, 10),
        JournalYearRecord("a\x00", 2000, 20, 0.0, 0),
        JournalYearRecord("\u00e9", 2000, 0, 1.0, 3),
    ]
    return build_ranked_set(records, Discipline.SCI, Basis.CITATIONS, 2000)


class TestColumns:
    def test_built_on_first_use_only(self):
        ranked = make_set()
        rebuilt = RankedSet(
            ranked.discipline, ranked.basis, ranked.year, JournalTable.from_records(ranked.records)
        )
        assert "_columns" not in vars(rebuilt)
        rebuilt.column("n")
        assert "_columns" in vars(rebuilt)
        assert rebuilt == ranked

    def test_values_in_rank_order(self):
        ranked = make_set()
        assert ranked.column("rank").tolist() == [1.0, 2.0, 3.0]
        assert ranked.column(Measure.CITATIONS).tolist() == [30.0, 20.0, 0.0]
        assert ranked.column("if").tolist() == [2.5, 0.0, 1.0]
        assert ranked.column("articles").tolist() == [10.0, 0.0, 3.0]

    def test_rate_is_nan_without_articles(self):
        rate = make_set().column("cr")
        assert rate[0] == 3.0 and math.isnan(rate[1]) and rate[2] == 0.0

    def test_columns_are_read_only(self):
        col = make_set().column("n")
        with pytest.raises(ValueError):
            col[0] = 1.0

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValidationError, match="unknown measure"):
            make_set().column("citations")

    def test_trailing_nul_ids_stay_distinct(self):
        ranked = make_set()
        assert ranked.table.journal_id == ["a", "a\x00", "\u00e9"]
        other = build_ranked_set(
            [JournalYearRecord("a\x00", 2001, 5, 1.0, 1)], Discipline.SCI, Basis.CITATIONS, 2001
        )
        assert set_overlap(ranked, other) == (("a\x00",), 1)
        assert rank_scatter(ranked, other) == [("a\x00", 2, 1)]

    def test_huge_counts_keep_exact_rate(self):
        # Above 2**53 float(c) / float(n) rounds twice; c / n rounds once.
        big, articles = 2081918845191089988, 484
        ranked = build_ranked_set(
            [JournalYearRecord("a", 2000, big, 1.0, articles)],
            Discipline.SCI, Basis.CITATIONS, 2000,
        )
        assert ranked.column("cr")[0] == big / articles
        assert np.float64(big) / articles != big / articles
