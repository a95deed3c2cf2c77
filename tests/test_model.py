import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citemetrics.errors import ValidationError
from citemetrics.model import (
    Basis,
    Discipline,
    FitMethod,
    FitResult,
    JournalYearRecord,
    RankedSet,
    build_ranked_set,
)


def rec(jid, citations=10, impact=1.0, articles=5, year=2000):
    return JournalYearRecord(
        journal_id=jid, year=year, citations=citations,
        impact_factor=impact, articles=articles,
    )


class TestRecordValidation:
    def test_rejects_empty_id(self):
        with pytest.raises(ValidationError):
            rec("")

    def test_rejects_negative_citations(self):
        with pytest.raises(ValidationError):
            rec("J", citations=-1)

    def test_rejects_negative_articles(self):
        with pytest.raises(ValidationError):
            rec("J", articles=-3)

    def test_rejects_negative_impact(self):
        with pytest.raises(ValidationError):
            rec("J", impact=-0.5)

    def test_rejects_non_integer_counts(self):
        with pytest.raises(ValidationError):
            rec("J", citations=1.5)


class TestBuildRankedSet:
    def test_tie_breaks_by_ascending_id(self):
        records = [rec("c", citations=5), rec("b", citations=9), rec("a", citations=9)]
        ranked = build_ranked_set(records, Discipline.SCI, Basis.CITATIONS, 2000)
        assert ranked.journal_ids() == ("a", "b", "c")

    def test_truncates_to_cap_keeping_largest(self):
        records = [rec(f"J{i:04d}", citations=i) for i in range(1500)]
        ranked = build_ranked_set(records, Discipline.SCI, Basis.CITATIONS, 2000, cap=1000)
        assert len(ranked) == 1000
        kept = {r.citations for r in ranked.records}
        assert kept == set(range(500, 1500))

    def test_recovers_generation_order_of_power_law_values(self):
        # citations = k**(-0.7) * 1e6 for k = 1..800, shuffled before ranking
        ks = np.arange(1, 801)
        values = np.round(1e6 * ks.astype(float) ** -0.7).astype(int)
        assert len(set(values)) == len(values)
        records = [rec(f"J{k:04d}", citations=int(v)) for k, v in zip(ks, values)]
        rng = np.random.default_rng(42)
        shuffled = [records[i] for i in rng.permutation(len(records))]
        ranked = build_ranked_set(shuffled, Discipline.SCI, Basis.CITATIONS, 2000)
        assert ranked.journal_ids() == tuple(f"J{k:04d}" for k in ks)

    def test_conflicting_duplicate_rejected_naming_journal(self):
        records = [rec("DUP", citations=5), rec("DUP", citations=6)]
        with pytest.raises(ValidationError, match="DUP"):
            build_ranked_set(records, Discipline.SCI, Basis.CITATIONS, 2000)

    def test_identical_duplicate_collapses(self):
        records = [rec("DUP"), rec("DUP"), rec("other", citations=3)]
        ranked = build_ranked_set(records, Discipline.SCI, Basis.CITATIONS, 2000)
        assert len(ranked) == 2

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            build_ranked_set([], Discipline.SCI, Basis.CITATIONS, 2000)

    def test_year_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            build_ranked_set([rec("J", year=1999)], Discipline.SCI, Basis.CITATIONS, 2000)

    def test_cap_below_one_rejected(self):
        with pytest.raises(ValidationError):
            build_ranked_set([rec("J")], Discipline.SCI, Basis.CITATIONS, 2000, cap=0)

    def test_impact_factor_basis(self):
        records = [rec("a", impact=1.0), rec("b", impact=9.0)]
        ranked = build_ranked_set(records, Discipline.SCI, Basis.IMPACT_FACTOR, 2000)
        assert ranked.journal_ids() == ("b", "a")


class TestRankingProperties:
    def test_ranking_is_permutation_of_top_values(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(5, 120))
            cap = int(rng.integers(1, n + 1))
            values = rng.integers(0, 50, size=n)
            records = [rec(f"J{i:03d}", citations=int(v)) for i, v in enumerate(values)]
            ranked = build_ranked_set(records, Discipline.SCI, Basis.CITATIONS, 2000, cap=cap)
            expected = sorted(values.tolist(), reverse=True)[:cap]
            assert sorted((r.citations for r in ranked.records), reverse=True) == expected

    def test_reranking_is_idempotent(self):
        rng = np.random.default_rng(8)
        records = [rec(f"J{i:03d}", citations=int(v)) for i, v in enumerate(rng.integers(0, 30, 50))]
        once = build_ranked_set(records, Discipline.SCI, Basis.CITATIONS, 2000)
        twice = build_ranked_set(once.records, Discipline.SCI, Basis.CITATIONS, 2000)
        assert once == twice

    def test_sorting_determinism_over_permutations(self):
        rng = np.random.default_rng(9)
        records = [rec(f"J{i:03d}", citations=int(v)) for i, v in enumerate(rng.integers(0, 10, 80))]
        baseline = build_ranked_set(records, Discipline.SCI, Basis.CITATIONS, 2000)
        for _ in range(5):
            shuffled = [records[i] for i in rng.permutation(len(records))]
            assert build_ranked_set(shuffled, Discipline.SCI, Basis.CITATIONS, 2000) == baseline


@st.composite
def record_lists(draw):
    """Unique-id records of one year with tied and untied basis values."""
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
    ranked = build_ranked_set(records, Discipline.SCI, basis, 2000)
    assert RankedSet(Discipline.SCI, basis, 2000, ranked.records) == ranked
    i = data.draw(st.integers(0, len(ranked) - 2))
    swapped = list(ranked.records)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    # ids are unique, so adjacent sort keys always differ
    message = (
        f"records out of order at {ranked.records[i].journal_id!r}: "
        "must be non-increasing in basis value, ties by ascending id"
    )
    with pytest.raises(ValidationError) as err:
        RankedSet(Discipline.SCI, basis, 2000, tuple(swapped))
    assert str(err.value) == message


class TestRankedSetInvariants:
    def test_out_of_order_records_rejected(self):
        records = (rec("a", citations=1), rec("b", citations=5))
        with pytest.raises(ValidationError):
            RankedSet(Discipline.SCI, Basis.CITATIONS, 2000, records)

    def test_rank_of(self):
        ranked = build_ranked_set(
            [rec("a", citations=5), rec("b", citations=9)],
            Discipline.SCI, Basis.CITATIONS, 2000,
        )
        assert ranked.rank_of("b") == 1
        assert ranked.rank_of("a") == 2
        with pytest.raises(KeyError):
            ranked.rank_of("zzz")


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
