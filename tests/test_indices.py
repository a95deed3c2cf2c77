from fractions import Fraction

import numpy as np
import pytest

from citemetrics.errors import ValidationError
from citemetrics.indices import (
    RawCounts,
    annual_citations,
    citation_rate,
    derive_rates,
    impact_factor,
)
from citemetrics.model import Basis, Discipline, JournalYearRecord, build_ranked_set


class TestImpactFactor:
    def test_plain_ratio(self):
        raw = RawCounts(100, 100, 50, 50)
        assert impact_factor(raw) == 2.0

    def test_zero_numerator(self):
        assert impact_factor(RawCounts(0, 0, 10, 10)) == 0.0

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValidationError, match="no citable articles"):
            impact_factor(RawCounts(5, 5, 0, 0))

    def test_matches_rational_oracle_on_random_counts(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            c1, c2 = (int(v) for v in rng.integers(0, 10**7, 2))
            a1, a2 = (int(v) for v in rng.integers(0, 10**4, 2))
            if a1 + a2 == 0:
                a1 = 1
            got = impact_factor(RawCounts(c1, c2, a1, a2))
            assert got == float(Fraction(c1 + c2, a1 + a2))

    def test_swap_of_both_years_is_invariant(self):
        raw = RawCounts(7, 12, 3, 9)
        swapped = RawCounts(12, 7, 9, 3)
        assert impact_factor(raw) == impact_factor(swapped)

    def test_quotient_past_the_float_range_rejected(self):
        with pytest.raises(ValidationError, match="^impact factor exceeds the float range"):
            impact_factor(RawCounts(10**400, 0, 1, 0))
        assert impact_factor(RawCounts(10**400, 0, 10**399, 0)) == 10.0

    def test_rejects_negative_counts(self):
        with pytest.raises(ValidationError):
            RawCounts(-1, 0, 1, 1)
        with pytest.raises(ValidationError, match="cites_to_y_minus_1 .* got True"):
            RawCounts(True, 0, 1, 1)
        with pytest.raises(ValidationError, match="per-paper citation counts .* got -2"):
            RawCounts(1, 1, 1, 1, per_paper_citations=(1, -2))


class TestAnnualCitations:
    def test_simple_sum(self):
        assert annual_citations([3, 0, 7]) == 10

    def test_empty_sum_is_zero(self):
        assert annual_citations([]) == 0

    def test_matches_bigint_oracle(self):
        rng = np.random.default_rng(12)
        counts = [int(v) for v in rng.integers(0, 10**9, 10**5)]
        assert annual_citations(counts) == sum(counts)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(13)
        counts = [int(v) for v in rng.integers(0, 100, 500)]
        shuffled = [counts[i] for i in rng.permutation(len(counts))]
        assert annual_citations(counts) == annual_citations(shuffled)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            annual_citations([1, -2])
        with pytest.raises(ValidationError, match="got True"):
            annual_citations([1, True])


class TestCitationRate:
    def test_plain_ratio(self):
        assert citation_rate(1000, 200) == 5.0

    def test_zero_citations(self):
        assert citation_rate(0, 37) == 0.0

    def test_example_value_matches_rational_oracle(self):
        assert citation_rate(154983, 5410) == float(Fraction(154983, 5410))

    def test_zero_articles_rejected(self):
        with pytest.raises(ValidationError, match="undefined"):
            citation_rate(10, 0)

    def test_quotient_past_the_float_range_rejected(self):
        with pytest.raises(ValidationError, match="^citation rate exceeds the float range"):
            citation_rate(10**400, 1)
        assert citation_rate(10**400, 10**399) == 10.0

    @pytest.mark.parametrize("citations, articles, name", [(True, 2, "citations"),
                                                          (2, True, "articles")])
    def test_bool_counts_rejected(self, citations, articles, name):
        with pytest.raises(ValidationError, match=f"^{name} must be a non-negative integer, got True"):
            citation_rate(citations, articles)

    def test_matches_oracle_on_random_counts(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            n = int(rng.integers(0, 10**8))
            m = int(rng.integers(1, 10**5))
            assert citation_rate(n, m) == float(Fraction(n, m))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            n = int(rng.integers(0, 10**5))
            m = int(rng.integers(1, 10**4))
            c = int(rng.integers(1, 1000))
            assert citation_rate(n * c, m * c) == citation_rate(n, m)


def make_set(records):
    return build_ranked_set(records, Discipline.SCI, Basis.CITATIONS, 2000)


def rec(jid, citations, articles):
    return JournalYearRecord(jid, 2000, citations, 1.0, articles)


class TestDeriveRates:
    def test_drop_report_lists_exactly_zero_article_journals(self):
        ranked = make_set([rec("a", 50, 5), rec("b", 40, 0), rec("c", 30, 3), rec("d", 20, 0)])
        result = derive_rates(ranked)
        assert result.dropped == ["b", "d"]
        assert result.ids == ("a", "c")

    def test_constant_rate_series(self):
        ranked = make_set([rec(f"J{i}", 2 * (i + 1), i + 1) for i in range(10)])
        result = derive_rates(ranked)
        assert all(r == 2.0 for r in result.rates)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(16)
        records = [
            rec(f"J{i:03d}", int(rng.integers(0, 10**6)), int(rng.integers(1, 5000)))
            for i in range(200)
        ]
        ranked = make_set(records)
        result = derive_rates(ranked)
        by_id = {r.journal_id: r for r in ranked.records}
        for jid, rate in zip(result.ids, result.rates, strict=True):
            assert rate == citation_rate(by_id[jid].citations, by_id[jid].articles)

    def test_rates_in_rank_order(self):
        ranked = make_set([rec("a", 10, 1), rec("b", 30, 2), rec("c", 20, 4)])
        result = derive_rates(ranked)
        assert list(result.ids) == ranked.table.journal_id

    def test_all_dropped_rejected(self):
        ranked = make_set([rec("a", 10, 0), rec("b", 5, 0)])
        with pytest.raises(ValidationError, match="zero articles"):
            derive_rates(ranked)


@pytest.mark.parametrize(
    "call, message",
    [(lambda: citation_rate(-10**5000, 1), "^citations must"),
     (lambda: RawCounts(-10**5000, 0, 1, 0), "^cites_to_y_minus_1 must"),
     (lambda: annual_citations([-10**5000]), "^per-paper citation counts must")],
    ids=["citation_rate", "RawCounts", "annual_citations"],
)
def test_an_int_too_long_to_print_is_named_without_its_digits(call, message):
    with pytest.raises(ValidationError, match=message) as caught:
        call()
    assert str(caught.value).endswith("got an integer past the float range")
