import math

import numpy as np
import pytest

from citemetrics.correlate import (
    CorrelationReport,
    Transform,
    binned_trend,
    correlation_matrix,
    cross_measure_correlation,
    dynamic_correlation,
    pearson,
)
from citemetrics.errors import ValidationError
from citemetrics.model import Basis, Discipline, JournalYearRecord, Measure, build_ranked_set


def naive_r(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    xb, yb = xs.mean(), ys.mean()
    num = np.sum((xs - xb) * (ys - yb))
    den = math.sqrt(np.sum((xs - xb) ** 2) * np.sum((ys - yb) ** 2))
    return num / den


def make_set(values, basis=Basis.CITATIONS, year=2000, articles=None, impacts=None):
    records = []
    for i, v in enumerate(values):
        records.append(
            JournalYearRecord(
                f"J{i:04d}",
                year,
                int(v),
                float(impacts[i]) if impacts is not None else float(v) / 7.0,
                int(articles[i]) if articles is not None else 10,
            )
        )
    return build_ranked_set(records, Discipline.SCI, basis, year)


class TestPearson:
    def test_perfect_correlation(self):
        xs = np.random.default_rng(61).uniform(1, 10, 100)
        rep = pearson(xs, xs)
        assert rep.r_value == pytest.approx(1.0, abs=1e-12)

    def test_power_law_dependence_is_log_linear(self):
        xs = np.random.default_rng(62).uniform(0.5, 50, 200)
        rep = pearson(xs, xs**2, transform=Transform.LOG_LOG)
        assert rep.r_value == pytest.approx(1.0, abs=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(63)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            xs = rng.uniform(0.1, 100, n)
            ys = rng.uniform(0.1, 100, n)
            rep = pearson(xs, ys)
            assert rep.r_value == pytest.approx(naive_r(xs, ys), abs=1e-12)
            rep_log = pearson(xs, ys, transform=Transform.LOG_LOG)
            assert rep_log.r_value == pytest.approx(
                naive_r(np.log(xs), np.log(ys)), abs=1e-12
            )

    def test_log_transform_drops_and_counts_non_positive_pairs(self):
        xs = [1.0, 2.0, 0.0, 3.0]
        ys = [1.0, 4.0, 2.0, -9.0]
        rep = pearson(xs, ys, transform=Transform.LOG_LOG)
        assert rep.dropped_pairs == 2
        assert rep.n_pairs == 2

    def test_zero_variance_rejected(self):
        with pytest.raises(ValidationError, match="degenerate"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            pearson([1.0, 2.0], [1.0])

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ValidationError, match="at least 2"):
            pearson([1.0], [2.0])

    def test_log_invariance_under_power_rescaling(self):
        rng = np.random.default_rng(64)
        xs = rng.uniform(0.5, 20, 150)
        ys = rng.uniform(0.5, 20, 150)
        base = pearson(xs, ys, transform=Transform.LOG_LOG).r_value
        rescaled = pearson(3.7 * xs**1.9, ys, transform=Transform.LOG_LOG).r_value
        assert rescaled == pytest.approx(base, abs=1e-12)

    def test_report_validates_bounds(self):
        with pytest.raises(ValidationError):
            CorrelationReport(1.5, 10, Transform.IDENTITY, ("a", "b"))
        with pytest.raises(ValidationError):
            CorrelationReport(0.5, 1, Transform.IDENTITY, ("a", "b"))


class TestDynamicCorrelation:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(65)
        ranked = make_set(rng.integers(100, 10**6, 300))
        for field in Measure:
            rep = dynamic_correlation(ranked, ranked, field)
            assert rep.r_value == pytest.approx(1.0, abs=1e-12)

    def test_requires_matching_basis(self):
        a = make_set(range(100, 50, -1), basis=Basis.CITATIONS)
        b = make_set(range(100, 50, -1), basis=Basis.IMPACT_FACTOR)
        with pytest.raises(ValidationError, match="matching"):
            dynamic_correlation(a, b, Measure.RANK)

    def test_rank_field_uses_rank_transform(self):
        ranked = make_set(range(500, 400, -1))
        rep = dynamic_correlation(ranked, ranked, Measure.RANK)
        assert rep.transform is Transform.RANK_RANK

    def test_value_fields_use_log_transform(self):
        ranked = make_set(range(500, 400, -1))
        rep = dynamic_correlation(ranked, ranked, Measure.CITATIONS)
        assert rep.transform is Transform.LOG_LOG


class TestCrossMeasure:
    def test_same_measure_gives_one(self):
        rng = np.random.default_rng(66)
        ranked = make_set(rng.integers(100, 10**6, 200))
        rep = cross_measure_correlation(
            ranked, Measure.CITATIONS, Measure.CITATIONS
        )
        assert rep.r_value == pytest.approx(1.0, abs=1e-12)

    def test_rank_not_a_measure_here(self):
        ranked = make_set(range(100, 50, -1))
        with pytest.raises(ValidationError):
            cross_measure_correlation(ranked, Measure.RANK, Measure.RATE)


class TestBinnedTrend:
    def test_single_bin_gives_global_mean(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [10.0, 20.0, 30.0, 40.0]
        rows = binned_trend(xs, ys, bin_edges=[1.0, 4.0])
        assert len(rows) == 1
        assert rows[0][1] == pytest.approx(25.0)

    def test_constant_y_has_zero_stderr(self):
        rng = np.random.default_rng(67)
        xs = rng.uniform(0, 10, 200)
        rows = binned_trend(xs, np.full(200, 3.3), n_bins=5)
        assert all(stderr == 0.0 for _, _, stderr in rows)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(68)
        xs = rng.uniform(0, 100, 1000)
        ys = rng.uniform(0, 50, 1000)
        edges = np.array([0.0, 25.0, 50.0, 100.0])
        rows = binned_trend(xs, ys, bin_edges=edges)
        for i, (center, mean, stderr) in enumerate(rows):
            last = i == len(edges) - 2
            mask = (xs >= edges[i]) & ((xs <= edges[i + 1]) if last else (xs < edges[i + 1]))
            sel = ys[mask]
            assert center == pytest.approx((edges[i] + edges[i + 1]) / 2)
            assert mean == pytest.approx(sel.mean(), abs=1e-12)
            assert stderr == pytest.approx(sel.std(ddof=1) / math.sqrt(sel.size), abs=1e-12)

    def test_empty_bins_omitted(self):
        rows = binned_trend([1.0, 9.0], [5.0, 6.0], bin_edges=[0, 2, 4, 6, 8, 10])
        assert len(rows) == 2

    @pytest.mark.parametrize("edges", [None, [0.0, 5.0, 10.0]])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, bad, edges):
        with pytest.raises(ValidationError, match="xs must be finite"):
            binned_trend([1.0, bad, 9.0], [5.0, 6.0, 7.0], bin_edges=edges)
        with pytest.raises(ValidationError, match="ys must be finite"):
            binned_trend([1.0, 2.0, 9.0], [5.0, bad, 7.0], bin_edges=edges)

    def test_nan_edges_rejected(self):
        with pytest.raises(ValidationError, match="increasing"):
            binned_trend([1.0, 9.0], [5.0, 6.0], bin_edges=[0.0, math.nan, 10.0])


class TestCorrelationMatrix:
    def make_years(self, years, seed=69):
        rng = np.random.default_rng(seed)
        sets = []
        for year in years:
            values = rng.integers(10**3, 10**6, 150)
            sets.append(make_set(values, year=year))
        return sets

    def test_two_years_reduce_to_dynamic_correlation(self):
        sets = self.make_years([2000, 2001])
        years, cells = correlation_matrix(sets, Measure.CITATIONS)
        direct = dynamic_correlation(sets[0], sets[1], Measure.CITATIONS)
        assert years == (2000, 2001)
        assert cells[(2000, 2001)].r_value == pytest.approx(direct.r_value, abs=1e-15)

    def test_diagonal_is_unit(self):
        sets = self.make_years([2000, 2001, 2002])
        _, cells = correlation_matrix(sets, Measure.RANK)
        for year in (2000, 2001, 2002):
            assert cells[(year, year)].r_value == 1.0

    def test_symmetry(self):
        sets = self.make_years([2000, 2001, 2002])
        years, cells = correlation_matrix(sets, Measure.CITATIONS)
        for yi in years:
            for yj in years:
                a, b = cells[(yi, yj)], cells[(yj, yi)]
                assert a.r_value == pytest.approx(b.r_value, abs=1e-12)

    def test_failed_cell_records_error(self):
        a = make_set(range(100, 90, -1), year=2000)
        records = [JournalYearRecord(f"K{i}", 2001, 10 + i, 1.0, 5) for i in range(10)]
        b = build_ranked_set(records, Discipline.SCI, Basis.CITATIONS, 2001)
        _, cells = correlation_matrix([a, b], Measure.RANK)
        assert isinstance(cells[(2000, 2001)], str)

    def test_needs_two_years(self):
        with pytest.raises(ValidationError):
            correlation_matrix(self.make_years([2000]), Measure.RANK)

    def test_duplicate_years_rejected(self):
        sets = self.make_years([2000, 2000])
        with pytest.raises(ValidationError, match="duplicate"):
            correlation_matrix(sets, Measure.RANK)
