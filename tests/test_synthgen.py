import math
import re

import numpy as np
import pytest

from citemetrics.correlate import dynamic_correlation
from citemetrics.distfit import (
    Scaling,
    empirical_pdf,
    gumbel_curve_ks,
    gumbel_fit,
    pareto_tail_fit,
    pdf_peak_location,
)
from citemetrics.errors import ValidationError
from citemetrics.indices import derive_rates
from citemetrics.rankstats import Measure, basis_measure, rank_series, set_overlap, zipf_fit
from citemetrics.synthgen import (
    PROFILES,
    FixtureProfile,
    build_fixture,
    fixture_metadata,
    sample_gumbel_log,
    sample_pareto,
)

ZIPF_BANDS = {
    FixtureProfile.SCI_SET_I: (0.65, 0.75),
    FixtureProfile.SCI_SET_II: (0.49, 0.59),
    FixtureProfile.SOCSCI_SET_I: (0.65, 0.75),
    FixtureProfile.SOCSCI_SET_II: (0.35, 0.45),
}


class TestSamplers:
    def test_pareto_deterministic_for_fixed_seed(self):
        a = sample_pareto(2.5, 1.0, 1000, seed=3)
        b = sample_pareto(2.5, 1.0, 1000, seed=3)
        assert np.array_equal(a, b)

    def test_pareto_respects_lower_bound(self):
        samples = sample_pareto(2.2, 0.7, 5000, seed=4)
        assert np.all(samples >= 0.7)

    def test_pareto_rejects_flat_exponent(self):
        with pytest.raises(ValidationError):
            sample_pareto(1.0, 1.0, 10)

    def test_pareto_loop_with_tail_fit(self):
        samples = sample_pareto(2.52, 1.0, 100_000, seed=1234)
        fit = pareto_tail_fit(samples, x_min=1.0)
        assert abs(fit.params["gamma"] - 2.52) < 0.02

    def test_gumbel_deterministic_and_positive(self):
        a = sample_gumbel_log(-0.5, 0.6, 2000, seed=5)
        b = sample_gumbel_log(-0.5, 0.6, 2000, seed=5)
        assert np.array_equal(a, b)
        assert np.all(a > 0)

    def test_gumbel_loop_with_fit(self):
        rates = sample_gumbel_log(-0.5385, 0.6677, 100_000, seed=20001000)
        params, _ = gumbel_fit(rates)
        assert abs(params.a + 0.5385) < 0.01
        assert abs(params.b - 0.6677) < 0.01

    @pytest.mark.parametrize(
        "gamma, x_min, message",
        [
            (1.0, 1.0, "Pareto exponent must exceed 1, got 1.0"),
            (math.nan, 1.0, "Pareto exponent must exceed 1, got nan"),
            (2.0, 0.0, "x_min must be positive, got 0.0"),
            (math.inf, 1.0, "Pareto exponent and x_min must be finite, got inf, 1.0"),
            (2.0, math.inf, "Pareto exponent and x_min must be finite, got 2.0, inf"),
        ],
    )
    def test_pareto_rejects_bad_parameters(self, gamma, x_min, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            sample_pareto(gamma, x_min, 10)

    @pytest.mark.parametrize(
        "a, b, log_base, message",
        [
            (0.0, 0.0, math.e, "Gumbel scale must be positive, got 0.0"),
            (0.0, math.inf, math.e, "Gumbel scale must be finite, got inf"),
            (math.nan, 1.0, math.e, "Gumbel location must be finite, got nan"),
            (0.0, 1.0, 1.0, "log base must be finite and exceed 1, got 1.0"),
            (0.0, 1.0, math.inf, "log base must be finite and exceed 1, got inf"),
        ],
    )
    def test_gumbel_rejects_bad_parameters(self, a, b, log_base, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            sample_gumbel_log(a, b, 10, log_base=log_base)

    def test_bad_counts_rejected(self):
        with pytest.raises(ValidationError):
            sample_pareto(2.0, 1.0, 0)
        with pytest.raises(ValidationError):
            sample_gumbel_log(0.0, 1.0, 0)


class TestBuildFixture:
    def test_deterministic_for_fixed_seed(self):
        a = build_fixture(FixtureProfile.SCI_SET_I, 2005, seed=20001000)
        b = build_fixture(FixtureProfile.SCI_SET_I, 2005, seed=20001000)
        assert a == b

    def test_different_seeds_differ(self):
        a = build_fixture(FixtureProfile.SCI_SET_I, 2005, seed=1)
        b = build_fixture(FixtureProfile.SCI_SET_I, 2005, seed=2)
        assert a != b

    def test_size_and_model_invariants(self):
        for profile in FixtureProfile:
            spec = PROFILES[profile]
            fixture = build_fixture(profile, spec.base_year, seed=7)
            assert len(fixture) == 1000
            assert fixture.discipline is spec.discipline
            assert fixture.basis is spec.basis

    def test_year_range_enforced(self):
        with pytest.raises(ValidationError, match="year"):
            build_fixture(FixtureProfile.SCI_SET_I, 1999)
        with pytest.raises(ValidationError, match="year"):
            build_fixture(FixtureProfile.SOCSCI_SET_I, 2013)

    @pytest.mark.parametrize("profile", list(FixtureProfile))
    def test_zipf_exponent_in_band(self, profile):
        spec = PROFILES[profile]
        lo, hi = ZIPF_BANDS[profile]
        for year in (spec.base_year + 4, spec.base_year + 5):
            fixture = build_fixture(profile, year)
            fit = zipf_fit(rank_series(fixture, basis_measure(fixture.basis)))
            assert lo < fit.params["b"] < hi

    @pytest.mark.parametrize("profile", list(FixtureProfile))
    def test_scaled_rate_peak_near_half_mean(self, profile):
        spec = PROFILES[profile]
        for year in (spec.base_year + 4, spec.base_year + 5):
            fixture = build_fixture(profile, year)
            rates = [r for _, r in derive_rates(fixture).rates]
            dist = empirical_pdf(rates, binning="log", scaling=Scaling.MEAN_SCALED)
            assert 0.4 <= pdf_peak_location(dist) <= 0.6

    @pytest.mark.parametrize(
        "profile,measure,lo,hi",
        [
            (FixtureProfile.SCI_SET_I, Measure.CITATIONS, 2.37, 2.67),
            (FixtureProfile.SCI_SET_II, Measure.IMPACT_FACTOR, 3.01, 3.31),
        ],
    )
    def test_collapsed_tail_exponents(self, profile, measure, lo, hi):
        # tail of the multi-year mean-scaled collapse, fitted over its top 30%
        spec = PROFILES[profile]
        pooled = []
        for t in range(spec.n_years):
            fixture = build_fixture(profile, spec.base_year + t)
            values = np.asarray(rank_series(fixture, measure).values)
            pooled.append(values / values.mean())
        pooled = np.concatenate(pooled)
        x_min = float(np.sort(pooled)[::-1][int(0.3 * pooled.size)])
        fit = pareto_tail_fit(pooled, x_min=x_min)
        assert lo < fit.params["gamma"] < hi

    def test_consecutive_years_share_exact_counts(self):
        for profile, expected in (
            (FixtureProfile.SCI_SET_I, 905),
            (FixtureProfile.SCI_SET_II, 825),
        ):
            a = build_fixture(profile, 2005)
            b = build_fixture(profile, 2006)
            _, count = set_overlap(a, b)
            assert count == expected

    def test_sci_rate_curve_ks_deviation(self):
        # 12-point collapsed-curve comparison for the citation-ranked profile
        fixture = build_fixture(FixtureProfile.SCI_SET_I, 2000)
        rates = np.array([r for _, r in derive_rates(fixture).rates])
        scaled = rates / rates.mean()
        params, _ = gumbel_fit(scaled)
        ks = gumbel_curve_ks(scaled, params, n_points=12)
        assert abs(ks["D"] - 0.2325) < 0.02
        assert ks["pass"]  # D < 0.295 at s = 0.20

    def test_socsci_rate_curve_ks_below_critical(self):
        fixture = build_fixture(FixtureProfile.SOCSCI_SET_I, 2007)
        rates = np.array([r for _, r in derive_rates(fixture).rates])
        scaled = rates / rates.mean()
        params, _ = gumbel_fit(scaled)
        ks = gumbel_curve_ks(scaled, params, n_points=14, significance=0.05)
        assert ks["critical"] == 0.349
        assert ks["D"] < ks["critical"]

    def test_sci_fixture_gumbel_fit_matches_reference(self):
        for profile, a, b in (
            (FixtureProfile.SCI_SET_I, -0.5385, 0.6677),
            (FixtureProfile.SCI_SET_II, -0.5711, 0.5986),
        ):
            fixture = build_fixture(profile, 2005)
            rates = np.array([r for _, r in derive_rates(fixture).rates])
            params, _ = gumbel_fit(rates / rates.mean())
            assert abs(params.a - a) < 0.05
            assert abs(params.b - b) < 0.05

    def test_citations_basis_rank_correlation_is_strong(self):
        a = build_fixture(FixtureProfile.SCI_SET_I, 2005)
        b = build_fixture(FixtureProfile.SCI_SET_I, 2006)
        rep = dynamic_correlation(a, b, Measure.RANK)
        assert rep.r_value >= 0.98

    def test_metadata_fields(self):
        meta = fixture_metadata(FixtureProfile.SCI_SET_II, 2003, seed=11)
        assert meta["profile"] == "sci_set_ii"
        assert meta["year"] == 2003
        assert meta["seed"] == 11
        assert meta["rng"] == "philox4x64"
        assert meta["targets"]["overlap_consecutive_years"] == 825

    def test_profile_accepts_string_names(self):
        fixture = build_fixture("socsci_set_i", 2009, seed=2)
        assert fixture.discipline.value == "socsci"
