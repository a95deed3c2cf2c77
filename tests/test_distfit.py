import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from citemetrics import distfit
from citemetrics.distfit import (
    EmpiricalDistribution,
    GumbelParams,
    Scaling,
    empirical_pdf,
    gumbel_cdf,
    gumbel_curve_ks,
    gumbel_fit,
    gumbel_log_pdf,
    ks_critical_value,
    ks_statistic,
    ks_statistic_samples,
    pareto_tail_fit,
    pdf_peak_location,
    zipf_pareto_predict,
)
from citemetrics.errors import FitConvergenceError, ValidationError
from citemetrics.model import FitMethod
from citemetrics.synthgen import sample_gumbel_log, sample_pareto


class TestEmpiricalPdf:
    def test_uniform_single_linear_bin_over_unit_interval(self):
        rng = np.random.default_rng(41)
        samples = rng.uniform(0, 1, 10_000)
        dist = empirical_pdf(samples, binning="linear", bins=1, bounds=(0.0, 1.0))
        assert dist.densities == (1.0,)

    def test_normalization_on_heavy_tailed_samples(self):
        rng = np.random.default_rng(42)
        samples = np.exp(rng.normal(0, 2, 20_000))
        for binning, bins in (("log", 10), ("log", 25), ("linear", 40)):
            dist = empirical_pdf(samples, binning=binning, bins=bins)
            integral = float(np.sum(np.asarray(dist.densities) * dist.widths()))
            assert abs(integral - 1.0) < 1e-9

    def test_mean_scaled_collapse_is_bin_identical(self):
        rng = np.random.default_rng(43)
        samples = np.exp(rng.normal(0, 1, 5000))
        base = empirical_pdf(samples, binning="log", scaling=Scaling.MEAN_SCALED)
        scaled = empirical_pdf(7.0 * samples, binning="log", scaling=Scaling.MEAN_SCALED)
        assert np.allclose(base.bin_edges, scaled.bin_edges, rtol=1e-12, atol=0)
        assert np.allclose(base.densities, scaled.densities, rtol=1e-9, atol=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            empirical_pdf([])

    def test_non_positive_sample_rejected_for_log_binning(self):
        with pytest.raises(ValidationError):
            empirical_pdf([1.0, 0.0, 2.0], binning="log")

    def test_constant_sample_rejected(self):
        with pytest.raises(ValidationError, match="degenerate"):
            empirical_pdf([3.0] * 10)

    @pytest.mark.parametrize("binning", ["log", "linear"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sample_rejected(self, bad, binning):
        with pytest.raises(ValidationError, match="samples must be finite"):
            empirical_pdf([1.0, 2.0, bad, 3.0], binning=binning)

    def test_unknown_binning_rejected(self):
        with pytest.raises(ValidationError, match="binning"):
            empirical_pdf([1.0, 2.0], binning="sqrt")

    def test_invariants_validated_on_construction(self):
        with pytest.raises(ValidationError, match="integrate"):
            EmpiricalDistribution((1.0, 2.0), (0.5,), 10, Scaling.RAW)
        with pytest.raises(ValidationError, match="increasing"):
            EmpiricalDistribution((2.0, 1.0), (1.0,), 10, Scaling.RAW)


class TestPeakLocation:
    def make(self, densities, edges=None, binning="linear"):
        densities = np.asarray(densities, dtype=float)
        if edges is None:
            edges = np.arange(densities.size + 1, dtype=float)
        widths = np.diff(edges)
        densities = densities / np.sum(densities * widths)
        return EmpiricalDistribution(
            tuple(edges), tuple(densities), 100, Scaling.MEAN_SCALED, binning
        )

    def test_triangular_density_peaks_at_apex(self):
        dist = self.make([1, 2, 3, 4, 3, 2, 1])
        assert pdf_peak_location(dist) == 3.5

    def test_monotone_decay_peaks_at_first_bin(self):
        dist = self.make([5, 4, 3, 2, 1])
        assert pdf_peak_location(dist) == 0.5

    def test_tie_resolves_to_smaller_center(self):
        dist = self.make([1, 3, 3, 1])
        assert pdf_peak_location(dist) == 1.5

    def test_raw_distribution_rejected(self):
        dist = empirical_pdf(np.linspace(1, 2, 100), binning="linear", bins=4)
        with pytest.raises(ValidationError, match="mean-scaled"):
            pdf_peak_location(dist)


class TestParetoTailFit:
    def test_recovers_synthetic_exponents(self):
        for gamma in (2.5, 2.0):
            samples = sample_pareto(gamma, 1.0, 100_000, seed=1234)
            fit = pareto_tail_fit(samples, x_min=1.0)
            assert abs(fit.params["gamma"] - gamma) < 0.02
            assert fit.method is FitMethod.MAXIMUM_LIKELIHOOD

    def test_stderr_formula(self):
        samples = sample_pareto(2.5, 1.0, 10_000, seed=5)
        fit = pareto_tail_fit(samples, x_min=1.0)
        m = np.sum(samples >= 1.0)
        assert fit.stderr["gamma"] == pytest.approx(
            (fit.params["gamma"] - 1) / math.sqrt(m)
        )

    def test_error_shrinks_with_sample_size(self):
        errors = []
        for count in (10**3, 10**4, 10**5):
            samples = sample_pareto(2.5, 1.0, count, seed=77)
            fit = pareto_tail_fit(samples, x_min=1.0)
            errors.append(abs(fit.params["gamma"] - 2.5))
        assert errors[2] < errors[0]
        assert errors[2] < 3 * (2.5 - 1) / math.sqrt(10**5)

    def test_auto_xmin_on_pure_power_law(self):
        samples = sample_pareto(2.5, 1.0, 20_000, seed=9)
        fit = pareto_tail_fit(samples)
        assert abs(fit.params["gamma"] - 2.5) < 0.08

    def test_too_few_tail_samples_rejected(self):
        samples = sample_pareto(2.5, 1.0, 200, seed=10)
        with pytest.raises(ValidationError, match="tail samples"):
            pareto_tail_fit(samples, x_min=float(np.sort(samples)[-20]))

    def test_non_positive_samples_rejected(self):
        with pytest.raises(ValidationError):
            pareto_tail_fit([1.0, -2.0, 3.0], x_min=0.5)

    @pytest.mark.parametrize("x_min", [None, 1.0])
    @pytest.mark.parametrize(
        "samples, message",
        [([], "no samples given"), ([1.0, 2.0, math.inf], "finite"), ([1.0, math.nan, 2.0], "finite")],
        ids=["empty", "inf", "nan"],
    )
    def test_empty_or_non_finite_samples_rejected(self, samples, message, x_min):
        with pytest.raises(ValidationError, match=message):
            pareto_tail_fit(samples, x_min=x_min)

    @pytest.mark.parametrize("x_min", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_or_non_positive_x_min_rejected(self, x_min):
        samples = sample_pareto(2.5, 1.0, 200, seed=10)
        with pytest.raises(ValidationError, match="x_min must be positive and finite"):
            pareto_tail_fit(samples, x_min=x_min)


class TestZipfParetoPredict:
    def test_unit_exponent(self):
        assert zipf_pareto_predict(1.0) == 2.0

    def test_reference_exponents(self):
        assert zipf_pareto_predict(0.70) == 1.0 + 1.0 / 0.70
        assert zipf_pareto_predict(0.54) == 1.0 + 1.0 / 0.54
        assert round(zipf_pareto_predict(0.70), 2) == 2.43
        assert round(zipf_pareto_predict(0.54), 2) == 2.85

    def test_strictly_decreasing(self):
        bs = np.linspace(0.1, 3.0, 50)
        preds = [zipf_pareto_predict(float(b)) for b in bs]
        assert all(a > b for a, b in zip(preds, preds[1:]))

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            zipf_pareto_predict(0.0)


class TestGumbelPdf:
    def test_mode_value_standard_params(self):
        assert gumbel_log_pdf(0.0, GumbelParams(0.0, 1.0)) == pytest.approx(0.36788, abs=5e-6)

    def test_mode_at_location_value(self):
        p = GumbelParams(-0.5385, 0.6677)
        assert gumbel_log_pdf(p.a, p) == pytest.approx(math.exp(-1) / p.b)

    def test_integrates_to_one(self):
        for a, b in ((0.0, 1.0), (-0.5385, 0.6677), (3.0, 0.2)):
            integral, _ = quad(
                lambda x: gumbel_log_pdf(x, GumbelParams(a, b)), -np.inf, np.inf
            )
            assert abs(integral - 1.0) < 1e-8

    def test_location_scale_identity(self):
        for a, b in ((-1.5, 0.4), (2.0, 3.0)):
            lhs = gumbel_log_pdf(a + b, GumbelParams(a, b))
            rhs = gumbel_log_pdf(1.0, GumbelParams(0.0, 1.0)) / b
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_nonnegative_with_unique_max_at_location(self):
        p = GumbelParams(0.3, 0.8)
        xs = np.linspace(-6, 8, 10_001)
        values = gumbel_log_pdf(xs, p)
        assert np.all(values >= 0)
        peak = gumbel_log_pdf(p.a, p)
        assert np.all(values[np.abs(xs - p.a) > 1e-9] < peak)

    def test_peak_is_exact_bound_near_location(self):
        # A few ulp from a, z + exp(-z) can round below 1; the density must
        # still never exceed its value at a, on any grid.
        rng = np.random.default_rng(20001000)
        for _ in range(300):
            p = GumbelParams(rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0))
            peak = gumbel_log_pdf(p.a, p)
            assert peak == math.exp(-1.0) / p.b
            ulps = p.a + np.arange(-16, 17) * np.spacing(p.a)
            grid = np.linspace(p.a - 6 * p.b, p.a + 10 * p.b, rng.integers(1_001, 30_001))
            xs = np.concatenate([ulps, grid])
            assert np.all(gumbel_log_pdf(xs, p) <= peak)

    def test_agrees_with_textbook_form(self):
        rng = np.random.default_rng(20001001)
        for _ in range(50):
            p = GumbelParams(rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0))
            xs = np.linspace(p.a - 60 * p.b, p.a + 60 * p.b, 20_001)
            z = (xs - p.a) / p.b
            with np.errstate(over="ignore"):
                unscaled = np.exp(-(z + np.exp(-z)))
            kept = unscaled >= np.finfo(float).tiny
            values = gumbel_log_pdf(xs, p)
            np.testing.assert_allclose(values[kept], unscaled[kept] / p.b, rtol=1e-12, atol=0)

    def test_limits_at_infinity_are_zero(self):
        p = GumbelParams(-0.5, 0.7)
        with np.errstate(all="raise"):
            assert gumbel_log_pdf(-np.inf, p) == 0.0
            assert gumbel_log_pdf(np.inf, p) == 0.0
            np.testing.assert_array_equal(gumbel_log_pdf(np.array([-np.inf, np.inf]), p), 0.0)
        assert math.isnan(gumbel_log_pdf(np.nan, p))

    def test_cdf_monotone(self):
        p = GumbelParams(0.0, 1.0)
        xs = np.linspace(-5, 8, 500)
        cdf = gumbel_cdf(xs, p)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[0] >= 0 and cdf[-1] <= 1

    def test_scale_must_be_positive(self):
        with pytest.raises(ValidationError):
            GumbelParams(0.0, 0.0)


class TestGumbelFit:
    def test_recovers_reference_parameters(self):
        for a, b in ((-0.5385, 0.6677), (-0.5711, 0.5986)):
            rates = sample_gumbel_log(a, b, 100_000, seed=20001000)
            params, fit = gumbel_fit(rates)
            assert abs(params.a - a) < 0.01
            assert abs(params.b - b) < 0.01
            assert fit.method is FitMethod.MAXIMUM_LIKELIHOOD
            assert fit.stderr["a"] > 0 and fit.stderr["b"] > 0

    def test_least_squares_method_agrees_roughly(self):
        rates = sample_gumbel_log(-0.5, 0.7, 50_000, seed=8)
        params, fit = gumbel_fit(rates, method=FitMethod.LOG_LOG_LEAST_SQUARES, lsq_bins=40)
        assert abs(params.a - (-0.5)) < 0.05
        assert abs(params.b - 0.7) < 0.05
        assert fit.method is FitMethod.LOG_LOG_LEAST_SQUARES

    def test_base_ten_convention_supported(self):
        rates = sample_gumbel_log(-0.5385, 0.6677, 50_000, seed=4, log_base=10.0)
        params, fit = gumbel_fit(rates, log_base=10.0)
        assert abs(params.a - (-0.5385)) < 0.015
        assert abs(params.b - 0.6677) < 0.015
        assert fit.params["log_base"] == 10.0

    def test_degenerate_sample_rejected(self):
        with pytest.raises(ValidationError, match="degenerate"):
            gumbel_fit([2.0] * 100)

    def test_small_sample_rejected(self):
        with pytest.raises(ValidationError, match="at least 30"):
            gumbel_fit([1.0, 2.0, 3.0])

    def test_non_positive_rates_rejected(self):
        with pytest.raises(ValidationError):
            gumbel_fit([1.0] * 40 + [-1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rates_rejected(self, bad):
        with pytest.raises(ValidationError):
            gumbel_fit([1.0, 2.0] * 20 + [bad])

    def test_scale_non_convergence_is_fit_error(self, monkeypatch):
        monkeypatch.setattr(distfit, "GUMBEL_MAX_ITER", 1)
        with pytest.raises(FitConvergenceError, match="did not converge"):
            gumbel_fit(sample_gumbel_log(-0.5, 0.7, 1_000, seed=5))


def _gumbel_scale_problem(x):
    """The MLE scale equation of ``_gumbel_mle`` and a bracket of its root."""
    x_bar = float(x.mean())
    xs = x - float(x.min())

    def imbalance(b):
        w = np.exp(-xs / b)
        return b - x_bar + float((x * w).sum() / w.sum())

    lo = hi = float(x.std()) * math.sqrt(6.0) / math.pi
    while imbalance(lo) >= 0:
        lo /= 2.0
    while imbalance(hi) <= 0:
        hi *= 2.0
    return imbalance, lo, hi


class TestBrentq:
    @pytest.mark.parametrize("xtol", [1e-10, 2e-12, 1e-6])
    def test_identical_to_scipy(self, xtol):
        rng = np.random.default_rng(20001000 + int(-math.log10(xtol)))
        for i in range(300):
            m = int(rng.integers(30, 2_000))
            if i % 3 == 0:
                x = rng.gumbel(rng.normal(), rng.uniform(0.05, 3.0), m)
            elif i % 3 == 1:
                x = rng.normal(rng.normal(), rng.uniform(0.05, 3.0), m)
            else:
                x = np.round(rng.gumbel(0.0, 1.0, m), 1)
            f, lo, hi = _gumbel_scale_problem(x)
            calls = {"scipy": 0, "port": 0}

            def counted(who):
                def g(b):
                    calls[who] += 1
                    return f(b)
                return g

            expected = brentq(counted("scipy"), lo, hi, xtol=xtol, maxiter=200)
            assert distfit._brentq(counted("port"), lo, hi, xtol=xtol, maxiter=200) == expected
            assert calls["port"] == calls["scipy"]

    def test_identical_on_steep_and_flat_roots(self):
        # Smooth monotone equations like the Gumbel one almost always take
        # the interpolation step; steep, flat and kinked roots exercise the
        # extrapolation, the short-step test and the bisection fallback.
        rng = np.random.default_rng(20001003)
        for i in range(400):
            r = float(rng.uniform(-2.0, 2.0))
            s = float(10 ** rng.uniform(-1.0, 2.0))
            k = int(rng.choice([1, 3, 5, 7]))
            f = (
                lambda x, r=r, k=k: (x - r) ** k,
                lambda x, r=r, s=s: math.atan(s * (x - r)),
                lambda x, r=r, s=s: math.expm1(min(s * (x - r), 700.0)),
                lambda x, r=r, s=s: math.tanh(s * (x - r)) + 0.01 * (x - r),
            )[i % 4]
            a, b = r - float(rng.uniform(0.01, 5.0)), r + float(rng.uniform(0.01, 5.0))
            if i % 2:
                a, b = b, a
            xtol = float(10 ** rng.uniform(-14.0, -3.0))
            try:
                expected = brentq(f, a, b, xtol=xtol, maxiter=100)
            except RuntimeError:
                with pytest.raises(FitConvergenceError):
                    distfit._brentq(f, a, b, xtol=xtol, maxiter=100)
                continue
            assert distfit._brentq(f, a, b, xtol=xtol, maxiter=100) == expected

    def test_exhausted_iterations_raise_fit_error(self):
        with pytest.raises(RuntimeError):
            brentq(lambda x: (x - 1.0) ** 5, 0.0, 3.0, xtol=5e-324, maxiter=5)
        with pytest.raises(FitConvergenceError, match="after 5 iterations"):
            distfit._brentq(lambda x: (x - 1.0) ** 5, 0.0, 3.0, xtol=5e-324, maxiter=5)

    def test_unbracketed_root_is_fit_error(self):
        with pytest.raises(FitConvergenceError, match="not bracketed"):
            distfit._brentq(lambda x: x * x + 1.0, -1.0, 2.0, xtol=1e-12, maxiter=100)


class TestGumbelMleEvaluations:
    def test_scale_equation_evaluated_once_per_point(self, monkeypatch):
        points = []
        original = distfit._gumbel_scale_equation

        def recording(x, xs):
            g = original(x, xs)

            def wrapped(b):
                points.append(b)
                return g(b)

            return wrapped

        monkeypatch.setattr(distfit, "_gumbel_scale_equation", recording)
        rng = np.random.default_rng(20001000)
        for i in range(60):
            m = int(rng.integers(30, 3_000))
            if i % 2:
                x = rng.gumbel(rng.normal(), rng.uniform(0.05, 3.0), m)
            else:
                x = np.round(rng.normal(0.0, rng.uniform(0.05, 3.0), m), 2)
            points.clear()
            a, b = distfit._gumbel_mle(x)
            assert len(points) == len(set(points))

            # The reference: bracket as before, then scipy's brentq, which
            # evaluates both bracket ends once more.
            f, lo, hi = _gumbel_scale_problem(x)
            b_ref, info = brentq(
                f, lo, hi, xtol=distfit.GUMBEL_TOL, maxiter=distfit.GUMBEL_MAX_ITER,
                full_output=True,
            )
            assert b == b_ref
            xs = x - float(x.min())
            assert a == float(x.min()) - b_ref * math.log(float(np.exp(-xs / b_ref).mean()))
            b0 = float(x.std()) * math.sqrt(6.0) / math.pi
            bracket = round(math.log2(b0 / lo)) + round(math.log2(hi / b0)) + 1
            assert len(points) == bracket + info.function_calls - 2


class TestKsStatistic:
    def test_identical_sequences_give_zero(self):
        xs = np.linspace(0, 1, 30)
        pts = [(float(x), float(x)) for x in xs]
        assert ks_statistic(pts, pts) == 0.0

    def test_step_against_uniform_enumeration(self):
        xs = list(range(1, 11))
        emp = [(float(x), 0.0 if x < 10 else 1.0) for x in xs]
        model = [(float(x), x / 10.0) for x in xs]
        assert ks_statistic(emp, model) == pytest.approx(0.9)

    def test_matches_exhaustive_enumeration_on_random_pairs(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            xs = np.sort(rng.uniform(0, 10, 20))
            f1 = np.sort(rng.uniform(0, 1, 20))
            f2 = np.sort(rng.uniform(0, 1, 20))
            pts1 = list(zip(xs, f1))
            pts2 = list(zip(xs, f2))
            expected = max(abs(a - b) for a, b in zip(f1, f2))
            assert abs(ks_statistic(pts1, pts2) - expected) < 1e-15

    def test_misaligned_grids_rejected(self):
        a = [(0.0, 0.1), (1.0, 0.5)]
        b = [(0.0, 0.1), (2.0, 0.5)]
        with pytest.raises(ValidationError, match="misaligned"):
            ks_statistic(a, b)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="misaligned"):
            ks_statistic([(0.0, 0.1)], [(0.0, 0.1), (1.0, 0.5)])

    def test_decreasing_cdf_rejected(self):
        a = [(0.0, 0.5), (1.0, 0.4)]
        b = [(0.0, 0.5), (1.0, 0.6)]
        with pytest.raises(ValidationError, match="non-decreasing"):
            ks_statistic(a, b)

    def test_out_of_range_cdf_rejected(self):
        a = [(0.0, 0.5), (1.0, 1.2)]
        b = [(0.0, 0.5), (1.0, 0.9)]
        with pytest.raises(ValidationError, match="lie in"):
            ks_statistic(a, b)

    def test_sample_mode_against_known_cdf(self):
        rng = np.random.default_rng(52)
        samples = rng.uniform(0, 1, 5000)
        d = ks_statistic_samples(samples, lambda x: np.clip(x, 0, 1))
        assert 0 < d < 0.03


class TestKsCriticalValue:
    def test_reference_small_sample_values(self):
        assert ks_critical_value(12, 0.20) == 0.295
        assert ks_critical_value(14, 0.20) == 0.274
        assert ks_critical_value(14, 0.05) == 0.349

    def test_asymptotic_form(self):
        assert ks_critical_value(10_000, 0.05) == pytest.approx(0.0136)
        assert ks_critical_value(100, 0.20) == pytest.approx(1.07 / 10.0)

    def test_unsupported_significance_lists_levels(self):
        with pytest.raises(ValidationError, match="0.20"):
            ks_critical_value(12, 0.42)

    def test_interpolated_rows_are_monotone(self):
        for s in (0.20, 0.05, 0.01):
            values = [ks_critical_value(n, s) for n in range(1, 36)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_invalid_sample_size(self):
        with pytest.raises(ValidationError):
            ks_critical_value(0, 0.05)


class TestGumbelCurveKs:
    def test_well_fitting_sample_passes(self):
        rates = sample_gumbel_log(-0.5, 0.65, 2000, seed=6)
        params, _ = gumbel_fit(rates)
        result = gumbel_curve_ks(rates, params, 12)
        assert result["pass"]
        assert result["critical"] == 0.295
        assert 0 <= result["D"] <= 1

    def test_wrong_model_fails(self):
        rates = sample_gumbel_log(-0.5, 0.65, 2000, seed=6)
        result = gumbel_curve_ks(rates, GumbelParams(2.5, 0.1), 12)
        assert not result["pass"]
        assert result["D"] > 0.5

    @pytest.mark.parametrize(
        "rates, message",
        [([], "no rates given"), ([0.5, 1.0, math.inf], "finite"), ([0.5, math.nan, 2.0], "finite")],
        ids=["empty", "inf", "nan"],
    )
    def test_empty_or_non_finite_rates_rejected(self, rates, message):
        with pytest.raises(ValidationError, match=message):
            gumbel_curve_ks(rates, GumbelParams(-0.5, 0.65), 12)

    @pytest.mark.parametrize("log_base", [1.0, 0.5, 0.0, -2.0, math.inf, math.nan])
    def test_bad_log_base_rejected(self, log_base):
        rates = sample_gumbel_log(-0.5, 0.65, 200, seed=6)
        with pytest.raises(ValidationError, match="log base"):
            gumbel_curve_ks(rates, GumbelParams(-0.5, 0.65), 12, log_base=log_base)
        with pytest.raises(ValidationError, match="log base"):
            gumbel_fit(rates, log_base=log_base)
