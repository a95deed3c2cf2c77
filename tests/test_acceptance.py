"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from citemetrics.cli import run as cli_run
from citemetrics.correlate import cross_measure_correlation, dynamic_correlation, pearson
from citemetrics.distfit import (
    Scaling,
    empirical_pdf,
    gumbel_fit,
    gumbel_log_pdf,
    ks_critical_value,
    ks_statistic,
    pareto_tail_fit,
    pdf_peak_location,
    zipf_pareto_predict,
)
from citemetrics.indices import annual_citations, citation_rate, impact_factor, RawCounts
from citemetrics.model import Basis, Discipline
from citemetrics.rankstats import (
    Measure,
    RankSeries,
    SeriesLabel,
    basis_measure,
    rank_series,
    scale_by_mean,
    zipf_fit,
)
from citemetrics.synthgen import (
    PROFILES,
    FixtureProfile,
    build_fixture,
    sample_gumbel_log,
    sample_pareto,
)
from citemetrics.indices import derive_rates


def report_line(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


RATE_LABEL = SeriesLabel(Discipline.SCI, Basis.CITATIONS, 2000, Measure.RATE)


def test_criterion_1_index_identities():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()

    for _ in range(10_000):
        c1, c2 = (int(v) for v in rng.integers(0, 10**9, 2))
        a1, a2 = (int(v) for v in rng.integers(0, 10**5, 2))
        if a1 + a2 == 0:
            a1 = 1
        assert impact_factor(RawCounts(c1, c2, a1, a2)) == float(Fraction(c1 + c2, a1 + a2))

    for _ in range(10_000):
        n = int(rng.integers(0, 10**9))
        m = int(rng.integers(1, 10**6))
        assert citation_rate(n, m) == float(Fraction(n, m))

    counts = [int(v) for v in rng.integers(0, 10**9, 10_000)]
    assert annual_citations(counts) == sum(counts)

    elapsed = time.perf_counter() - start
    report_line(
        1, elapsed < 5.0,
        f"3x10^4 index evaluations match arbitrary-precision oracles exactly "
        f"({elapsed:.2f}s < 5s)",
    )


def test_criterion_2_zipf_recovery():
    start = time.perf_counter()

    worst_exact = 0.0
    for b in (0.40, 0.54, 0.70):
        ks = np.arange(1, 1001)
        values = 250.0 * ks.astype(float) ** -b
        series = RankSeries(tuple(ks.tolist()), tuple(values.tolist()), RATE_LABEL)
        fit = zipf_fit(series, k_min=10)
        worst_exact = max(worst_exact, abs(fit.params["b"] - b))
    assert worst_exact < 1e-6

    bands = {
        FixtureProfile.SCI_SET_I: (0.70, 0.05),
        FixtureProfile.SCI_SET_II: (0.54, 0.05),
        FixtureProfile.SOCSCI_SET_I: (0.70, 0.05),
        FixtureProfile.SOCSCI_SET_II: (0.40, 0.05),
    }
    fitted = {}
    for profile, (target, tol) in bands.items():
        spec = PROFILES[profile]
        fixture = build_fixture(profile, spec.base_year + 5)
        fit = zipf_fit(rank_series(fixture, basis_measure(fixture.basis)))
        fitted[profile.value] = fit.params["b"]
        assert abs(fit.params["b"] - target) < tol, (profile, fit.params["b"])

    elapsed = time.perf_counter() - start
    report_line(
        2, elapsed < 10.0,
        "exact series recovered to {:.1e}; fixtures b = {} ({:.2f}s < 10s)".format(
            worst_exact,
            ", ".join(f"{k}:{v:.3f}" for k, v in fitted.items()),
            elapsed,
        ),
    )


def test_criterion_3_pareto_tail():
    errors = {}
    for gamma in (2.0, 2.52, 3.16):
        samples = sample_pareto(gamma, 1.0, 100_000, seed=1234)
        fit = pareto_tail_fit(samples, x_min=1.0)
        errors[gamma] = abs(fit.params["gamma"] - gamma)
        assert errors[gamma] < 0.02, (gamma, fit.params["gamma"])

    assert zipf_pareto_predict(0.70) == 1.0 + 1.0 / 0.70
    assert zipf_pareto_predict(0.54) == 1.0 + 1.0 / 0.54
    assert f"{zipf_pareto_predict(0.70):.4f}" == "2.4286"
    assert f"{zipf_pareto_predict(0.54):.4f}" == "2.8519"

    report_line(
        3, True,
        "MLE errors " + ", ".join(f"gamma={g}: {e:.4f}" for g, e in errors.items())
        + "; 1+1/b arithmetic exact (2.4286, 2.8519)",
    )


def test_criterion_4_log_gumbel():
    recovered = {}
    for a, b in ((-0.5385, 0.6677), (-0.5711, 0.5986)):
        rates = sample_gumbel_log(a, b, 100_000, seed=20001000)
        params, _ = gumbel_fit(rates)
        assert abs(params.a - a) < 0.01, (a, params.a)
        assert abs(params.b - b) < 0.01, (b, params.b)
        recovered[(a, b)] = (params.a, params.b)

        integral, _ = quad(lambda x: gumbel_log_pdf(x, params), -np.inf, np.inf)
        assert abs(integral - 1.0) < 1e-8

        xs = np.linspace(params.a - 6 * params.b, params.a + 10 * params.b, 20_001)
        values = gumbel_log_pdf(xs, params)
        peak = gumbel_log_pdf(params.a, params)
        assert np.all(values <= peak)
        away = np.abs(xs - params.a) > 1e-9
        assert np.all(values[away] < peak)

    report_line(
        4, True,
        "both (a, b) pairs recovered within 0.01; pdf normalizes to 1e-8; "
        "mode sits exactly at the fitted location",
    )


def test_criterion_5_cr_universality():
    peaks = {}
    for profile in FixtureProfile:
        spec = PROFILES[profile]
        for year in (spec.base_year + 4, spec.base_year + 5):
            fixture = build_fixture(profile, year)
            rates = derive_rates(fixture).rates
            dist = empirical_pdf(rates, binning="log", scaling=Scaling.MEAN_SCALED)
            peak = pdf_peak_location(dist)
            peaks[f"{profile.value}:{year}"] = peak
            assert 0.4 <= peak <= 0.6, (profile, year, peak)

    report_line(
        5, True,
        "mean-scaled rate peak in [0.4, 0.6] for every profile: "
        + ", ".join(f"{k}={v:.2f}" for k, v in peaks.items()),
    )


def test_criterion_6_ks_machinery():
    assert ks_critical_value(12, 0.20) == 0.295
    assert ks_critical_value(14, 0.20) == 0.274
    assert ks_critical_value(14, 0.05) == 0.349
    assert ks_critical_value(10_000, 0.05) == pytest.approx(1.36 / 100.0)

    xs = np.linspace(0, 1, 25)
    pts = [(float(x), float(x)) for x in xs]
    assert ks_statistic(pts, pts) == 0.0

    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(100):
        grid = np.sort(rng.uniform(0, 5, 20))
        f1 = np.sort(rng.uniform(0, 1, 20))
        f2 = np.sort(rng.uniform(0, 1, 20))
        expected = max(abs(a - b) for a, b in zip(f1, f2))
        got = ks_statistic(list(zip(grid, f1)), list(zip(grid, f2)))
        worst = max(worst, abs(got - expected))
    assert worst < 1e-15

    report_line(
        6, True,
        f"critical table exact (0.295/0.274/0.349), D=0 on identical CDFs, "
        f"enumeration match to {worst:.1e}",
    )


def test_criterion_7_correlation_suite():
    rng = np.random.default_rng(1007)

    def naive(xs, ys):
        xb, yb = xs.mean(), ys.mean()
        return float(
            np.sum((xs - xb) * (ys - yb))
            / math.sqrt(np.sum((xs - xb) ** 2) * np.sum((ys - yb) ** 2))
        )

    total_pairs = 0
    while total_pairs < 1000:
        n = int(rng.integers(2, 40))
        xs = rng.uniform(0.1, 1000, n)
        ys = rng.uniform(0.1, 1000, n)
        rep = pearson(xs, ys)
        assert abs(rep.r_value - naive(xs, ys)) < 1e-12
        total_pairs += n

    results = {}
    pair_targets = (
        (FixtureProfile.SCI_SET_I, Measure.CITATIONS, 0.996, 0.986, 0.01),
        (FixtureProfile.SCI_SET_II, Measure.IMPACT_FACTOR, 0.944, 0.923, 0.02),
    )
    for profile, value_field, rank_target, value_target, tol in pair_targets:
        a = build_fixture(profile, 2005)
        b = build_fixture(profile, 2006)
        rank_r = dynamic_correlation(a, b, Measure.RANK).r_value
        value_r = dynamic_correlation(a, b, value_field).r_value
        assert abs(rank_r - rank_target) < tol, (profile, rank_r)
        assert abs(value_r - value_target) < tol, (profile, value_r)
        results[profile.value] = (rank_r, value_r)

    cross_targets = (
        (FixtureProfile.SCI_SET_I, Measure.IMPACT_FACTOR, 0.7187),
        (FixtureProfile.SCI_SET_II, Measure.CITATIONS, 0.4526),
    )
    for profile, other, target in cross_targets:
        fixture = build_fixture(profile, 2005)
        rep = cross_measure_correlation(fixture, other, Measure.RATE)
        assert abs(rep.r_value - target) < 0.05, (profile, rep.r_value)
        results[f"{profile.value}:cross"] = rep.r_value

    report_line(
        7, True,
        "Eq.4 oracle to 1e-12 over 10^3 pairs; "
        f"SCI I (rank, value) = ({results['sci_set_i'][0]:.4f}, {results['sci_set_i'][1]:.4f}); "
        f"SCI II = ({results['sci_set_ii'][0]:.4f}, {results['sci_set_ii'][1]:.4f}); "
        f"cross = ({results['sci_set_i:cross']:.4f}, {results['sci_set_ii:cross']:.4f})",
    )


def test_criterion_8_collapse_invariance():
    rng = np.random.default_rng(1008)
    worst_series = 0.0
    worst_pdf = 0.0
    for _ in range(100):
        n = int(rng.integers(30, 400))
        values = np.exp(rng.normal(0, 1.2, n)) + 1e-6
        c = float(rng.uniform(1e-4, 1e4))

        base = scale_by_mean(RankSeries(tuple(range(1, n + 1)), tuple(values.tolist()), RATE_LABEL))
        scaled = scale_by_mean(
            RankSeries(tuple(range(1, n + 1)), tuple((c * values).tolist()), RATE_LABEL)
        )
        worst_series = max(
            worst_series,
            float(np.max(np.abs(np.asarray(base.values) - np.asarray(scaled.values)))),
        )

        dist_a = empirical_pdf(values, binning="log", scaling=Scaling.MEAN_SCALED)
        dist_b = empirical_pdf(c * values, binning="log", scaling=Scaling.MEAN_SCALED)
        da = np.asarray(dist_a.densities)
        db = np.asarray(dist_b.densities)
        scale = np.maximum(np.maximum(da, db), 1.0)
        worst_pdf = max(worst_pdf, float(np.max(np.abs(da - db) / scale)))

    assert worst_series < 1e-12
    assert worst_pdf < 1e-12
    report_line(
        8, True,
        f"100 random datasets: collapse deviation {worst_series:.1e} (series), "
        f"{worst_pdf:.1e} relative (pdfs), both < 1e-12",
    )


def test_criterion_9_pipeline_determinism(tmp_path):
    start = time.perf_counter()
    ws = tmp_path / "ws"
    ws.mkdir()
    plan = (
        ("sci_set_i", "sci", "citations", (2005, 2006)),
        ("sci_set_ii", "sci", "if", (2005, 2006)),
        ("socsci_set_i", "socsci", "citations", (2011, 2012)),
        ("socsci_set_ii", "socsci", "if", (2011, 2012)),
    )
    for profile, discipline, basis, years in plan:
        for year in years:
            csv = tmp_path / f"{profile}_{year}.csv"
            assert cli_run([
                "synth", "--profile", profile, "--year", str(year),
                "--seed", "20001000", "--out", str(csv),
            ]) == 0
            assert cli_run([
                "ingest", "--workspace", str(ws), "--input", str(csv),
                "--discipline", discipline, "--basis", basis, "--year", str(year),
            ]) == 0

    out_a = tmp_path / "report_a.json"
    out_b = tmp_path / "report_b.json"
    assert cli_run(["report", "--workspace", str(ws), "--out", str(out_a)]) == 0
    assert cli_run(["report", "--workspace", str(ws), "--out", str(out_b)]) == 0
    identical = out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text())
    elapsed = time.perf_counter() - start

    report_line(
        9, identical and elapsed < 60.0,
        f"report byte-identical across runs over {len(payload['datasets'])} datasets; "
        f"full pipeline {elapsed:.1f}s < 60s",
    )
