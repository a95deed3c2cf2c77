"""Seeded synthetic journal data: distribution oracles and bundled fixtures.

All generators run on a counter-based splittable PRNG (numpy Philox keyed
through SeedSequence) so identical seeds give identical output on any
platform; the algorithm identifier travels with fixture metadata.

Fixtures are 1000-journal ranked sets whose summary statistics were
calibrated against the analysis pipeline itself (rank-law exponent,
mean-scaled rate shape, year-to-year churn and noise). The constants in
``PROFILES`` are frozen calibration output: regenerating a fixture from the
same profile, year and seed is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distfit import GumbelParams, check_log_base
from .errors import ValidationError
from .model import Basis, Discipline, FixtureProfile, JournalTable, RankedSet, build_ranked_set

RNG_ALGORITHM = "philox4x64"
DEFAULT_SEED = 20001000

# One warp period spans the full ln(rank) range, so the rank-preserving
# year-to-year value warp averages out of the fitted log-log slope.
_WARP_PERIOD = math.log(1000.0)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream))
    return np.random.Generator(np.random.Philox(seq))


def sample_pareto(
    gamma: float, x_min: float, count: int, seed: int = DEFAULT_SEED
) -> np.ndarray:
    """Inverse-CDF samples from a continuous power law x^(-gamma) above x_min."""
    if not gamma > 1:
        raise ValidationError(f"Pareto exponent must exceed 1, got {gamma}")
    if not x_min > 0:
        raise ValidationError(f"x_min must be positive, got {x_min}")
    if math.isinf(gamma) or math.isinf(x_min):
        raise ValidationError(f"Pareto exponent and x_min must be finite, got {gamma}, {x_min}")
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    u = _rng(seed, 1).random(count)
    return x_min * np.power(1.0 - u, -1.0 / (gamma - 1.0))


def sample_gumbel_log(
    a: float,
    b: float,
    count: int,
    seed: int = DEFAULT_SEED,
    log_base: float = math.e,
) -> np.ndarray:
    """Mean-scaled rates whose logarithm is Gumbel(a, b).

    Draws z from the standard Gumbel via inverse CDF z = -ln(-ln u) and
    returns base**(a + b z). The base matches the fitting convention
    (natural by default).
    """
    GumbelParams(a, b)  # checks the scale and the location
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    check_log_base(log_base)
    u = _rng(seed, 2).random(count)
    z = -np.log(-np.log(u))
    return np.power(log_base, a + b * z)


@dataclass(frozen=True)
class _ProfileSpec:
    discipline: Discipline
    basis: Basis
    base_year: int
    n_years: int
    zipf_b: float              # rank-law exponent of the basis measure
    amplitude: float           # basis value at rank 1
    growth: float              # per-year log drift of the basis values
    sigma_local: float         # per-journal per-year log noise (rank churn)
    warp_amp: float            # rank-preserving log warp alternating in sign by year
    churn: int                 # journals exchanged between consecutive years
    gumbel_a: float            # nominal location of the log-rate shape
    gumbel_b: float            # generation scale of the log-rate shape
    z_cap: float               # upper truncation of the Gumbel quantiles
    warp1: float               # first-harmonic quantile warp
    warp2: float               # second-harmonic quantile warp
    warp_low: float            # low-rate stretch: a few mega-journal outliers
    rate_scale: float          # citations per article at unit scaled rate
    rate_coupling_sigma: float # log noise tying the secondary measure to the rate
    articles_mu: float         # median log article count (ranked-by-IF sets)
    articles_sigma: float      # log spread of article counts
    curve_beta: float = 0.0    # log-quadratic rank curve -(beta L + quad L^2);
    curve_quad: float = 0.0    # zero quad keeps the pure power law -zipf_b L


PROFILES: dict[FixtureProfile, _ProfileSpec] = {
    FixtureProfile.SCI_SET_I: _ProfileSpec(
        discipline=Discipline.SCI, basis=Basis.CITATIONS,
        base_year=2000, n_years=13,
        zipf_b=0.70, amplitude=6.0e5, growth=0.03,
        sigma_local=0.030, warp_amp=0.069, churn=95,
        gumbel_a=-0.5385, gumbel_b=0.82, z_cap=2.05, warp1=-0.08, warp2=0.065, warp_low=0.9,
        rate_scale=20.0, rate_coupling_sigma=0.64, articles_mu=0.0, articles_sigma=0.0,
    ),
    FixtureProfile.SCI_SET_II: _ProfileSpec(
        discipline=Discipline.SCI, basis=Basis.IMPACT_FACTOR,
        base_year=2000, n_years=13,
        zipf_b=0.54, amplitude=12.0, growth=0.02,
        sigma_local=0.062, warp_amp=0.215, churn=175,
        gumbel_a=-0.5711, gumbel_b=0.74, z_cap=2.6, warp1=-0.08, warp2=0.04, warp_low=0.0,
        rate_scale=20.0, rate_coupling_sigma=0.0, articles_mu=math.log(300.0), articles_sigma=1.36,
        curve_beta=-0.2815, curve_quad=0.0770,
    ),
    FixtureProfile.SOCSCI_SET_I: _ProfileSpec(
        discipline=Discipline.SOCSCI, basis=Basis.CITATIONS,
        base_year=2007, n_years=6,
        zipf_b=0.70, amplitude=2.0e5, growth=0.03,
        sigma_local=0.030, warp_amp=0.069, churn=95,
        gumbel_a=-0.5460, gumbel_b=0.82, z_cap=2.05, warp1=-0.08, warp2=0.065, warp_low=0.9,
        rate_scale=8.0, rate_coupling_sigma=0.64, articles_mu=0.0, articles_sigma=0.0,
    ),
    FixtureProfile.SOCSCI_SET_II: _ProfileSpec(
        discipline=Discipline.SOCSCI, basis=Basis.IMPACT_FACTOR,
        base_year=2007, n_years=6,
        zipf_b=0.40, amplitude=15.0, growth=0.02,
        sigma_local=0.050, warp_amp=0.090, churn=175,
        gumbel_a=-0.6691, gumbel_b=0.78, z_cap=2.6, warp1=-0.08, warp2=0.08, warp_low=0.0,
        rate_scale=8.0, rate_coupling_sigma=0.0, articles_mu=math.log(150.0), articles_sigma=1.36,
    ),
}

_CAP = 1000
# Journals churn through a sliding window over a reserved pool occupying the
# bottom fifth of the quality slots; the rest of the set is a stable core.
_POOL_FACTOR = 2


def _profile(profile: FixtureProfile | str) -> _ProfileSpec:
    profile = FixtureProfile(profile)
    return PROFILES[profile]


def _member_slots(
    spec: _ProfileSpec, t: int, profile_key: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Universe indices of the year's members and their quality slots (1..1000).

    Core journals keep one profile-specific slot for all years (a seeded
    permutation, so rankings of different profiles are not aligned by id);
    pool journals take the bottom slots in window order.
    """
    active = _POOL_FACTOR * spec.churn
    core = _CAP - active
    pool_start = core + t * spec.churn
    members = np.concatenate(
        [np.arange(core), pool_start + np.arange(active)]
    )
    core_slots = _rng(seed, 13, profile_key).permutation(np.arange(1, core + 1))
    slots = np.concatenate([core_slots, np.arange(core + 1, _CAP + 1)])
    return members, slots


def _scaled_rate_draws(spec: _ProfileSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stratified truncated-Gumbel log-rate draws with the profile's warp."""
    v = (np.arange(count) + rng.uniform(0.0, 1.0, count)) / count
    v = rng.permutation(v)
    p_cap = math.exp(-math.exp(-spec.z_cap))
    u = v * p_cap
    z = -np.log(-np.log(u))
    x = (
        spec.gumbel_a
        + spec.gumbel_b * z
        + spec.warp1 * np.sin(np.pi * u)
        + spec.warp2 * np.sin(2.0 * np.pi * u)
        - spec.warp_low * np.exp(-v / 0.006)
    )
    return np.exp(x - spec.gumbel_a)  # location cancels under mean scaling


def build_fixture(
    profile: FixtureProfile | str, year: int, seed: int = DEFAULT_SEED
) -> RankedSet:
    """Generate one year of a fixture profile as a RankedSet.

    Consecutive years of the same profile+seed share exactly
    1000 - churn journals; basis values carry calibrated local noise plus a
    rank-preserving warp whose sign alternates by year, so that year-to-year
    rank and value correlations land on the reference statistics.
    """
    spec = _profile(profile)
    t = year - spec.base_year
    if not 0 <= t < spec.n_years:
        raise ValidationError(
            f"{FixtureProfile(profile).value}: year must be in "
            f"[{spec.base_year}, {spec.base_year + spec.n_years - 1}], got {year}"
        )

    profile_key = list(FixtureProfile).index(FixtureProfile(profile))
    members, slots = _member_slots(spec, t, profile_key, seed)
    count = members.size

    noise_rng = _rng(seed, 10, t)
    rate_rng = _rng(seed, 11, t)
    side_rng = _rng(seed, 12, t)

    ln_slots = np.log(slots)
    if spec.curve_quad != 0.0:
        # convex log-log curve: flat top ranks, OLS slope still zipf_b, and a
        # distribution tail steeper than the pure power law would predict
        rank_curve = -(spec.curve_beta * ln_slots + spec.curve_quad * ln_slots**2)
    else:
        rank_curve = -spec.zipf_b * ln_slots
    warp_sign = 1.0 if t % 2 == 0 else -1.0
    ln_basis = (
        math.log(spec.amplitude)
        + spec.growth * t
        + rank_curve
        + spec.warp_amp * warp_sign * np.sin(2.0 * math.pi * ln_slots / _WARP_PERIOD)
        + spec.sigma_local * noise_rng.standard_normal(count)
    )
    basis_values = np.exp(ln_basis)

    scaled_rates = _scaled_rate_draws(spec, count, rate_rng)
    rates = spec.rate_scale * scaled_rates

    if spec.basis is Basis.CITATIONS:
        citations = np.maximum(1, np.rint(basis_values).astype(np.int64))
        articles = np.maximum(1, np.rint(citations / rates).astype(np.int64))
        # impact factor rides on the citation rate with calibrated decoupling
        ln_if = (
            math.log(2.5)
            + np.log(scaled_rates)
            + spec.rate_coupling_sigma * side_rng.standard_normal(count)
        )
        impact = np.exp(ln_if)
    else:
        impact = basis_values
        articles = np.maximum(
            1,
            np.rint(
                np.exp(
                    spec.articles_mu
                    + spec.articles_sigma * side_rng.standard_normal(count)
                )
            ).astype(np.int64),
        )
        citations = np.maximum(1, np.rint(articles * rates).astype(np.int64))

    table = JournalTable(
        [_journal_id(spec.discipline, m) for m in members.tolist()],
        [year] * count,
        citations.tolist(),
        impact.tolist(),
        articles.tolist(),
    )
    return build_ranked_set(table, spec.discipline, spec.basis, year, cap=_CAP)


def _journal_id(discipline: Discipline, index: int) -> str:
    return f"{discipline.value.upper()}-J{index:05d}"


def fixture_metadata(profile: FixtureProfile | str, year: int, seed: int = DEFAULT_SEED) -> dict:
    """Provenance record emitted next to fixture CSVs."""
    spec = _profile(profile)
    return {
        "profile": FixtureProfile(profile).value,
        "year": year,
        "seed": seed,
        "rng": RNG_ALGORITHM,
        "targets": {
            "zipf_b": spec.zipf_b,
            "gumbel_a": spec.gumbel_a,
            "scaled_rate_peak": 0.5,
            "overlap_consecutive_years": _CAP - spec.churn,
        },
    }
