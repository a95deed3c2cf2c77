"""Distribution analytics: binned densities, Pareto tails, log-Gumbel fits, KS tests.

The citation-rate distribution is fitted by a Gumbel density applied to the
logarithm of the mean-scaled rate,

    pdf(x) = (1/b) * exp(-(z + exp(-z))),   z = (x - a) / b,

with x = log(r / <r>). The logarithm base is configurable and defaults to the
natural log: the published location parameters then put the distribution peak
at exp(a) ~ 0.5 of the average rate, which is what the data shows. Every fit
records the convention in its result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import FitConvergenceError, ValidationError
from .model import FitMethod, FitResult, finite_samples

EULER_GAMMA = 0.5772156649015329
MIN_TAIL_SAMPLES = 50
MIN_GUMBEL_SAMPLES = 30
GUMBEL_TOL = 1e-10
GUMBEL_MAX_ITER = 200
BRENTQ_RTOL = 4 * float(np.finfo(float).eps)
_LSQ_RTOL = 1e-15
_SQRT_EPS = math.sqrt(float(np.finfo(float).eps))
_IGNORE = {"over": "ignore", "divide": "ignore", "invalid": "ignore"}


class Scaling(str, Enum):
    RAW = "raw"
    MEAN_SCALED = "mean_scaled"


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Binned density estimate normalized so sum(density * width) == 1."""

    bin_edges: tuple[float, ...]
    densities: tuple[float, ...]
    n_samples: int
    scaling: Scaling
    binning: str = "log"

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        if edges.size < 2 or not np.all(np.diff(edges) > 0):
            raise ValidationError("bin_edges must be strictly increasing")
        if self.binning == "log" and edges[0] <= 0:
            raise ValidationError("log binning requires positive bin edges")
        if edges[0] < 0:
            raise ValidationError("bin_edges must be non-negative")
        dens = np.asarray(self.densities, dtype=float)
        if dens.size != edges.size - 1:
            raise ValidationError("need one density per bin")
        if np.any(dens < 0):
            raise ValidationError("densities must be non-negative")
        total = float(np.sum(dens * np.diff(edges)))
        if not abs(total - 1.0) <= 1e-9:
            raise ValidationError(f"density must integrate to 1, got {total!r}")

    def centers(self) -> np.ndarray:
        """Geometric bin centers under log binning, arithmetic otherwise."""
        edges = np.asarray(self.bin_edges)
        if self.binning == "log":
            return np.sqrt(edges[:-1] * edges[1:])
        return 0.5 * (edges[:-1] + edges[1:])


def empirical_pdf(
    samples: Sequence[float],
    binning: str = "log",
    scaling: Scaling = Scaling.RAW,
) -> EmpiricalDistribution:
    """Histogram density of the samples: count / (n_samples * bin_width).

    binning "log" uses 10 bins per decade on geometric edges; "linear" uses
    20 equal-width bins. Both span the samples' range. MeanScaled divides
    samples by their mean first, which collapses datasets differing only by
    a positive factor onto identical bins.
    """
    x = finite_samples(samples, "samples")
    if scaling is Scaling.MEAN_SCALED:
        mean = float(x.mean())
        if mean <= 0:
            raise ValidationError("mean scaling requires a positive mean")
        x = x / mean
    if binning == "log" and np.any(x <= 0):
        raise ValidationError("log binning requires strictly positive samples")
    lo, hi = float(x.min()), float(x.max())
    if not hi > lo:
        raise ValidationError("degenerate sample: all values equal, nothing to bin")

    if binning == "log":
        n_bins = max(1, math.ceil((math.log10(hi) - math.log10(lo)) * 10))
        with np.errstate(over="ignore"):  # the top edge may overflow; it is pinned to hi below
            edges = np.logspace(math.log10(lo), math.log10(hi), n_bins + 1)
    elif binning == "linear":
        edges = np.linspace(lo, hi, 20 + 1)
    else:
        raise ValidationError(f"unknown binning {binning!r}, expected 'log' or 'linear'")
    # pin the boundary edges so min/max samples cannot round out of range
    edges[0], edges[-1] = lo, hi

    densities = _binned_density(x, edges)
    return EmpiricalDistribution(
        bin_edges=tuple(float(e) for e in edges),
        densities=tuple(float(d) for d in densities),
        n_samples=int(x.size),
        scaling=scaling,
        binning=binning,
    )


def _binned_density(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Density count / (n * width) over the bins between ``edges``, n the
    samples binned. ValidationError if a bin has no positive width (a range
    a few ulps wide)."""
    widths = np.diff(edges)
    if not np.all(widths > 0):  # equal, decreasing or NaN edges
        raise ValidationError(f"cannot bin the samples into {len(widths)} bins of positive width")
    counts, _ = np.histogram(x, bins=edges)
    return counts / (counts.sum() * widths)


def pdf_peak_location(dist: EmpiricalDistribution) -> float:
    """Center of the maximal-density bin of a mean-scaled distribution.

    Ties resolve to the smaller center.
    """
    if dist.scaling is not Scaling.MEAN_SCALED:
        raise ValidationError("peak location is defined on mean-scaled distributions")
    idx = int(np.argmax(dist.densities))
    return float(dist.centers()[idx])


# --- Pareto tail -------------------------------------------------------------


def _pareto_mle(tail: np.ndarray, x_min: float) -> float:
    log_ratio = np.divide(tail, x_min)
    np.log(log_ratio, out=log_ratio)
    total = float(log_ratio.sum())
    if total <= 0:
        raise ValidationError("degenerate tail: all samples at x_min")
    return 1.0 + tail.size / total


def _pareto_cdf(t: np.ndarray, x_min: float, gamma: float) -> np.ndarray:
    """The power-law CDF 1 - (x_min / t)**(gamma - 1), formed in one buffer."""
    f = x_min / t
    f **= gamma - 1.0
    return np.subtract(1.0, f, out=f)


# Fast and exact KS distances of one candidate cutoff c differ by rounding
# only. Let u = eps/2, m the tail size, J the candidates scanned and
# L = max(|log c|, |log max x|, 1), which bounds every |log x| in the tail.
# With log, exp and pow within 4 ulp, the fast sum of log(x/c) (pairwise and
# segment sums of rounded logs, less m log c) and the exact one (pairwise sum
# of log(x/c)) differ by at most u m L (J + 300) for m < 2**48, so
# g - 1 = m / sum moves by a relative r <= u L (g - 1) (J + 300). Each CDF
# value then moves by at most r/e through g, by 19 u L (g - 1) through its
# log ratio, and by 16 u in exp or pow; the steps i/m add 4 u. Hence
#     |fast D - exact D| <= eps ((g - 1) L (J + 300) + 16),
# about 1e-12 on the benchmark's draws (under 1e-15 measured there, against
# a gap of 5.9e-5 or more to the runner-up). A candidate whose bound exceeds
# _SCAN_SLACK / 4, or whose fast log sum is not positive, is re-scored
# exactly. Of the rest, one whose fast D is more than _SCAN_SLACK above the
# fast minimum lies over _SCAN_SLACK / 2 above the exact minimum: it can
# neither win nor tie.
_SCAN_SLACK = 1e-9
# The fast pass scores a tail this many samples at a time, in one buffer.
_SCAN_BLOCK = 1 << 16


def _near_minimal_cutoffs(x: np.ndarray, candidates: np.ndarray, min_tail: int) -> list[float]:
    """The ascending candidate cutoffs the exact scan must re-score.

    Only the candidates before the first that leaves fewer than ``min_tail``
    samples are scanned; ValidationError if there are none.
    """
    xs = np.sort(x)
    starts = np.searchsorted(xs, candidates)  # x[x >= c] is a permutation of xs[start:]
    sizes = xs.size - starts
    n_scan = int(np.count_nonzero(sizes >= min_tail))  # sizes never grow
    if n_scan == 0:
        raise ValidationError(f"no candidate x_min leaves {min_tail} tail samples")
    cands, starts, sizes = candidates[:n_scan], starts[:n_scan].tolist(), sizes[:n_scan]
    logs = np.log(xs, out=xs)
    ends = starts[1:] + [logs.size]
    segments = [logs[a:b].sum() for a, b in zip(starts, ends)]
    log_c = np.log(cands)
    sums = np.cumsum(segments[::-1])[::-1] - sizes * log_c
    log_scale = np.maximum(np.maximum(np.abs(log_c), abs(logs[-1])), 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g = 1.0 + sizes / sums
        bound = float(np.finfo(float).eps) * ((g - 1.0) * log_scale * (n_scan + 300) + 16.0)
    trusted = (sums > 0) & (bound <= _SCAN_SLACK / 4)

    d_fast = np.full(n_scan, np.inf)
    buf = np.empty(min(int(sizes[trusted].max(initial=0)), _SCAN_BLOCK))
    for j in np.flatnonzero(trusted).tolist():
        tail = logs[starts[j]:]
        m = tail.size
        top, bottom = -math.inf, math.inf  # of v_i = m F_i - i; m D = max(top, 1 - bottom)
        for i in range(0, m, _SCAN_BLOCK):
            block = tail[i:i + _SCAN_BLOCK]
            v = buf[:block.size]
            np.subtract(log_c[j], block, out=v)
            v *= g[j] - 1.0
            np.exp(v, out=v)  # 1 - F, the fitted survival function
            v *= -m
            v += np.arange(m - i, m - i - block.size, -1, dtype=float)
            top, bottom = max(top, v.max()), min(bottom, v.min())
        d_fast[j] = max(top, 1.0 - bottom) / m
    near = ~trusted | (d_fast <= d_fast.min() + _SCAN_SLACK)
    return cands[near].tolist()


def _tail_ks(x: np.ndarray, x_min: float) -> float:
    """Exact KS distance between the tail ``x[x >= x_min]`` and its fitted power law."""
    tail = x[x >= x_min]
    gamma = _pareto_mle(tail, x_min)  # summed in the sample's order
    tail.sort()
    return _ks_sorted(tail, lambda t: _pareto_cdf(t, x_min, gamma))


def pareto_tail_fit(
    samples: Sequence[float],
    x_min: float | None = None,
    min_tail: int = MIN_TAIL_SAMPLES,
) -> FitResult:
    """Continuous maximum-likelihood power-law fit of a distribution tail.

    For the m samples at or above x_min the estimator is

        gamma = 1 + m / sum(log(x_i / x_min)),    stderr = (gamma - 1) / sqrt(m).

    With ``x_min=None`` the cutoff is selected automatically by minimizing
    the KS distance between the tail sample and its fitted power law over
    logarithmically spaced candidate cutoffs; the first of equal minima wins.
    The scan takes two passes. A fast pass scores every candidate from the
    logs of the sample sorted once: each tail is a suffix, its log sum
    gathers from one segment sum per candidate, and its CDF is formed as
    exp((gamma - 1)(log x_min - log x)). An exact pass then re-scores, with
    the plain estimator and KS distance on ``x[x >= x_min]``, every candidate
    whose fast distance is within ``_SCAN_SLACK`` of the fast minimum (or
    whose fast score cannot be trusted that far). The scan only chooses the
    cutoff; the fit at it is the one an explicit ``x_min`` gets, the plain
    estimate on the unsorted tail.
    """
    x = finite_samples(samples, "samples")
    if np.any(x <= 0):
        raise ValidationError("power-law tail fit requires positive samples")
    hi = float(x.max())  # the top of every tail

    if x_min is None:
        lo = float(x.min())
        if not hi > lo:
            raise ValidationError("degenerate sample: all values equal")
        n_candidates = max(2, math.ceil((math.log10(hi) - math.log10(lo)) * 10))
        with np.errstate(over="ignore"):  # only the top one, dropped here, can overflow
            candidates = np.logspace(math.log10(lo), math.log10(hi), n_candidates + 1)[:-1]
        picks = _near_minimal_cutoffs(x, candidates, min_tail)
        # a lone pick is the winner; its KS distance is not needed
        x_min = picks[0] if len(picks) == 1 else min(picks, key=lambda c: _tail_ks(x, c))
    elif not (math.isfinite(x_min) and x_min > 0):
        raise ValidationError(f"x_min must be positive and finite, got {x_min}")
    tail = x[x >= x_min]
    m = tail.size
    if m < min_tail:
        raise ValidationError(
            f"need at least {min_tail} tail samples above x_min={x_min:g}, have {m}"
        )
    gamma = _pareto_mle(tail, x_min)
    chosen = float(x_min)

    stderr = (gamma - 1.0) / math.sqrt(m)
    return FitResult(
        params={"gamma": gamma, "x_min": chosen},
        stderr={"gamma": stderr, "x_min": 0.0},
        fit_range=(chosen, hi),
        method=FitMethod.MAXIMUM_LIKELIHOOD,
    )


def zipf_pareto_predict(b: float) -> float:
    """Pareto exponent implied by a Zipf exponent: gamma = 1 + 1/b."""
    if not b > 0:
        raise ValidationError(f"Zipf exponent must be positive, got {b}")
    return 1.0 + 1.0 / b


# --- log-Gumbel --------------------------------------------------------------


@dataclass(frozen=True)
class GumbelParams:
    """Location and scale of the Gumbel density in log-rate space."""

    a: float
    b: float

    def __post_init__(self):
        if not self.b > 0:
            raise ValidationError(f"Gumbel scale must be positive, got {self.b}")
        if not math.isfinite(self.b):
            raise ValidationError(f"Gumbel scale must be finite, got {self.b}")
        if not math.isfinite(self.a):
            raise ValidationError(f"Gumbel location must be finite, got {self.a}")


def gumbel_log_pdf(x, params: GumbelParams):
    """Gumbel density (1/b) exp(-(z + exp(-z))), z = (x - a)/b.

    ``x`` is the logarithm of the mean-scaled rate; scalar or array input.
    The maximum sits exactly at x = a with value 1/(b e).

    Computed as exp(-1 - t)/b with t = max(z + expm1(-z), 0), since
    z + exp(-z) = 1 + (z + expm1(-z)) >= 1. The textbook form can round
    z + exp(-z) below 1 a few ulp from a and exceed the peak; with t >= 0 no x
    on any grid exceeds exp(-1)/b, the value at x = a. Values agree with the
    textbook form to about 1e-13 relative wherever it does not underflow.
    """
    # Below z = -709.8 expm1(-z) overflows to inf and the density is 0; the
    # floor keeps x = -inf at that limit instead of -inf + inf = NaN.
    z = np.maximum((np.asarray(x, dtype=float) - params.a) / params.b, -1e3)
    with np.errstate(over="ignore"):  # expm1(-z) -> inf far left, pdf underflows to 0
        out = np.exp(-1.0 - np.maximum(z + np.expm1(-z), 0.0)) / params.b
    if out.ndim == 0:
        return float(out)
    return out


def gumbel_cdf(x, params: GumbelParams):
    """Gumbel cumulative distribution exp(-exp(-z))."""
    z = (np.asarray(x, dtype=float) - params.a) / params.b
    with np.errstate(over="ignore"):
        out = np.exp(-np.exp(-z))
    if out.ndim == 0:
        return float(out)
    return out


def _brentq(
    f: Callable[[float], float],
    xa: float,
    xb: float,
    xtol: float,
    maxiter: int,
    fa: float | None = None,
    fb: float | None = None,
) -> float:
    """Root of f between xa and xb by Brent's method.

    A step-for-step port of scipy's ``brentq.c``: the same sign-bit bracket
    test, the same choice between inverse linear interpolation, inverse
    quadratic extrapolation and bisection, and the same stopping rule
    |xblk - xcur| / 2 < (xtol + rtol |xcur|) / 2. Every step is the same
    IEEE double arithmetic in the same order, so it returns the very float
    ``scipy.optimize.brentq(f, xa, xb, xtol=xtol, maxiter=maxiter)`` does,
    after the same evaluations of f. The rtol is scipy's default, ``BRENTQ_RTOL``.

    ``fa`` and ``fb`` are f(xa) and f(xb) when the caller already has them;
    f is then not evaluated at the ends again.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre) if fa is None else fa
    fcur = f(xcur) if fb is None else fb
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise FitConvergenceError("root is not bracketed: f has one sign at both ends")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + BRENTQ_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            limit = 3 * abs(sbis) - delta
            if abs(spre) < limit:
                limit = abs(spre)
            if 2 * abs(stry) < limit:  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise FitConvergenceError(
        f"Brent root-finding did not converge after {maxiter} iterations, value is {xcur!r}",
        residual=abs(fcur),
    )


def _gumbel_scale_equation(x: np.ndarray, shift: float) -> Callable[[float], float]:
    """g(b) = b - mean(x) + sum(x w)/sum(w), w = exp(-xs/b): the MLE scale is its root.

    ``xs`` is x less ``shift``, its minimum, which keeps the weights from
    overflowing. Every evaluation forms xs, then the weights, then x w, in one
    buffer; xs / -b is the same float as -xs / b.
    """
    x_bar = float(x.mean())
    w = np.empty_like(x)

    def imbalance(b: float) -> float:
        xs = np.subtract(x, shift, out=w)
        w_sum = np.exp(np.divide(xs, -b, out=w), out=w).sum()
        return b - x_bar + float(np.multiply(x, w, out=w).sum() / w_sum)

    return imbalance


def _gumbel_mle(x: np.ndarray) -> tuple[float, float]:
    """Solve the two Gumbel likelihood equations.

    The scale solves b = mean(x) - sum(x w)/sum(w) with w = exp(-x/b) by
    bracketed root-finding; the location then follows in closed form.
    Values are shifted by their minimum inside the weights to avoid overflow.

    The root finder is ``_brentq``, a port of scipy's ``brentq`` that makes
    the same floating-point operations in the same order and so returns the
    same b to the last bit. Any other root finder would stop at a different
    point inside the ``GUMBEL_TOL`` interval, which can change the ninth
    significant digit the CLI prints; with the port the package needs no
    scipy import for this fit. The scale equation is evaluated once per
    point: the bracket's end values are handed to the root finder.
    """
    b0 = float(x.std(ddof=0)) * math.sqrt(6.0) / math.pi  # before w: std makes a copy
    shift = float(x.min())
    imbalance = _gumbel_scale_equation(x, shift)
    f0 = imbalance(b0)
    lo, f_lo = b0, f0
    for _ in range(64):
        if f_lo < 0:
            break
        lo /= 2.0
        f_lo = imbalance(lo)
    hi, f_hi = b0, f0
    for _ in range(64):
        if f_hi > 0:
            break
        hi *= 2.0
        f_hi = imbalance(hi)
    if not (f_lo < 0 < f_hi):
        raise FitConvergenceError(
            "could not bracket the Gumbel scale equation", residual=min(abs(f_lo), abs(f_hi))
        )
    try:
        b = _brentq(
            imbalance, lo, hi, xtol=GUMBEL_TOL, maxiter=GUMBEL_MAX_ITER, fa=f_lo, fb=f_hi
        )
    except FitConvergenceError as exc:
        raise FitConvergenceError(
            f"Gumbel scale equation: {exc}", residual=exc.residual
        ) from None
    del imbalance  # and with it the closure's buffer, before w is made
    w = np.subtract(x, shift)
    np.exp(np.divide(w, -b, out=w), out=w)
    a = shift - b * math.log(float(w.mean()))
    return a, float(b)


def _curve_residuals(centers: np.ndarray, density: np.ndarray) -> Callable:
    """r(a, log b) = gumbel_log_pdf(centers) - density, with its sum of squares.

    None where b or the sum is not finite (exp(log b) overflows, or the
    density does at a tiny b): such a point is a rejected step, never an
    arithmetic error.
    """

    def residuals(a: float, log_b: float) -> tuple[np.ndarray, float] | None:
        try:
            b = math.exp(log_b)
        except OverflowError:
            return None
        if not (0 < b < math.inf and math.isfinite(a)):
            return None
        with np.errstate(**_IGNORE):
            r = gumbel_log_pdf(centers, GumbelParams(a, b)) - density
            cost = float(np.sum(r * r))
        return (r, cost) if math.isfinite(cost) else None

    return residuals


def _levenberg_marquardt(residuals: Callable, a: float, log_b: float) -> tuple[float, float, float]:
    """Minimise the sum of squares of ``residuals(a, log_b)`` from (a, log_b).

    Each iteration takes a forward-difference Jacobian J (step
    sqrt(eps) max(1, |p|), as scipy's ``2-point``) and solves the damped
    normal equations (J'J + mu I) d = -J'r in closed form, mu = 0 at first.
    A step is taken only if it lowers the sum; otherwise mu grows tenfold
    (from 1e-3 of the largest diagonal entry of J'J) and the step is solved
    again. After a taken step mu shrinks threefold if the sum fell by more
    than 3/4 of the linear model's prediction, and doubles if by less than
    1/4, which damps the zig-zag of plain Gauss-Newton steps in a narrow
    valley. The fit stops when a taken step lowers the sum by at most
    ``_LSQ_RTOL`` of itself, or when no damping finds a lower sum. A
    singular J'J is a rejected step, never a division by zero. Returns a,
    log b and the sum of squares; FitConvergenceError after
    ``GUMBEL_MAX_ITER`` iterations.
    """
    p = (a, log_b)
    r, cost = residuals(*p)
    mu = 0.0
    for _ in range(GUMBEL_MAX_ITER):
        jac = []
        for j in (0, 1):
            q = list(p)
            q[j] += _SQRT_EPS * max(1.0, abs(p[j]))
            moved = residuals(*q)
            if moved is None:
                raise FitConvergenceError(
                    "least-squares Gumbel fit: residuals beside the point are not finite",
                    residual=cost,
                )
            jac.append((moved[0] - r) / (q[j] - p[j]))
        j0, j1 = jac
        with np.errstate(**_IGNORE):  # a non-finite entry is caught below
            a00, a01, a11, g0, g1 = (
                float(np.sum(u * v)) for u, v in ((j0, j0), (j0, j1), (j1, j1), (j0, r), (j1, r))
            )
        if not all(map(math.isfinite, (a00, a01, a11, g0, g1))):
            raise FitConvergenceError(
                "least-squares Gumbel fit: the Jacobian is not finite", residual=cost
            )
        while True:
            m00, m11 = a00 + mu, a11 + mu
            det = m00 * m11 - a01 * a01
            if det > 0:  # not when the matrix is singular, or det is NaN
                d0 = (a01 * g1 - m11 * g0) / det
                d1 = (a01 * g0 - m00 * g1) / det
                trial = (p[0] + d0, p[1] + d1)
                if trial == p:  # no damping can move the point
                    return p[0], p[1], cost
                moved = residuals(*trial)
                if moved is not None and moved[1] < cost:
                    break
            mu = max(10.0 * mu, 1e-3 * max(a00, a11))
            if not 0 < mu < math.inf:  # J = 0, or no damping finds a lower sum
                return p[0], p[1], cost
        gain = cost - moved[1]
        predicted = d0 * (mu * d0 - g0) + d1 * (mu * d1 - g1)  # by the linear model
        if gain > 0.75 * predicted:
            mu /= 3.0
        elif gain < 0.25 * predicted:
            mu = max(2.0 * mu, 1e-3 * max(a00, a11))
        done = gain <= _LSQ_RTOL * cost
        p, (r, cost) = trial, moved
        if done:
            return p[0], p[1], cost
    raise FitConvergenceError(
        f"least-squares Gumbel fit did not converge after {GUMBEL_MAX_ITER} iterations",
        residual=cost,
    )


def _gumbel_lsq(x: np.ndarray, bins: int) -> tuple[float, float, float]:
    """Fit (a, b) to the binned density curve by nonlinear least squares.

    The residuals are gumbel_log_pdf at the bin centers less the density;
    ``_levenberg_marquardt`` minimises their sum of squares over (a, log b)
    from the moment estimates, whose residuals are always finite. Returns
    a, b and that sum.
    """
    edges = np.linspace(x.min(), x.max(), bins + 1)  # np.histogram's grid for a bin count
    density = _binned_density(x, edges)
    residuals = _curve_residuals(0.5 * (edges[:-1] + edges[1:]), density)
    b0 = max(float(x.std(ddof=0)) * math.sqrt(6.0) / math.pi, 1e-6)
    a0 = float(x.mean()) - EULER_GAMMA * b0
    a, log_b, cost = _levenberg_marquardt(residuals, a0, math.log(b0))
    return a, math.exp(log_b), cost


def check_log_base(log_base: float) -> None:
    """ValidationError unless the logarithm base is finite and exceeds 1."""
    if not (math.isfinite(log_base) and log_base > 1):
        raise ValidationError(f"log base must be finite and exceed 1, got {log_base}")


def gumbel_fit(
    scaled_rates: Sequence[float],
    method: FitMethod = FitMethod.MAXIMUM_LIKELIHOOD,
    log_base: float = math.e,
    lsq_bins: int = 12,
) -> tuple[GumbelParams, FitResult]:
    """Fit the log-Gumbel distribution to mean-scaled citation rates.

    The input is taken to be already scaled by its average; the fit runs on
    x = log(rate) in the requested base (natural by default, see the module
    docstring). MaximumLikelihood solves the likelihood equations exactly;
    LogLogLeastSquares fits the binned density curve instead, which is less
    efficient but insensitive to tail outliers.
    """
    r = np.asarray(scaled_rates, dtype=float)
    if r.size < MIN_GUMBEL_SAMPLES:
        raise ValidationError(
            f"need at least {MIN_GUMBEL_SAMPLES} rates, have {r.size}"
        )
    finite_samples(r, "rates")
    if np.any(r <= 0):
        raise ValidationError("rates must be strictly positive")
    check_log_base(log_base)
    x = np.log(r)
    x /= math.log(log_base)
    if float(x.max()) - float(x.min()) < 1e-12:
        raise ValidationError("degenerate scale: all rates equal")

    if method is FitMethod.MAXIMUM_LIKELIHOOD:
        a, b = _gumbel_mle(x)
        n = x.size
        se_b = b * math.sqrt(6.0 / math.pi**2 / n)
        se_a = b * math.sqrt((1.0 + 6.0 * (1.0 - EULER_GAMMA) ** 2 / math.pi**2) / n)
    elif method is FitMethod.LOG_LOG_LEAST_SQUARES:
        if lsq_bins < 4:  # 1-2 points leave (a, b) undetermined, 3 can leave several minima
            raise ValidationError(f"least-squares fit needs at least 4 bins, got {lsq_bins}")
        a, b, _ = _gumbel_lsq(x, lsq_bins)
        se_a = se_b = 0.0
    else:
        raise ValidationError(f"unsupported fit method {method!r}")

    params = GumbelParams(a=a, b=b)
    result = FitResult(
        params={"a": a, "b": b, "log_base": log_base},
        stderr={"a": se_a, "b": se_b, "log_base": 0.0},
        fit_range=(float(x.min()), float(x.max())),
        method=method,
    )
    return params, result


# --- Kolmogorov-Smirnov -------------------------------------------------------

# Two-sided small-sample critical values (Massey 1951), significance levels
# 0.20 / 0.15 / 0.10 / 0.05 / 0.01. Rows beyond n=20 follow the standard
# coarser table; gaps are interpolated linearly in 1/sqrt(n).
_KS_LEVELS = (0.20, 0.15, 0.10, 0.05, 0.01)
_KS_TABLE: dict[int, tuple[float, float, float, float, float]] = {
    1: (0.900, 0.925, 0.950, 0.975, 0.995),
    2: (0.684, 0.726, 0.776, 0.842, 0.929),
    3: (0.565, 0.597, 0.642, 0.708, 0.828),
    4: (0.494, 0.525, 0.564, 0.624, 0.733),
    5: (0.446, 0.474, 0.510, 0.565, 0.669),
    6: (0.410, 0.436, 0.470, 0.521, 0.618),
    7: (0.381, 0.405, 0.438, 0.486, 0.577),
    8: (0.358, 0.381, 0.411, 0.457, 0.543),
    9: (0.339, 0.360, 0.388, 0.432, 0.514),
    10: (0.322, 0.342, 0.368, 0.410, 0.490),
    11: (0.307, 0.326, 0.352, 0.391, 0.468),
    12: (0.295, 0.313, 0.338, 0.375, 0.450),
    13: (0.284, 0.302, 0.325, 0.361, 0.433),
    14: (0.274, 0.292, 0.314, 0.349, 0.418),
    15: (0.266, 0.283, 0.304, 0.338, 0.404),
    16: (0.258, 0.274, 0.295, 0.328, 0.392),
    17: (0.250, 0.266, 0.286, 0.318, 0.381),
    18: (0.244, 0.259, 0.278, 0.309, 0.371),
    19: (0.237, 0.252, 0.272, 0.301, 0.363),
    20: (0.231, 0.246, 0.264, 0.294, 0.356),
    25: (0.210, 0.220, 0.240, 0.270, 0.320),
    30: (0.190, 0.200, 0.220, 0.240, 0.290),
    35: (0.180, 0.190, 0.210, 0.230, 0.270),
}
_KS_ASYMPTOTIC = {0.20: 1.07, 0.15: 1.14, 0.10: 1.22, 0.05: 1.36, 0.01: 1.63}


def ks_critical_value(n: int, significance: float = 0.20) -> float:
    """Two-sided KS critical value for sample size n.

    Small samples (n <= 35) use the standard table; larger samples use the
    asymptotic form c(s)/sqrt(n).
    """
    if n < 1:
        raise ValidationError(f"sample size must be >= 1, got {n}")
    if significance not in _KS_ASYMPTOTIC:
        supported = ", ".join(f"{s:.2f}" for s in _KS_LEVELS)
        raise ValidationError(
            f"unsupported significance {significance!r}; supported levels: {supported}"
        )
    col = _KS_LEVELS.index(significance)
    if n > 35:
        return _KS_ASYMPTOTIC[significance] / math.sqrt(n)
    if n in _KS_TABLE:
        return _KS_TABLE[n][col]
    below = max(k for k in _KS_TABLE if k < n)
    above = min(k for k in _KS_TABLE if k > n)
    t = (1 / math.sqrt(n) - 1 / math.sqrt(below)) / (
        1 / math.sqrt(above) - 1 / math.sqrt(below)
    )
    lo, hi = _KS_TABLE[below][col], _KS_TABLE[above][col]
    return lo + t * (hi - lo)


def _check_cdf(values: Sequence[float], name: str) -> None:
    prev = -1e-12
    for f in values:
        if f < -1e-12 or f > 1 + 1e-12:
            raise ValidationError(f"{name} CDF values must lie in [0, 1], got {f!r}")
        if f < prev - 1e-12:
            raise ValidationError(f"{name} CDF must be non-decreasing")
        prev = f


def ks_statistic(
    empirical_points: Sequence[tuple[float, float]],
    model_cdf_values: Sequence[tuple[float, float]],
) -> float:
    """Maximum absolute deviation between two aligned CDF sequences."""
    if len(empirical_points) != len(model_cdf_values):
        raise ValidationError("misaligned grids: CDF sequences differ in length")
    if len(empirical_points) == 0:
        raise ValidationError("empty CDF sequences")
    xs_e = np.asarray([p[0] for p in empirical_points], dtype=float)
    xs_m = np.asarray([p[0] for p in model_cdf_values], dtype=float)
    scale = np.maximum(np.abs(xs_e), 1.0)
    if np.any(np.abs(xs_e - xs_m) > 1e-9 * scale):
        raise ValidationError("misaligned grids: x values differ")
    f_e = [p[1] for p in empirical_points]
    f_m = [p[1] for p in model_cdf_values]
    _check_cdf(f_e, "empirical")
    _check_cdf(f_m, "model")
    return float(np.max(np.abs(np.asarray(f_e) - np.asarray(f_m))))


def _ks_sorted(x: np.ndarray, model_cdf: Callable) -> float:
    """KS distance of a non-empty, ascending, finite sample against a model CDF."""
    n = x.size
    f = np.asarray(model_cdf(x), dtype=float)
    # (i + 1)/n - f, then f - i/n, each formed in place in a step buffer of its own
    upper = np.arange(1, n + 1, dtype=float)
    d_upper = np.max(np.subtract(np.divide(upper, n, out=upper), f, out=upper))
    del upper  # before the second buffer is made
    lower = np.arange(0, n, dtype=float)
    return float(max(d_upper, np.max(np.subtract(f, np.divide(lower, n, out=lower), out=lower))))


def gumbel_curve_ks(
    scaled_rates: Sequence[float],
    params: GumbelParams,
    n_points: int,
    log_base: float = math.e,
    significance: float = 0.20,
) -> dict:
    """KS check of the binned collapsed rate curve against a log-Gumbel fit.

    The mean-scaled rates are binned on ``n_points`` logarithmic intervals
    covering their range; the curve's normalized density values, cumulated
    point by point in increasing order, form the empirical pattern that is
    compared with the model CDF at the bin boundaries. Returns the deviation
    D together with the small-sample critical value at ``significance``.
    """
    r = finite_samples(scaled_rates, "rates")
    if np.any(r <= 0):
        raise ValidationError("rates must be strictly positive")
    check_log_base(log_base)
    if n_points < 2:
        raise ValidationError(f"need at least 2 curve points, got {n_points}")
    lo, hi = float(r.min()), float(r.max())
    if not hi > lo:
        raise ValidationError("degenerate sample: all rates equal")
    edges = np.logspace(math.log10(lo), math.log10(hi), n_points + 1)
    densities = _binned_density(r, edges)
    pattern = np.cumsum(densities) / densities.sum()
    xs = np.log(edges[1:]) / math.log(log_base)
    model = np.minimum(np.asarray(gumbel_cdf(xs, params), dtype=float), 1.0)
    d = float(np.max(np.abs(pattern - model)))
    critical = ks_critical_value(n_points, significance)
    return {
        "D": d,
        "n": n_points,
        "significance": significance,
        "critical": critical,
        "pass": bool(d < critical),
    }
