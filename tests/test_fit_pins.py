"""Fit results pinned to the last bit on the inputs of the ``fit_large`` benchmark.

The benchmark checks its fits only against tolerances and against its own
first pass, so a change that moved a fit by one ulp would pass it. These are
``float.hex`` values of ``zipf_fit``, auto-``x_min`` ``pareto_tail_fit`` and
MLE ``gumbel_fit`` recorded before the fit paths were vectorised, on the
benchmark's generators (Pareto gamma 2.43, x_min 1; log-Gumbel a -0.55,
b 0.80; seed 20001000 + n). The least-squares ``gumbel_fit`` values were
recorded when its solver moved into the package, which made the result
independent of the scipy version.
"""

import numpy as np
import pytest

from citemetrics import distfit, rankstats, synthgen
from citemetrics.model import Basis, Discipline, FitMethod, Measure

SEED = 20001000
LABEL = rankstats.SeriesLabel(Discipline.SCI, Basis.CITATIONS, 2000, Measure.CITATIONS)

PINS = {
    1_000: {
        "zipf": ({"b": "0x1.5489c074d365bp-1", "A": "0x1.8feed02f4e982p+6"},
                 {"b": "0x1.46ec164ec3266p-11", "A": "0x1.806b7226d27aep-2"}),
        "pareto": ({"gamma": "0x1.40fcf3b3c9c23p+1", "x_min": "0x1.41bb9eedb68bcp+0"},
                   {"gamma": "0x1.cbfbf098a81c8p-5", "x_min": "0x0.0p+0"}),
        "mle": ({"a": "-0x1.19a60ceefe4f6p-1", "b": "0x1.9dd61694ba387p-1",
                 "log_base": "0x1.5bf0a8b145769p+1"},
                {"a": "0x1.b8f06e25d2837p-6", "b": "0x1.4684100d11009p-6",
                 "log_base": "0x0.0p+0"}),
        "lsq": ({"a": "-0x1.27375af03954bp-1", "b": "0x1.b0c384a8dacd3p-1",
                 "log_base": "0x1.5bf0a8b145769p+1"},
                {"a": "0x0.0p+0", "b": "0x0.0p+0", "log_base": "0x0.0p+0"}),
    },
    100_000: {
        "zipf": ({"b": "0x1.6687b48ec6f74p-1", "A": "0x1.8bb47368f4d6cp+11"},
                 {"b": "0x1.0db504f9c5a12p-16", "A": "0x1.132c48491436ap-1"}),
        "pareto": ({"gamma": "0x1.36fc7be387f59p+1", "x_min": "0x1.4229260b313ffp+0"},
                   {"gamma": "0x1.5d8aba3845f1ep-8", "x_min": "0x0.0p+0"}),
        "mle": ({"a": "-0x1.1a0f0ec07f110p-1", "b": "0x1.97beb20abc9b2p-1",
                 "log_base": "0x1.5bf0a8b145769p+1"},
                {"a": "0x1.5b8f20c69d3b7p-9", "b": "0x1.015e2a12f4540p-9",
                 "log_base": "0x0.0p+0"}),
        "lsq": ({"a": "-0x1.142179f0e5393p-1", "b": "0x1.a95d230134718p-1",
                 "log_base": "0x1.5bf0a8b145769p+1"},
                {"a": "0x0.0p+0", "b": "0x0.0p+0", "log_base": "0x0.0p+0"}),
    },
    # recorded before the fit kernels reused their buffers
    1_000_000: {
        "zipf": ({"b": "0x1.645c4c755d210p-1", "A": "0x1.d5c3426db8a18p+13"},
                 {"b": "0x1.1b6ee15a6ae2ap-19", "A": "0x1.a1dadd0a7c3bbp-2"}),
        "pareto": ({"gamma": "0x1.3757885664546p+1", "x_min": "0x1.0000115b632b4p+0"},
                   {"gamma": "0x1.777bf87fc754cp-10", "x_min": "0x0.0p+0"}),
        "mle": ({"a": "-0x1.198a619d4c11cp-1", "b": "0x1.995db69a8919dp-1",
                 "log_base": "0x1.5bf0a8b145769p+1"},
                {"a": "0x1.b96118cd95b0cp-11", "b": "0x1.46d77e105beddp-11",
                 "log_base": "0x0.0p+0"}),
        "lsq": ({"a": "-0x1.0b241c37af7a7p-1", "b": "0x1.c29bc9cfa5d79p-1",
                 "log_base": "0x1.5bf0a8b145769p+1"},
                {"a": "0x0.0p+0", "b": "0x0.0p+0", "log_base": "0x0.0p+0"}),
    },
}


def hexed(fit):
    return ({k: v.hex() for k, v in fit.params.items()},
            {k: v.hex() for k, v in fit.stderr.items()})


@pytest.mark.parametrize("n", sorted(PINS))
def test_fits_match_pinned_bits(n):
    pareto = synthgen.sample_pareto(2.43, 1.0, n, SEED + n)
    rates = synthgen.sample_gumbel_log(-0.55, 0.80, n, SEED + n)
    series = rankstats.RankSeries(
        tuple(range(1, n + 1)), tuple(np.sort(pareto)[::-1].tolist()), LABEL
    )
    _, mle = distfit.gumbel_fit(rates, method=FitMethod.MAXIMUM_LIKELIHOOD)
    _, lsq = distfit.gumbel_fit(rates, method=FitMethod.LOG_LOG_LEAST_SQUARES)
    got = {
        "zipf": hexed(rankstats.zipf_fit(series)),
        "pareto": hexed(distfit.pareto_tail_fit(pareto)),
        "mle": hexed(mle),
        "lsq": hexed(lsq),
    }
    assert got == PINS[n]
