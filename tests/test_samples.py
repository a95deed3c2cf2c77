"""Every entry point that takes a caller's sample reads it through
``model.float_sample``: what is no 1-d sequence of real numbers is a
ValidationError that names the input or the item at fault."""

import struct
import warnings

import numpy as np
import pytest

from citemetrics.correlate import binned_trend, pearson
from citemetrics.distfit import (
    GumbelParams, empirical_pdf, gumbel_curve_ks, gumbel_fit, pareto_tail_fit,
)
from citemetrics.errors import ValidationError
from citemetrics.model import Basis, Discipline, Measure, float_sample
from citemetrics.rankstats import RankSeries, SeriesLabel

LABEL = SeriesLabel(Discipline.SCI, Basis.CITATIONS, 2000, Measure.RATE)
VALID = [0.5 + (k * 0.37) % 3 for k in range(60)]


def ranked(values):
    n = len(values) if hasattr(values, "__len__") else 1
    return RankSeries(tuple(range(1, n + 1)), values, LABEL)


# Each entry point with the sample under test in one argument and valid data elsewhere.
ENTRY_POINTS = {
    "RankSeries": ranked,
    "empirical_pdf": empirical_pdf,
    "pareto_tail_fit": lambda x: pareto_tail_fit(x, min_tail=5),
    "gumbel_fit": gumbel_fit,
    "gumbel_curve_ks": lambda x: gumbel_curve_ks(x, GumbelParams(0.0, 0.5), 12),
    "pearson-xs": lambda x: pearson(x, VALID[::-1]),
    "pearson-ys": lambda y: pearson(VALID[::-1], y),
    "binned_trend-xs": lambda x: binned_trend(x, VALID[::-1]),
    "binned_trend-ys": lambda y: binned_trend(VALID[::-1], y),
}


def with_item(item):
    return VALID[:3] + [item] + VALID[4:]


BAD_SAMPLES = {
    "str_item": with_item("2.5"),
    "bytes_item": with_item(b"2.5"),
    "whole_str": "1.52.53.5",
    "whole_bytes": struct.pack("4d", 1.0, 2.0, 3.0, 4.0),
    "dict": {v: v for v in VALID},
    "2d_array": np.array(VALID).reshape(-1, 2),
    "bare_float": 1.5,
    "complex_item": with_item(np.complex128(1 + 2j)),
    "complex_array": np.array(with_item(1 + 2j)),
}
CONVERTER_FAULT = r"must be (a 1-d sequence of numbers|real numbers|positive and finite), got "


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_the_valid_sample_is_accepted(entry):
    ENTRY_POINTS[entry](VALID)
    ENTRY_POINTS[entry](np.array(VALID))


@pytest.mark.parametrize("bad", BAD_SAMPLES)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_what_is_no_sample_is_a_validation_error(entry, bad):
    with pytest.raises(ValidationError, match=CONVERTER_FAULT):
        ENTRY_POINTS[entry](BAD_SAMPLES[bad])


def test_a_float64_array_is_returned_uncopied_and_others_convert():
    x = np.array(VALID)
    assert float_sample(x, "x") is x
    for values in (VALID, tuple(VALID), np.array(VALID, dtype=np.float32), range(3),
                   np.array([True, False]), np.array([1, 2], dtype=np.uint64),
                   np.array(VALID, dtype=object)):
        got = float_sample(values, "x")
        assert got.dtype == np.float64 and got.tolist() == [float(v) for v in values]


def test_nan_and_inf_pass_and_the_first_bad_item_is_named():
    assert float_sample([np.nan, np.inf, -np.inf], "x").tolist()[1:] == [np.inf, -np.inf]
    with pytest.raises(ValidationError, match=r"^x must be real numbers, got \[2.0\]$"):
        float_sample([1.0, [2.0], "3"], "x")
    with pytest.raises(ValidationError, match="^x must be real numbers, got an integer past"):
        float_sample([1.0, 10**400], "x")


def test_a_complex_item_is_named_whatever_the_warning_filters():
    """numpy reads a complex item as its real part and only warns; ignoring
    that warning must not let the imaginary part go unnoticed."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for values in ([np.complex128(1 + 2j)], np.array([1 + 2j, 3 + 0j]), [np.complex64(3)]):
            with pytest.raises(ValidationError, match=r"^x must be real numbers, got np\.complex"):
                float_sample(values, "x")
