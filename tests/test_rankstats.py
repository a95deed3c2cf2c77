import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citemetrics.errors import ValidationError
from citemetrics.model import Basis, Discipline, JournalYearRecord, build_ranked_set
from citemetrics.rankstats import (
    Measure,
    RankSeries,
    SeriesLabel,
    rank_scatter,
    rank_series,
    scale_by_mean,
    set_overlap,
    write_series_csv,
    zipf_fit,
)

LABEL = SeriesLabel(Discipline.SCI, Basis.CITATIONS, 2000, Measure.RATE)
BASIS_LABEL = SeriesLabel(Discipline.SCI, Basis.CITATIONS, 2000, Measure.CITATIONS)


def series(values, label=LABEL):
    return RankSeries(tuple(range(1, len(values) + 1)), tuple(values), label)


def make_set(values, basis=Basis.CITATIONS, year=2000):
    records = [
        JournalYearRecord(f"J{i:04d}", year, int(v), float(v) / 10.0, 10)
        for i, v in enumerate(values)
    ]
    return build_ranked_set(records, Discipline.SCI, basis, year)


class TestRankSeries:
    def test_fields_are_read_only_arrays(self):
        s = RankSeries((1, 2, 4), (3, 2.5, 1.0), LABEL)
        assert s.ranks.dtype == np.int64 and s.values.dtype == np.float64
        assert s.ranks.tolist() == [1, 2, 4] and s.values.tolist() == [3.0, 2.5, 1.0]
        for field in (s.ranks, s.values):
            with pytest.raises(ValueError, match="read-only"):
                field[0] = 5

    def test_array_arguments_are_copied(self):
        ranks, values = np.array([1, 2, 3]), np.array([3.0, 2.0, 1.0])
        s = RankSeries(ranks, values, LABEL)
        ranks[0], values[0] = 7, 9.0
        assert s.ranks.tolist() == [1, 2, 3] and s.values.tolist() == [3.0, 2.0, 1.0]

    def test_equality_compares_label_and_both_arrays(self):
        s = RankSeries((1, 2), (2.0, 1.0), LABEL)
        same = RankSeries(np.array([1, 2]), np.array([2.0, 1.0]), LABEL)
        assert s == same and hash(s) == hash(same)
        assert s != RankSeries((1, 3), (2.0, 1.0), LABEL)
        assert s != RankSeries((1, 2), (2.0, 0.5), LABEL)
        assert s != RankSeries((1, 2), (2.0, 1.0), BASIS_LABEL)
        assert s != (s.ranks, s.values)
        assert len({s, same}) == 1

    def test_basis_measure_must_be_non_increasing(self):
        with pytest.raises(ValidationError, match="non-increasing"):
            RankSeries((1, 2), (1.0, 2.0), BASIS_LABEL)

    def test_other_measures_may_fluctuate(self):
        RankSeries((1, 2, 5), (1.0, 2.0, 1.5), LABEL)

    def test_rejects_non_positive_values(self):
        with pytest.raises(ValidationError):
            series([1.0, 0.0])

    @pytest.mark.parametrize(
        "bad, shown",
        [("x", "'x'"), (b"2", "b'2'"), (None, "None"), ([2.0], "[2.0]"), ({}, "{}"),
         (10**5000, "an integer past the float range")],
        ids=["str", "bytes", "none", "list", "dict", "huge_int"],
    )
    def test_rejects_non_numbers_naming_them(self, bad, shown):
        with pytest.raises(ValidationError) as caught:
            RankSeries((1, 2, 3), (2.0, bad, 1.0), LABEL)
        assert str(caught.value) == f"series values must be positive and finite, got {shown}"

    def test_rejects_unsorted_ranks(self):
        with pytest.raises(ValidationError):
            RankSeries((2, 1), (2.0, 1.0), LABEL)

    def test_rejects_ragged_ranks(self):
        with pytest.raises(ValidationError, match="ranks must be strictly increasing"):
            RankSeries(((1, 2), (3,)), (2.0, 1.0), LABEL)

    def test_rate_series_skips_zero_article_journals(self):
        records = [
            JournalYearRecord("a", 2000, 100, 1.0, 10),
            JournalYearRecord("b", 2000, 90, 1.0, 0),
            JournalYearRecord("c", 2000, 80, 1.0, 4),
        ]
        ranked = build_ranked_set(records, Discipline.SCI, Basis.CITATIONS, 2000)
        s = rank_series(ranked, Measure.RATE)
        assert s.ranks.tolist() == [1, 3]


# --- which rank inputs RankSeries accepts ------------------------------------------

INT64_MAX = 2**63 - 1
INT_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


def int_typed(value):
    """``value`` as a Python int, as each numpy integer type that holds it, and
    (0 and 1) as a Python or numpy bool."""
    forms = [value] + [t(value) for t in INT_DTYPES if np.iinfo(t).min <= value <= np.iinfo(t).max]
    if value in (0, 1):
        forms += [bool(value), np.bool_(value)]
    return st.sampled_from(forms)


edge_values = st.sampled_from([-2, -1, 0, INT64_MAX, 2**63, 2**64 - 1, 2**64, -(2**63) - 1])
increasing = st.tuples(
    st.lists(st.integers(1, 40), min_size=1, max_size=8, unique=True),
    st.just([]) | st.just([]) | edge_values.map(lambda v: [v]),
).map(lambda parts: sorted(set(parts[0] + parts[1])))
not_ints = st.sampled_from([1.0, 2.5, np.float64(3.0), np.float32(2.0), "3", b"4", None, (1, 2), (3,)])
rank_sequences = (
    increasing.flatmap(lambda vs: st.tuples(*map(int_typed, vs)))
    | st.lists((st.integers(-2, 40) | edge_values).flatmap(int_typed) | not_ints,
               min_size=1, max_size=6).map(tuple)
).flatmap(lambda t: st.sampled_from([t, list(t)]))


@st.composite
def rank_arrays(draw):
    """A 1-D array of one integer or bool dtype, mostly increasing, or an array
    of floats, strings or two dimensions."""
    dtype = draw(st.sampled_from(INT_DTYPES + (np.bool_,)))
    lo, hi = (0, 1) if dtype is np.bool_ else map(int, (np.iinfo(dtype).min, np.iinfo(dtype).max))
    in_range = st.integers(max(lo, 1), min(hi, 40)) | st.sampled_from(
        [v for v in (lo, -1, 0, hi, INT64_MAX, INT64_MAX + 1) if lo <= v <= hi])
    values = draw(st.lists(in_range, min_size=1, max_size=8))
    if draw(st.integers(0, 3)):
        values = sorted(set(values))
    shape = draw(st.sampled_from(["1-d"] * 5 + ["float", "str", "2-d"]))
    if shape == "float":
        return np.array(values, dtype=float)
    if shape == "str":
        return np.array(values).astype(str)
    return np.array([values] * 2 if shape == "2-d" else values, dtype=dtype)


def expected_ranks(ranks):
    """The ranks RankSeries stores, as ints, or None where it rejects them:
    a 1-D sequence of Python or numpy integers (bools count as 0 and 1),
    strictly increasing from at least 1 up to the int64 maximum. numpy reads a
    uint64 scalar beside a signed integer as float64, so those are rejected."""
    if isinstance(ranks, np.ndarray):
        if ranks.dtype.kind not in "biu" or ranks.ndim != 1:
            return None
        items = ranks.tolist()
    else:
        items = list(ranks)
        if not all(isinstance(k, (int, np.integer, np.bool_)) for k in items):
            return None
        signed = any(type(k) is int or isinstance(k, np.signedinteger) for k in items)
        if signed and any(isinstance(k, np.uint64) for k in items):
            return None
    items = [int(k) for k in items]
    if items[0] >= 1 and items[-1] <= INT64_MAX and all(a < b for a, b in zip(items, items[1:])):
        return items
    return None


@settings(max_examples=400, deadline=None)
@given(ranks=rank_sequences | rank_arrays())
@example(ranks=(np.uint64(1), np.uint64(2**63 - 1)))
@example(ranks=(np.uint64(1), 2))
@example(ranks=(True, 2, np.int8(3)))
@example(ranks=np.array([1, 2**63], dtype=np.uint64))
def test_rank_inputs_accepted_and_stored(ranks):
    """Pins which rank inputs RankSeries accepts today and the int64 array it
    stores; a constructor that reads ranks another way must keep both."""
    want = expected_ranks(ranks)
    values = (1.0,) * len(ranks)
    if want is None:
        with pytest.raises(ValidationError, match="^ranks must be strictly increasing integers >= 1$"):
            RankSeries(ranks, values, LABEL)
        return
    s = RankSeries(ranks, values, LABEL)
    assert s.ranks.dtype == np.int64 and s.ranks.tolist() == want
    assert not s.ranks.flags.writeable
    assert not np.shares_memory(s.ranks, ranks)


class TestScaleByMean:
    def test_constant_series(self):
        assert scale_by_mean(series([2.0, 2.0, 2.0])).values.tolist() == [1.0, 1.0, 1.0]

    def test_two_point_series(self):
        assert scale_by_mean(series([3.0, 1.0])).values.tolist() == [1.5, 0.5]

    def test_output_mean_is_one(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            vals = rng.uniform(0.1, 100.0, size=int(rng.integers(2, 400)))
            scaled = scale_by_mean(series(list(vals)))
            assert abs(np.mean(scaled.values) - 1.0) < 1e-12

    def test_scaling_collapse_is_invariant_under_positive_factor(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            vals = rng.uniform(0.1, 50.0, size=int(rng.integers(2, 300)))
            c = float(rng.uniform(1e-3, 1e3))
            base = scale_by_mean(series(list(vals)))
            scaled = scale_by_mean(series(list(c * vals)))
            assert np.allclose(base.values, scaled.values, rtol=0, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(23)
        vals = list(rng.uniform(0.5, 10.0, 100))
        once = scale_by_mean(series(vals))
        twice = scale_by_mean(once)
        assert np.allclose(once.values, twice.values, rtol=0, atol=1e-12)


class TestZipfFit:
    def test_recovers_exact_exponent(self):
        ks = np.arange(1, 1001)
        values = 100.0 * ks.astype(float) ** -0.5
        s = RankSeries(tuple(ks.tolist()), tuple(values.tolist()), LABEL)
        fit = zipf_fit(s, k_min=10)
        assert abs(fit.params["b"] - 0.5) < 1e-9
        assert abs(fit.params["A"] - 100.0) < 1e-6
        assert fit.stderr["b"] < 1e-9

    def test_constant_series_has_zero_exponent(self):
        s = series([7.0] * 100)
        fit = zipf_fit(s)
        assert abs(fit.params["b"]) < 1e-9
        assert fit.stderr["b"] < 1e-9

    def test_exponent_invariant_under_scaling(self):
        rng = np.random.default_rng(24)
        ks = np.arange(1, 501)
        values = 10.0 * ks.astype(float) ** -0.8 * np.exp(rng.normal(0, 0.05, ks.size))
        sorted_vals = np.sort(values)[::-1]
        s1 = RankSeries(tuple(ks.tolist()), tuple(sorted_vals.tolist()), BASIS_LABEL)
        s2 = RankSeries(tuple(ks.tolist()), tuple((13.7 * sorted_vals).tolist()), BASIS_LABEL)
        f1, f2 = zipf_fit(s1), zipf_fit(s2)
        assert abs(f1.params["b"] - f2.params["b"]) < 1e-9
        assert abs(f2.params["A"] / f1.params["A"] - 13.7) < 1e-6

    def test_insufficient_points_rejected(self):
        s = series(list(np.linspace(10, 1, 15)))
        with pytest.raises(ValidationError, match="at least 10"):
            zipf_fit(s, k_min=10)

    def test_fit_range_reported(self):
        ks = np.arange(1, 101)
        values = 50.0 * ks.astype(float) ** -0.3
        s = RankSeries(tuple(ks.tolist()), tuple(values.tolist()), LABEL)
        fit = zipf_fit(s, k_min=10)
        assert fit.fit_range == (11.0, 100.0)


class TestSetOverlap:
    def test_identical_sets(self):
        a = make_set(range(100, 50, -1))
        common, count = set_overlap(a, a)
        assert count == len(a)
        assert list(common) == sorted(a.table.journal_id)

    def test_disjoint_sets(self):
        a = make_set(range(100, 90, -1))
        records = [
            JournalYearRecord(f"K{i}", 2000, 10 + i, 1.0, 5) for i in range(10)
        ]
        b = build_ranked_set(records, Discipline.SCI, Basis.CITATIONS, 2000)
        _, count = set_overlap(a, b)
        assert count == 0


class TestRankScatter:
    def test_identical_sets_give_diagonal(self):
        a = make_set(range(200, 150, -1))
        pairs = rank_scatter(a, a)
        assert all(ra == rb for _, ra, rb in pairs)

    def test_reversed_ranking_gives_antidiagonal(self):
        n = 20
        ids = [f"J{i:02d}" for i in range(n)]
        up = [JournalYearRecord(j, 2000, 100 + i, 1.0, 5) for i, j in enumerate(ids)]
        down = [JournalYearRecord(j, 2000, 100 - i, 1.0, 5) for i, j in enumerate(ids)]
        a = build_ranked_set(up, Discipline.SCI, Basis.CITATIONS, 2000)
        b = build_ranked_set(down, Discipline.SCI, Basis.CITATIONS, 2000)
        for _, ra, rb in rank_scatter(a, b):
            assert rb == n + 1 - ra

    def test_agrees_with_set_overlap(self):
        a = make_set(range(300, 200, -1))
        b = make_set(range(250, 150, -1))
        common, count = set_overlap(a, b)
        pairs = rank_scatter(a, b)
        assert len(pairs) == count
        assert tuple(jid for jid, _, _ in pairs) == common


class TestSeriesCsv:
    def test_writes_label_and_columns(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series_csv(path, "sci:citations:2000:n", [1, 2], [0.5, 0.25])
        assert path.read_text() == "# label: sci:citations:2000:n\nx,y\n1,0.5\n2,0.25\n"

    def test_rejects_mismatched_columns(self, tmp_path):
        with pytest.raises(ValidationError):
            write_series_csv(tmp_path / "s.csv", "label", [1, 2], [1.0])
