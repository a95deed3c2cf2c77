import codecs
import csv
import json
import os
import re
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from per_row_csv import per_row_parse_csv
from per_row_wording import reworded
from rows import Row, rows_of

from citemetrics import ingest, model
from citemetrics.errors import ValidationError, WorkspaceError
from citemetrics.ingest import (
    COLUMNS,
    load_dataset,
    parse_csv,
    read_manifest,
    store_dataset,
    write_csv,
)
from citemetrics.model import (
    MAX_FLOAT_INT,
    Basis,
    Discipline,
    JournalTable,
    build_ranked_set,
)
from citemetrics.synthgen import build_fixture


def at_file(path, text):
    """A ``match`` pattern for a ``parse_csv`` fault: the file's path, then ``text``."""
    return f"^{re.escape(str(path))}: {text}"


def write_table(path, rows, header="journal_id,year,citations,impact_factor,articles"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def random_records(rng, n, year=2000):
    records = []
    for i in range(n):
        records.append(
            Row(
                journal_id=f"J{i:04d}",
                year=year,
                citations=int(rng.integers(0, 10**6)),
                impact_factor=float(np.round(rng.uniform(0, 60), 6)),
                articles=int(rng.integers(0, 5000)),
            )
        )
    return records


class TestParseCsv:
    def test_parses_plain_row(self, tmp_path):
        f = tmp_path / "t.csv"
        write_table(f, ["PHYS REV B,2000,154983,3.065,5410"])
        (record,) = rows_of(parse_csv(f))
        assert record == ("PHYS REV B", 2000, 154983, 3.065, 5410)

    def test_trims_whitespace(self, tmp_path):
        f = tmp_path / "t.csv"
        write_table(f, [" PHYS REV B , 2000 , 10 , 1.5 , 3 "])
        (record,) = rows_of(parse_csv(f))
        assert record.journal_id == "PHYS REV B"
        assert record.articles == 3

    def test_negative_impact_factor_reports_line(self, tmp_path):
        f = tmp_path / "t.csv"
        write_table(f, ["A,2000,1,1.0,1", "B,2000,1,-1,1"])
        with pytest.raises(ValidationError, match="line 3"):
            parse_csv(f)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_impact_factor_reports_line(self, tmp_path, text):
        f = tmp_path / "t.csv"
        write_table(f, ["A,2000,1,1.0,1", f"B,2000,1,{text},1"])
        with pytest.raises(ValidationError, match="line 3.*impact_factor.*finite"):
            parse_csv(f)

    def test_non_numeric_citations_reports_line(self, tmp_path):
        f = tmp_path / "t.csv"
        write_table(f, ["A,2000,many,1.0,1"])
        with pytest.raises(ValidationError, match="line 2.*citations"):
            parse_csv(f)

    @pytest.mark.parametrize("column", ["year", "citations", "articles"])
    def test_integer_beyond_float_range_reports_line(self, tmp_path, column):
        cells = {"year": "2000", "citations": "1", "articles": "1"}
        cells[column] = "9" * 400
        f = tmp_path / "t.csv"
        row = f"B,{cells['year']},{cells['citations']},1.0,{cells['articles']}"
        write_table(f, ["A,2000,1,1.0,1", row])
        with pytest.raises(ValidationError, match=f"line 3: column '{column}' exceeds the float range"):
            parse_csv(f)

    def test_oversized_field_is_a_validation_error_with_line(self, tmp_path):
        f = tmp_path / "t.csv"
        write_table(f, ["A,2000,1,1.0,1", "B,2000,1,1.0," + "1" * 200_000])
        with pytest.raises(ValidationError, match="line 3: field larger than field limit"):
            parse_csv(f)
        write_table(f, ["A,2000,x,1.0,1", "B,2000,1,1.0," + "1" * 200_000])
        with pytest.raises(ValidationError, match="line 2: column 'citations'"):
            parse_csv(f)

    def test_oversized_header_field_reports_line_1(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("journal_id," + "x" * (csv.field_size_limit() + 1) + "\n")
        too_large = at_file(f, "line 1: field larger than field limit")
        with pytest.raises(ValidationError, match=too_large):
            parse_csv(f)

    def test_error_line_counts_file_lines_after_a_quoted_line_break(self, tmp_path):
        f = tmp_path / "t.csv"
        write_table(f, ['"A\nB",2000,1,1.0,1', "C,2000,x,1.0,1"])
        with pytest.raises(ValidationError, match="line 4: column 'citations'"):
            parse_csv(f)
        write_table(f, ['"A\nB",2000,1,1.0,1', " ,2000,1,1.0,1"])
        blank_id = at_file(f, "line 4: journal_id must be a non-empty")
        with pytest.raises(ValidationError, match=blank_id):
            parse_csv(f)
        write_table(f, ['"A\nB",2000,1,1.0,1', "C,2000,1,1.0," + "1" * 200_000])
        with pytest.raises(ValidationError, match="line 4: field larger than field limit"):
            parse_csv(f)

    def test_an_earlier_bad_row_is_reported_before_a_bad_byte(self, tmp_path):
        f = tmp_path / "t.csv"
        rows = b'"A\nB",2000,1,1.0,1\nC,2000,x,1.0,3\n\xff,2000,1,1.0,1\n'
        f.write_bytes(b"journal_id,year,citations,impact_factor,articles\n" + rows)
        bad_citations = at_file(f, "line 4: column 'citations' must be an integer")
        with pytest.raises(ValidationError, match=bad_citations):
            parse_csv(f)
        f.write_bytes(f.read_bytes().replace(b",x,", b",1,"))
        bad_byte = at_file(f, "line 5: 'utf-8' codec can't decode byte 0xff")
        with pytest.raises(ValidationError, match=bad_byte):
            parse_csv(f)
        f.write_bytes(b"journal_id,\xff\n" + rows)
        with pytest.raises(ValidationError, match=at_file(f, "line 1: 'utf-8' codec")):
            parse_csv(f)

    def test_missing_column_named(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("journal_id,year,citations,impact_factor\nA,2000,1,1.0\n")
        with pytest.raises(ValidationError, match="articles"):
            parse_csv(f)

    def test_extra_column_warns_but_parses(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text(
            "journal_id,year,citations,impact_factor,articles,issn\nA,2000,1,1.0,1,123\n"
        )
        with pytest.warns(UserWarning, match="issn"):
            records = parse_csv(f)
        assert len(records) == 1

    def test_missing_file(self, tmp_path):
        absent = tmp_path / "absent.csv"
        with pytest.raises(ValidationError, match=at_file(absent, "No such file or directory$")):
            parse_csv(absent)

    def test_empty_file_needs_header(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("")
        with pytest.raises(ValidationError, match="header"):
            parse_csv(f)

    def test_byte_order_mark_is_dropped_and_lines_keep_their_numbers(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_table(plain, ["A,2000,5,1.5,3", "B,2000,4,1.0,2"])
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert parse_csv(marked) == parse_csv(plain)
        write_table(marked, ["A,2000,5,1.5,3", "B,2000,x,1.0,2"])
        marked.write_bytes(codecs.BOM_UTF8 + marked.read_bytes())
        bad_citations = at_file(marked, "line 3: column 'citations' must be an integer")
        with pytest.raises(ValidationError, match=bad_citations):
            parse_csv(marked)

    def test_roundtrip_random_tables(self, tmp_path):
        rng = np.random.default_rng(31)
        for trial in range(5):
            records = random_records(rng, int(rng.integers(1, 200)))
            f = tmp_path / f"round{trial}.csv"
            write_csv(f, JournalTable.from_rows(records))
            assert rows_of(parse_csv(f)) == records

    def test_write_csv_of_a_list_of_rows_is_a_validation_error_naming_the_table(self, tmp_path):
        f = tmp_path / "rows.csv"
        with pytest.raises(ValidationError, match="^write_csv needs a JournalTable, got list$"):
            write_csv(f, [Row("a", 2000, 1, 1.0, 1)])
        assert not f.exists()


# Valid, malformed, out-of-range and whitespace-padded cells, including
# non-ASCII digits and whitespace that int() and float() also accept.
CELLS = [
    "0", "7", " 12 ", "2000", "-1", "1_000", "1.5", "-0.0", "0.0", "3e2", "nan", "inf",
    "-inf", "abc", "", "  ", "\u0661\u0662", "\u2003 5\u2003", "\x1c4", "J\u00e9", "a\x00",
    '"7"', '" 8,9"', "9" * 400, "1e400",
]


@st.composite
def csv_rows(draw, width):
    """A valid row with up to two cells replaced, sometimes cut short."""
    row = ["J1", "2000", "5", "1.5", "3", "123"][:width]
    for _ in range(draw(st.integers(0, 2))):
        row[draw(st.integers(0, width - 1))] = draw(st.sampled_from(CELLS))
    cut = draw(st.sampled_from([width, width, width, width - 1, 1, 0]))
    return row[:cut]


class TestParseRows:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), extra=st.booleans())
    def test_matches_per_row_dict_reference(self, tmp_path_factory, data, extra):
        header = list(COLUMNS) + (["issn"] if extra else [])
        rows = data.draw(st.lists(csv_rows(len(header)), max_size=5))
        lines = [",".join(header)] + [",".join(row) for row in rows]
        text = "\n".join(lines) + "\n"
        f = tmp_path_factory.mktemp("cells") / "t.csv"
        f.write_text(text, encoding="utf-8")

        def outcome(parse, arg):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    return ("ok", parse(arg))
            except ValidationError as exc:
                return ("error", str(exc))

        want = outcome(per_row_parse_csv, f)
        # the frozen reference names the file in its header faults only
        if want[0] == "error":
            message = f"{f}: {want[1]}" if want[1].startswith("line ") else want[1]
            want = ("error", reworded(message))
        assert outcome(lambda p: rows_of(parse_csv(p)), f) == want


# Cells that all convert, to values valid or not; ids blank, padded or odd.
int_texts = st.integers(-5, 10**25).map(str) | st.sampled_from(
    ["9" * 400, " 12 ", "1_000", "\u0661\u0662", "-0", "\x1c4"])
float_texts = st.floats().map(repr) | st.sampled_from(
    ["nan", "-inf", "1e400", " 1.5 ", "-0.0", "INF", "NaN", "-1e-320"])
id_texts = st.sampled_from(["J1", "", "  ", " J2 ", "\x1c", "a\x00"])


@settings(max_examples=300, deadline=None)
@given(row=st.tuples(id_texts, int_texts, int_texts, float_texts, int_texts))
def test_a_converted_row_is_worded_by_row_fault(tmp_path_factory, row):
    f = tmp_path_factory.mktemp("row") / "t.csv"
    write_table(f, [",".join(row)])
    journal_id, *cells = (cell.strip() for cell in row)
    values = [kind(cell) for kind, cell in zip((int, int, float, int), cells)]
    fault = model.row_fault(journal_id, *values)
    if fault is None:
        assert rows_of(parse_csv(f)) == [(journal_id, *values)]
    else:
        with pytest.raises(ValidationError) as err:
            parse_csv(f)
        assert str(err.value) == f"{f}: line 2: {fault}"


class TestFastPath:
    """A valid file is converted whole; the row checker runs only after a fault."""

    @pytest.fixture
    def checked(self, monkeypatch):
        rows = []
        real = ingest._check_row

        def counting(row, *args):
            rows.append(row)
            return real(row, *args)

        monkeypatch.setattr(ingest, "_check_row", counting)
        return rows

    def test_a_valid_fixture_file_skips_the_row_checker(self, tmp_path, checked):
        f = tmp_path / "fixture.csv"
        write_csv(f, build_fixture("sci_set_i", 2005).table)
        assert len(parse_csv(f)) == 1000
        assert checked == []

    @pytest.fixture
    def faults(self, monkeypatch):
        calls = []
        real = model.row_fault

        def counting(*row):
            calls.append(row)
            return real(*row)

        for module in (model, ingest):
            monkeypatch.setattr(module, "row_fault", counting)
        return calls

    def test_a_valid_file_or_table_never_calls_row_fault(self, tmp_path, faults):
        f = tmp_path / "fixture.csv"
        table = build_fixture("sci_set_i", 2005).table
        write_csv(f, table)
        assert len(parse_csv(f)) == 1000
        rows = zip(table.journal_id, table.year, table.citations, table.impact_factor,
                   table.articles)
        assert len(JournalTable.from_rows(rows)) == 1000
        assert faults == []
        bad = [("J", 2005, 1, 1.0, 1), ("K", 2005, -1, 1.0, 1), ("L", 2005, 1, 1.0, 1)]
        with pytest.raises(ValidationError, match="^'K': "):
            JournalTable.from_rows(bad)  # a faulty table is checked row by row to its fault
        assert faults == bad[:2]

    @pytest.mark.parametrize("k", [2, 500, 1001])
    def test_a_bad_row_stops_the_row_checker_at_its_line(self, tmp_path, checked, k):
        f = tmp_path / "fixture.csv"
        write_csv(f, build_fixture("sci_set_i", 2005).table)
        lines = f.read_bytes().split(b"\r\n")
        lines[k - 1] = b"BAD,2005,x,1.0,3"
        f.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ValidationError, match=at_file(f, f"line {k}: column 'citations'")):
            parse_csv(f)
        assert len(checked) == k - 1
        assert checked[-1][0] == "BAD"


class TestWorkspace:
    def make_set(self, rng, year=2000, basis=Basis.CITATIONS, n=50):
        records = JournalTable.from_rows(random_records(rng, n, year=year))
        return build_ranked_set(records, Discipline.SCI, basis, year)

    def test_store_then_load_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        ranked = self.make_set(rng)
        store_dataset(tmp_path, ranked)
        assert load_dataset(tmp_path, Discipline.SCI, Basis.CITATIONS, 2000) == ranked

    def test_double_store_rejected_without_overwrite(self, tmp_path):
        rng = np.random.default_rng(2)
        ranked = self.make_set(rng)
        store_dataset(tmp_path, ranked)
        with pytest.raises(WorkspaceError, match="already stored"):
            store_dataset(tmp_path, ranked)

    def test_overwrite_replaces(self, tmp_path):
        rng = np.random.default_rng(3)
        first = self.make_set(rng)
        second = self.make_set(rng)
        store_dataset(tmp_path, first)
        store_dataset(tmp_path, second, overwrite=True)
        assert load_dataset(tmp_path, Discipline.SCI, Basis.CITATIONS, 2000) == second
        assert len(read_manifest(tmp_path)) == 1

    def test_interrupted_overwrite_leaves_no_temporary_file_and_the_set_as_it_was(
        self, tmp_path, monkeypatch
    ):
        stored = self.make_set(np.random.default_rng(11))
        entry = store_dataset(tmp_path, stored)
        data_file, manifest = tmp_path / entry["source_path"], tmp_path / "manifest.json"
        before = data_file.read_bytes(), manifest.read_bytes()
        interrupt = KeyboardInterrupt()

        def interrupted(src, dst):
            raise interrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt) as caught:
            store_dataset(tmp_path, self.make_set(np.random.default_rng(12)), overwrite=True)
        monkeypatch.undo()
        assert caught.value is interrupt
        assert sorted(tmp_path.rglob("*.tmp")) == []
        assert (data_file.read_bytes(), manifest.read_bytes()) == before
        assert load_dataset(tmp_path, Discipline.SCI, Basis.CITATIONS, 2000) == stored

    def test_load_parses_the_bytes_it_digested_reading_the_file_once(self, tmp_path, monkeypatch):
        stored = self.make_set(np.random.default_rng(8))
        replacement = self.make_set(np.random.default_rng(9))
        entry = store_dataset(tmp_path, stored)
        data_file = tmp_path / entry["source_path"]
        reads = []
        real_open, real_parse = Path.open, ingest.parse_csv

        def counting_open(path, *args, **kwargs):
            if path == data_file:
                reads.append(path)
            return real_open(path, *args, **kwargs)

        def replace_then_parse(*args, **kwargs):
            # an `ingest --overwrite` of the same dataset lands between the reads
            write_csv(tmp_path / "new.csv", replacement.table)
            os.replace(tmp_path / "new.csv", data_file)
            return real_parse(*args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        monkeypatch.setattr(ingest, "parse_csv", replace_then_parse)
        loaded = load_dataset(tmp_path, Discipline.SCI, Basis.CITATIONS, 2000)
        assert loaded == stored
        assert len(reads) == 1

    def test_digest_detects_single_byte_corruption(self, tmp_path):
        rng = np.random.default_rng(4)
        ranked = self.make_set(rng)
        entry = store_dataset(tmp_path, ranked)
        data_file = tmp_path / entry["source_path"]
        blob = bytearray(data_file.read_bytes())
        flip = int(rng.integers(20, len(blob)))
        blob[flip] ^= 0x01
        data_file.write_bytes(bytes(blob))
        with pytest.raises(WorkspaceError, match="digest mismatch"):
            load_dataset(tmp_path, Discipline.SCI, Basis.CITATIONS, 2000)

    def test_missing_dataset_lists_available(self, tmp_path):
        rng = np.random.default_rng(5)
        store_dataset(tmp_path, self.make_set(rng, year=2001))
        with pytest.raises(WorkspaceError, match="sci:citations:2001"):
            load_dataset(tmp_path, Discipline.SCI, Basis.CITATIONS, 2000)

    def test_missing_data_file_is_workspace_error(self, tmp_path):
        entry = store_dataset(tmp_path, self.make_set(np.random.default_rng(10)))
        (tmp_path / entry["source_path"]).unlink()
        with pytest.raises(WorkspaceError, match="manifest references missing file"):
            load_dataset(tmp_path, Discipline.SCI, Basis.CITATIONS, 2000)

    def test_empty_workspace_message(self, tmp_path):
        with pytest.raises(WorkspaceError, match="empty"):
            load_dataset(tmp_path, Discipline.SCI, Basis.CITATIONS, 2000)

    def test_concurrent_stores_of_distinct_years(self, tmp_path):
        rng = np.random.default_rng(6)
        sets = [self.make_set(np.random.default_rng(100 + y), year=2000 + y) for y in range(8)]
        errors = []

        def store(ranked):
            try:
                store_dataset(tmp_path, ranked)
            except Exception as exc:  # noqa: BLE001 - collected for the assertion
                errors.append(exc)

        threads = [threading.Thread(target=store, args=(s,)) for s in sets]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        entries = read_manifest(tmp_path)
        assert len(entries) == 8
        for s in sets:
            assert load_dataset(tmp_path, s.discipline, s.basis, s.year) == s

    def test_manifest_is_valid_json(self, tmp_path):
        rng = np.random.default_rng(7)
        store_dataset(tmp_path, self.make_set(rng))
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert "entries" in payload

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {"entries": {}},
            {"entries": ["sci_citations_2000.csv"]},
            {"entries": [{"discipline": "sci", "basis": "citations", "year": 2000}]},
            {"entries": [{"discipline": "art", "basis": "citations", "year": 2000,
                          "source_path": "data/x.csv", "content_digest": "sha256:0"}]},
            {"entries": [{"discipline": "sci", "basis": "citations", "year": "2000",
                          "source_path": "data/x.csv", "content_digest": "sha256:0"}]},
            {"entries": [{"discipline": "sci", "basis": "citations", "year": 2000, "cap": "x",
                          "source_path": "data/x.csv", "content_digest": "sha256:0"}]},
            {"entries": [{"discipline": "sci", "basis": "citations", "year": 2000,
                          "source_path": "/data/x.csv", "content_digest": "sha256:0"}]},
            {"entries": [{"discipline": "sci", "basis": "citations", "year": 2000,
                          "source_path": "data/../../x.csv", "content_digest": "sha256:0"}]},
        ],
    )
    def test_malformed_manifest_is_workspace_error(self, tmp_path, payload):
        (tmp_path / "manifest.json").write_text(json.dumps(payload))
        with pytest.raises(WorkspaceError, match="manifest.json"):
            read_manifest(tmp_path)

    def test_integer_past_digit_limit_is_workspace_error(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"entries": [{"year": %s}]}' % ("9" * 5000))
        with pytest.raises(WorkspaceError, match="manifest.json: Exceeds the limit"):
            read_manifest(tmp_path)

    def test_manifest_after_a_byte_order_mark_is_read(self, tmp_path):
        ranked = self.make_set(np.random.default_rng(7))
        store_dataset(tmp_path, ranked)
        manifest = tmp_path / "manifest.json"
        entries = read_manifest(tmp_path)
        manifest.write_bytes(codecs.BOM_UTF8 + manifest.read_bytes())
        assert read_manifest(tmp_path) == entries
        assert load_dataset(tmp_path, ranked.discipline, ranked.basis, ranked.year) == ranked

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'{"entries": [\xff]}', "'utf-8' codec can't decode byte 0xff"),
            (b'{"entries": []', "Expecting ',' delimiter"),
            (b"[" * 200_000 + b"]" * 200_000, "maximum recursion depth exceeded"),
        ],
        ids=["not_utf8", "not_json", "deep"],
    )
    def test_unreadable_manifest_is_workspace_error_naming_it(self, tmp_path, data, message):
        (tmp_path / "manifest.json").write_bytes(data)
        with pytest.raises(WorkspaceError) as caught:
            read_manifest(tmp_path)
        assert str(caught.value).startswith(f"{tmp_path / 'manifest.json'}: {message}")


# --- a set the model accepts loads back -------------------------------------

# Ids that differ only by trailing NULs, non-ASCII ids, and ids the CSV must
# quote.
ROUND_TRIP_IDS = [
    "a", "a\x00", "a\x00\x00", "\x00", "J0001", "J0001\x00", "\u00e9", "e\u0301",
    "\u03a9", "\u65e5\u672c", "\u00df", 'q"x', "c,d", "l\r\nm",
]
# Ids with leading or trailing whitespace, which parse_csv would trim: the model
# rejects them.
PADDED_IDS = [" ", " a", "a ", "a\n", "\x1c4", "\u3000b", "l\r\n"]
# Values a year or count must not be: a float, a negative, a string, bools and
# a numpy integer. The model rejects them, so they must never reach a workspace.
NON_INTS = [2000.0, -5, "2000", True, False, np.int64(2000)]
finite = st.floats(0, allow_nan=False, allow_infinity=False)


@st.composite
def stored_sets(draw):
    # A year of a few hundred digits would make the data file's name too long.
    year = draw(st.just(2000) | st.integers(0, 10**6) | st.sampled_from(NON_INTS))
    set_year = draw(st.just(year) | st.sampled_from(NON_INTS))
    ids = st.sampled_from(ROUND_TRIP_IDS + PADDED_IDS) | st.text(min_size=1, max_size=4)
    counts = st.integers(0, 9) | st.integers(0, MAX_FLOAT_INT) | st.sampled_from(NON_INTS)
    impact_factors = st.one_of(
        st.integers(0, 2**53),
        # past 2**53, only an int that is exactly a float loads back equal to it
        st.integers(2**53, MAX_FLOAT_INT),
        st.integers(54, 1023).map(lambda e: 2**e - 2**(e - 53)),
        finite,
        finite.map(np.float64),
        st.floats(0, allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    )
    rows = draw(st.lists(st.tuples(ids, counts, impact_factors, counts), min_size=1,
                         max_size=6, unique_by=lambda row: row[0]))
    return year, set_year, rows, draw(st.sampled_from(Basis))


@settings(max_examples=300, deadline=None)
@given(case=stored_sets())
@example(case=(2000, 2000, [("a", 3, np.float64(1.5), 1)], Basis.CITATIONS))
@example(case=(2000, 2000, [("a", 3, np.float32(1.1), 1)], Basis.IMPACT_FACTOR))
@example(case=(2000, 2000, [("a", 3, 3.5e38, 1), ("b", 3, np.float32(0.0), 1)], Basis.CITATIONS))
@example(case=(2000, 2000, [("a", True, 1.5, 1)], Basis.CITATIONS))
@example(case=(2000, np.int64(2000), [("a", 3, 1.5, 1)], Basis.CITATIONS))
@example(case=(2000, 2000.0, [("a", 3, 1.5, 1)], Basis.CITATIONS))
@example(case=(True, True, [("a", 3, 1.5, 1)], Basis.CITATIONS))
@example(case=("2000", "2000", [("a", 3, 1.5, 1)], Basis.CITATIONS))
@example(case=(-5, -5, [("a", 3, 1.5, 1)], Basis.CITATIONS))
@example(case=(2000, 2000, [("a", 3, 2**60 + 1, 1)], Basis.IMPACT_FACTOR))
@example(case=(2000, 2000, [("a ", 3, 1.5, 1)], Basis.IMPACT_FACTOR))
def test_a_set_the_model_accepts_loads_back_equal(tmp_path_factory, case):
    year, set_year, rows, basis = case
    try:
        table = JournalTable.from_rows((j, year, c, i, a) for j, c, i, a in rows)
        ranked = build_ranked_set(table, Discipline.SCI, basis, set_year)
    except ValidationError:
        return  # the model rejects it
    workspace = tmp_path_factory.mktemp("ws")
    store_dataset(workspace, ranked)
    loaded = load_dataset(workspace, Discipline.SCI, basis, set_year)
    assert loaded.table == ranked.table
    assert loaded == ranked
