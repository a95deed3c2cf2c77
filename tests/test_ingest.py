import csv
import json
import os
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citemetrics import ingest
from citemetrics.errors import ValidationError, WorkspaceError
from citemetrics.ingest import (
    COLUMNS,
    _parse_float,
    _parse_int,
    load_dataset,
    parse_csv,
    read_manifest,
    store_dataset,
    write_csv,
)
from citemetrics.model import (
    Basis,
    Discipline,
    JournalYearRecord,
    build_ranked_set,
)


def write_table(path, rows, header="journal_id,year,citations,impact_factor,articles"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def random_records(rng, n, year=2000):
    records = []
    for i in range(n):
        records.append(
            JournalYearRecord(
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
        (record,) = parse_csv(f).records()
        assert record == JournalYearRecord("PHYS REV B", 2000, 154983, 3.065, 5410)

    def test_trims_whitespace(self, tmp_path):
        f = tmp_path / "t.csv"
        write_table(f, [" PHYS REV B , 2000 , 10 , 1.5 , 3 "])
        (record,) = parse_csv(f).records()
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

    def test_error_line_counts_file_lines_after_a_quoted_line_break(self, tmp_path):
        f = tmp_path / "t.csv"
        write_table(f, ['"A\nB",2000,1,1.0,1', "C,2000,x,1.0,1"])
        with pytest.raises(ValidationError, match="line 4: column 'citations'"):
            parse_csv(f)
        write_table(f, ['"A\nB",2000,1,1.0,1', "C,2000,1,1.0," + "1" * 200_000])
        with pytest.raises(ValidationError, match="line 4: field larger than field limit"):
            parse_csv(f)

    def test_an_earlier_bad_row_is_reported_before_a_bad_byte(self, tmp_path):
        f = tmp_path / "t.csv"
        rows = b'"A\nB",2000,1,1.0,1\nC,2000,x,1.0,3\n\xff,2000,1,1.0,1\n'
        f.write_bytes(b"journal_id,year,citations,impact_factor,articles\n" + rows)
        with pytest.raises(ValidationError, match="^line 4: column 'citations' must be an integer"):
            parse_csv(f)
        f.write_bytes(f.read_bytes().replace(b",x,", b",1,"))
        with pytest.raises(ValidationError, match="^line 5: 'utf-8' codec can't decode byte 0xff"):
            parse_csv(f)
        f.write_bytes(b"journal_id,\xff\n" + rows)
        with pytest.raises(ValidationError, match="^line 1: 'utf-8' codec"):
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
        with pytest.raises(ValidationError, match="no such file"):
            parse_csv(tmp_path / "absent.csv")

    def test_empty_file_needs_header(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("")
        with pytest.raises(ValidationError, match="header"):
            parse_csv(f)

    def test_roundtrip_random_tables(self, tmp_path):
        rng = np.random.default_rng(31)
        for trial in range(5):
            records = random_records(rng, int(rng.integers(1, 200)))
            f = tmp_path / f"round{trial}.csv"
            write_csv(f, records)
            assert parse_csv(f).records() == records


def reference_parse_rows(path):
    """parse_csv's former row loop, with a dict of stripped cells per row."""
    with path.open(newline="", encoding="utf-8") as fh:
        return _reference_rows(csv.reader(fh))


def _reference_rows(reader):
    header = [h.strip() for h in next(reader)]
    index = {c: header.index(c) for c in COLUMNS}
    records = []
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < len(header):
            raise ValidationError(f"line {line_no}: expected {len(header)} fields, got {len(row)}")
        cell = {c: row[index[c]].strip() for c in COLUMNS}
        records.append(
            JournalYearRecord(
                journal_id=cell["journal_id"],
                year=_parse_int(cell["year"], "year", line_no),
                citations=_parse_int(cell["citations"], "citations", line_no),
                impact_factor=_parse_float(cell["impact_factor"], "impact_factor", line_no),
                articles=_parse_int(cell["articles"], "articles", line_no),
            )
        )
    return records


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

        assert outcome(lambda p: parse_csv(p).records(), f) == outcome(reference_parse_rows, f)


class TestWorkspace:
    def make_set(self, rng, year=2000, basis=Basis.CITATIONS, n=50):
        records = [r for r in random_records(rng, n, year=year)]
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
            write_csv(tmp_path / "new.csv", replacement.records)
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
