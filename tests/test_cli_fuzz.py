"""`ingest` fed fuzzed CSV text: exit 0 or 2 with a message, never a traceback.

Every outcome must equal that of the per-row parser the columnar loader
replaced (``per_row_parse_csv``, a test-local copy) followed by the same
ranking step, so each rejection keeps its message and line number.
"""

import contextlib
import csv
import io
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from citemetrics.cli import run
from citemetrics.errors import ValidationError
from citemetrics.ingest import COLUMNS, _parse_float, _parse_int
from citemetrics.model import Basis, Discipline, JournalYearRecord, build_ranked_set


def per_row_parse_csv(path):
    """parse_csv as it was before the columnar load: one record per row."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        missing = [c for c in COLUMNS if c not in header]
        if missing:
            raise ValidationError(f"{path}: missing column(s) {', '.join(missing)}")
        index = {c: header.index(c) for c in COLUMNS}
        i_id, i_year, i_cit, i_if, i_art = (index[c] for c in COLUMNS)
        width = len(header)

        records = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) < width or not row[i_id].strip():
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) < width:
                    raise ValidationError(
                        f"line {line_no}: expected {width} fields, got {len(row)}"
                    )
            records.append(
                JournalYearRecord(
                    row[i_id].strip(),
                    _parse_int(row[i_year].strip(), "year", line_no),
                    _parse_int(row[i_cit].strip(), "citations", line_no),
                    _parse_float(row[i_if].strip(), "impact_factor", line_no),
                    _parse_int(row[i_art].strip(), "articles", line_no),
                )
            )
    return records


# Quotes, NUL, the \x1c separator that str.strip() removes, huge integers,
# non-finite and negative numbers, and cells with commas or line breaks.
ODD_CELLS = [
    "", " ", '"', '""', '"7"', 'a"b', '"a,b"', "\x00", "a\x00", "\x1c", "\x1c4", "nan", "inf",
    "-inf", "-1", "-0.0", "9" * 400, "1e400", "1_0", " 12 ", "abc", "1999", "  5",
]
cells = (
    st.sampled_from(ODD_CELLS)
    | st.integers(-5, 10**25).map(str)
    | st.floats().map(repr)
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
)


@st.composite
def csv_texts(draw):
    header = list(COLUMNS) + draw(st.sampled_from([[], [], ["issn"], ["issn", "x"]]))
    lines = [",".join(header)]
    for i in range(draw(st.integers(0, 6))):
        row = [draw(st.sampled_from([f"J{i}", f"J{i}", "J0"])), "2000",
               draw(st.sampled_from(["5", "9", "0"])), draw(st.sampled_from(["1.5", "0.25"])),
               "3"] + ["0"] * (len(header) - len(COLUMNS))
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            row[draw(st.integers(0, len(row) - 1))] = draw(cells)
        row = row[:draw(st.sampled_from([len(row)] * 5 + [len(row) + 1, 2, 0]))]
        if len(row) > len(header):
            row.append(draw(cells))
        lines.append(",".join(row))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


def cli_outcome(path, workspace, basis):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run(["ingest", "--input", str(path), "--discipline", "sci", "--basis", basis,
                    "--year", "2000", "--workspace", str(workspace), "--overwrite"])
    return code, err.getvalue()


def reference_outcome(path, basis):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = per_row_parse_csv(path)
        ranked = build_ranked_set(records, Discipline.SCI, Basis(basis), 2000)
    except ValidationError as exc:
        return 2, f"error: {exc}\n"
    return 0, f"ingested {len(ranked)} rows as sci:{basis}:2000\n"


@settings(max_examples=250, deadline=None)
@given(text=csv_texts(), basis=st.sampled_from(["citations", "if"]))
def test_ingest_of_fuzzed_csv_matches_per_row_parser(tmp_path_factory, text, basis):
    root = tmp_path_factory.mktemp("fuzz")
    source = root / "in.csv"
    source.write_text(text, encoding="utf-8", newline="")
    code, err = cli_outcome(source, root / "ws", basis)
    assert code in (0, 2)
    assert "Traceback" not in err
    assert (code, err) == reference_outcome(source, basis)
