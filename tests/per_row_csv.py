"""The per-row parser ``ingest.parse_csv`` used before the columnar load.

The properties in test_ingest.py and test_cli_fuzz.py compare ``parse_csv``
against this frozen copy, so that each rejection keeps its message, its line
number and, for a row with several bad fields, the field it names. Every row
error names the file line its record starts on (a quoted field can hold a
line break), a blank journal_id's included.
"""

import csv
import math
from pathlib import Path

from citemetrics.errors import ValidationError
from citemetrics.ingest import COLUMNS
from citemetrics.model import MAX_FLOAT_INT, row_fault


def parse_int(text, column, line_no):
    try:
        value = int(text)
    except ValueError:
        raise ValidationError(
            f"line {line_no}: column {column!r} must be an integer, got {text!r}"
        ) from None
    if value < 0:
        raise ValidationError(f"line {line_no}: column {column!r} must be >= 0, got {value}")
    if value > MAX_FLOAT_INT:
        raise ValidationError(
            f"line {line_no}: column {column!r} exceeds the float range (about 1.8e308), "
            f"got a {len(str(value))}-digit integer"
        )
    return value


def parse_float(text, column, line_no):
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(
            f"line {line_no}: column {column!r} must be numeric, got {text!r}"
        ) from None
    if not math.isfinite(value):
        raise ValidationError(f"line {line_no}: column {column!r} must be finite, got {text!r}")
    if value < 0:
        raise ValidationError(f"line {line_no}: column {column!r} must be >= 0, got {value}")
    return value


def per_row_parse_csv(path):
    """The file's rows as ``(journal_id, year, citations, impact_factor, articles)``
    tuples, blank rows skipped, each row checked in turn."""
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
        i_id, i_year, i_cit, i_if, i_art = (header.index(c) for c in COLUMNS)
        width = len(header)

        records = []
        end = reader.line_num
        for row in reader:
            line_no, end = end + 1, reader.line_num
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < width:
                raise ValidationError(f"line {line_no}: expected {width} fields, got {len(row)}")
            journal_id = row[i_id].strip()
            fields = (
                parse_int(row[i_year].strip(), "year", line_no),
                parse_int(row[i_cit].strip(), "citations", line_no),
                parse_float(row[i_if].strip(), "impact_factor", line_no),
                parse_int(row[i_art].strip(), "articles", line_no),
            )
            if not journal_id:
                raise ValidationError(f"line {line_no}: journal_id must be a non-empty string")
            if fault := row_fault(journal_id, *fields):  # worded as for a table row
                raise ValidationError(f"{journal_id!r}: {fault}")
            records.append((journal_id, *fields))
    return records
