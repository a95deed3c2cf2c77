"""CSV ingestion and workspace persistence for journal-year tables.

Input schema (UTF-8, comma separated, dot decimals, header required):

    journal_id,year,citations,impact_factor,articles

Workspace layout:

    <dir>/manifest.json
    <dir>/data/<discipline>_<basis>_<year>.csv

Writes to a workspace are serialized through an advisory lock file and all
file replacements go through write-temp-then-rename, so a workspace survives
interrupted runs. Reads are freely concurrent.
"""

from __future__ import annotations

import csv
import fcntl
import hashlib
import io
import json
import math
import os
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable

from .errors import ValidationError, WorkspaceError
from .model import (
    MAX_FLOAT_INT, Basis, Discipline, JournalTable, JournalYearRecord, RankedSet,
)

COLUMNS = ("journal_id", "year", "citations", "impact_factor", "articles")
MANIFEST_NAME = "manifest.json"
DATA_DIR = "data"
LOCK_NAME = ".lock"
ENTRY_KEYS = ("discipline", "basis", "year", "source_path", "content_digest")


def _parse_int(text: str, column: str, line_no: int) -> int:
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


def _parse_float(text: str, column: str, line_no: int) -> float:
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


def parse_csv(path: str | Path, data: bytes | None = None) -> JournalTable:
    """Parse a journal-year CSV into a table, validating every field.

    Fields are whitespace-trimmed; numerics use the dot decimal separator
    regardless of locale. Blank rows are skipped. Unknown extra columns are
    ignored with a warning. Errors carry the 1-based line number of the
    offending row. ``data`` is the file's content when the caller has read
    it already; ``path`` then only names the file in messages.
    """
    path = Path(path)
    if data is None:
        if not path.exists():
            raise ValidationError(f"no such file: {path}")
        data = path.read_bytes()
    reader = _reader(data)
    try:
        header = _header(reader, path)
    except UnicodeDecodeError:  # a bad byte in the first decoded chunk, maybe rows below
        reader = csv.reader(_decoded_lines(data))
        header = _header(reader, path)
    header = [h.strip() for h in header]
    missing = [c for c in COLUMNS if c not in header]
    if missing:
        raise ValidationError(f"{path}: missing column(s) {', '.join(missing)}")
    extra = [h for h in header if h not in COLUMNS]
    if extra:
        warnings.warn(f"{path}: ignoring extra column(s) {', '.join(extra)}", stacklevel=2)
    index = [header.index(c) for c in COLUMNS]
    width = len(header)

    try:
        return _table_of(list(reader), index, width)
    except (csv.Error, ValueError, ValidationError):  # UnicodeDecodeError is a ValueError
        return _parse_rows(data, index, width)


def _reader(data: bytes):
    return csv.reader(io.TextIOWrapper(io.BytesIO(data), "utf-8", newline=""))


def _decoded_lines(data: bytes):
    """The file's physical lines, each decoded only when it is read, so that a
    bad byte fails after every line above it, as ValidationError("line N: ...").

    ``bytes.splitlines`` ends lines at \\n, \\r and \\r\\n, as ``newline=""`` does.
    """
    for line_no, line in enumerate(data.splitlines(keepends=True), start=1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"line {line_no}: {exc}") from None


def _header(reader, path: Path) -> list[str]:
    try:
        return next(reader)
    except StopIteration:
        raise ValidationError(f"{path}: empty file, header row required") from None
    except csv.Error as exc:  # a field beyond csv.field_size_limit()
        raise ValidationError(f"line 1: {exc}") from None


def _table_of(rows: list[list[str]], index: list[int], width: int) -> JournalTable:
    """The rows as a table, each column converted and checked as a whole.

    Raises ValueError or ValidationError, without a line number, if any row
    is blank, short or invalid; ``_parse_rows`` then finds the first.
    """
    if not rows or min(map(len, rows)) < width:
        raise ValueError("blank or short row")
    columns = list(zip(*rows))
    ids, years, citations, impact, articles = (list(map(str.strip, columns[i])) for i in index)
    years = list(map(int, years))
    if min(years) < 0 or max(years) > MAX_FLOAT_INT:
        raise ValueError("year out of range")
    return JournalTable(
        ids, years, list(map(int, citations)), list(map(float, impact)), list(map(int, articles))
    )


def _numbered_rows(data: bytes):
    """(line, row) for each record after the header, ``line`` the file line it
    starts on: a quoted field can hold a line break, so lines and records differ."""
    reader = csv.reader(_decoded_lines(data))
    next(reader)  # the header, already checked
    start = reader.line_num + 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:  # a field beyond csv.field_size_limit()
        raise ValidationError(f"line {start}: {exc}") from None


def _parse_rows(data: bytes, index: list[int], width: int) -> JournalTable:
    """The rows as a table, read again and checked one by one in file order."""
    i_id, i_year, i_cit, i_if, i_art = index
    parsed = []
    for line_no, row in _numbered_rows(data):
        # A full-width row with an id can be neither blank nor short.
        if len(row) < width or not row[i_id].strip():
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < width:
                raise ValidationError(
                    f"line {line_no}: expected {width} fields, got {len(row)}"
                )
        parsed.append((
            row[i_id].strip(),
            _parse_int(row[i_year].strip(), "year", line_no),
            _parse_int(row[i_cit].strip(), "citations", line_no),
            _parse_float(row[i_if].strip(), "impact_factor", line_no),
            _parse_int(row[i_art].strip(), "articles", line_no),
        ))
        if not parsed[-1][0]:
            JournalYearRecord(*parsed[-1])  # raises the blank id's error
    return JournalTable.from_rows(parsed)


def _csv_text(table: JournalTable) -> str:
    """A table as CSV text in the canonical column order, with CRLF line ends.

    Floats use shortest round-trip formatting so parse(write(x)) == x
    bit-exactly.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(COLUMNS)
    writer.writerows(
        zip(table.journal_id, table.year, table.citations, map(repr, table.impact_factor),
            table.articles)
    )
    return buf.getvalue()


def write_csv(path: str | Path, records: JournalTable | Iterable[JournalYearRecord]) -> None:
    """Write a table, or records, as CSV in the canonical column order (see ``_csv_text``)."""
    Path(path).write_text(
        _csv_text(JournalTable.from_records(records)), encoding="utf-8", newline=""
    )


# --- workspace -------------------------------------------------------------


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _dataset_filename(discipline: Discipline, basis: Basis, year: int) -> str:
    return f"{discipline.value}_{basis.value}_{year}.csv"


@contextmanager
def _workspace_lock(workspace_dir: Path):
    """Advisory exclusive lock over workspace mutations."""
    workspace_dir.mkdir(parents=True, exist_ok=True)
    lock_path = workspace_dir / LOCK_NAME
    with lock_path.open("a") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def _atomic_write(path: Path, data: str) -> None:
    """Replace ``path`` with ``data``, written as is (no newline translation)."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_manifest(workspace_dir: str | Path) -> list[dict]:
    """Manifest entries of a workspace; empty list if none exists yet.

    Raises WorkspaceError unless the manifest is an object whose ``entries``
    is a list of objects, each carrying every key in ``ENTRY_KEYS`` with a
    known discipline and basis, an integer year (and cap, if given) and a
    string source path inside the workspace: relative, with no ``..`` part.
    """
    manifest_path = Path(workspace_dir) / MANIFEST_NAME
    if not manifest_path.exists():
        return []
    text = manifest_path.read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # an integer literal past sys.get_int_max_str_digits()
        raise WorkspaceError(f"{manifest_path}: {exc}") from None
    entries = payload.get("entries") if isinstance(payload, dict) else None
    if not isinstance(entries, list):
        raise WorkspaceError(f"{manifest_path}: expected an object with a list of entries")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise WorkspaceError(f"{manifest_path}: entry {i} is not an object")
        missing = [k for k in ENTRY_KEYS if k not in entry]
        if missing:
            raise WorkspaceError(
                f"{manifest_path}: entry {i} lacks {', '.join(missing)}"
            )
        if (
            entry["discipline"] not in [d.value for d in Discipline]
            or entry["basis"] not in [b.value for b in Basis]
            or type(entry["year"]) is not int
            or type(entry.get("cap", 0)) is not int
            or not isinstance(entry["source_path"], str)
        ):
            raise WorkspaceError(f"{manifest_path}: entry {i} names no valid dataset file")
        source = entry["source_path"]
        if Path(source).is_absolute() or ".." in Path(source).parts:
            raise WorkspaceError(f"{manifest_path}: entry {i} path {source!r} leaves the workspace")
    return entries


def _write_manifest(workspace_dir: Path, entries: list[dict]) -> None:
    entries = sorted(entries, key=lambda e: (e["discipline"], e["basis"], e["year"]))
    _atomic_write(
        workspace_dir / MANIFEST_NAME,
        json.dumps({"entries": entries}, indent=2, sort_keys=True) + "\n",
    )


def store_dataset(
    workspace_dir: str | Path, ranked: RankedSet, overwrite: bool = False
) -> dict:
    """Persist a RankedSet as normalized CSV and register it in the manifest.

    The (discipline, basis, year) triple must be unique within the workspace
    unless ``overwrite`` is set. Returns the manifest entry.
    """
    workspace_dir = Path(workspace_dir)
    with _workspace_lock(workspace_dir):
        entries = read_manifest(workspace_dir)
        key = (ranked.discipline.value, ranked.basis.value, ranked.year)
        clashing = [
            e for e in entries if (e["discipline"], e["basis"], e["year"]) == key
        ]
        if clashing and not overwrite:
            raise WorkspaceError(
                f"dataset {key[0]}:{key[1]}:{key[2]} already stored; pass overwrite to replace"
            )
        entries = [e for e in entries if e not in clashing]

        data_dir = workspace_dir / DATA_DIR
        data_dir.mkdir(exist_ok=True)
        target = data_dir / _dataset_filename(ranked.discipline, ranked.basis, ranked.year)
        text = _csv_text(ranked.table)
        _atomic_write(target, text)

        entry = {
            "discipline": ranked.discipline.value,
            "basis": ranked.basis.value,
            "year": ranked.year,
            "row_count": len(ranked),
            "cap": ranked.cap,
            "source_path": f"{DATA_DIR}/{target.name}",
            "content_digest": _digest(text.encode("utf-8")),
        }
        entries.append(entry)
        _write_manifest(workspace_dir, entries)
    return entry


def load_dataset(
    workspace_dir: str | Path,
    discipline: Discipline,
    basis: Basis,
    year: int,
    entries: list[dict] | None = None,
) -> RankedSet:
    """Reload a stored dataset, verifying its content digest first.

    The file is read once: the rows returned are parsed from the bytes whose
    digest was checked.

    ``entries`` are the workspace's manifest entries as ``read_manifest``
    returned them, for a caller that loads many sets and reads the manifest
    once; by default the manifest is read here.
    """
    workspace_dir = Path(workspace_dir)
    if entries is None:
        entries = read_manifest(workspace_dir)
    key = (discipline.value, basis.value, year)
    matches = [e for e in entries if (e["discipline"], e["basis"], e["year"]) == key]
    if not matches:
        known = ", ".join(
            f"{e['discipline']}:{e['basis']}:{e['year']}" for e in entries
        )
        raise WorkspaceError(
            f"no dataset {key[0]}:{key[1]}:{key[2]} in workspace"
            + (f"; available: {known}" if known else "; workspace is empty")
        )
    entry = matches[0]
    data_path = workspace_dir / entry["source_path"]
    if not data_path.exists():
        raise WorkspaceError(f"manifest references missing file {data_path}")
    # read_manifest keeps the path relative and free of ".."; a symlink could still lead out
    resolved = data_path.resolve()
    if not resolved.is_relative_to(workspace_dir.resolve()):
        raise WorkspaceError(f"{data_path} resolves to {resolved}, outside the workspace")
    data = resolved.read_bytes()
    actual = _digest(data)
    if actual != entry["content_digest"]:
        raise WorkspaceError(
            f"digest mismatch for {data_path.name}: stored {entry['content_digest']}, "
            f"actual {actual}; file is corrupt"
        )
    table = parse_csv(data_path, data)
    return RankedSet(discipline, basis, year, table, entry.get("cap", max(len(table), 1)))
