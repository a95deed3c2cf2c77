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
from .model import Basis, Discipline, JournalYearRecord, RankedSet

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


def parse_csv(path: str | Path) -> list[JournalYearRecord]:
    """Parse a journal-year CSV into records, validating every field.

    Fields are whitespace-trimmed; numerics use the dot decimal separator
    regardless of locale. Unknown extra columns are ignored with a warning.
    Errors carry the 1-based line number of the offending row.
    """
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
        extra = [h for h in header if h not in COLUMNS]
        if extra:
            warnings.warn(
                f"{path}: ignoring extra column(s) {', '.join(extra)}", stacklevel=2
            )
        index = {c: header.index(c) for c in COLUMNS}
        i_id, i_year, i_cit, i_if, i_art = (index[c] for c in COLUMNS)
        width = len(header)

        records = []
        for line_no, row in enumerate(reader, start=2):
            # A full-width row with an id can be neither blank nor short.
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


def _csv_text(records: Iterable[JournalYearRecord]) -> str:
    """Records as CSV text in the canonical column order, with CRLF line ends.

    Floats use shortest round-trip formatting so parse(write(x)) == x
    bit-exactly.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(COLUMNS)
    for rec in records:
        writer.writerow(
            [rec.journal_id, rec.year, rec.citations, repr(rec.impact_factor), rec.articles]
        )
    return buf.getvalue()


def write_csv(path: str | Path, records: Iterable[JournalYearRecord]) -> None:
    """Write records as CSV in the canonical column order (see ``_csv_text``)."""
    Path(path).write_text(_csv_text(records), encoding="utf-8", newline="")


# --- workspace -------------------------------------------------------------


def _digest(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


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
    string source path.
    """
    manifest_path = Path(workspace_dir) / MANIFEST_NAME
    if not manifest_path.exists():
        return []
    payload = json.loads(manifest_path.read_text(encoding="utf-8"))
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
        _atomic_write(target, _csv_text(ranked.records))

        entry = {
            "discipline": ranked.discipline.value,
            "basis": ranked.basis.value,
            "year": ranked.year,
            "row_count": len(ranked),
            "cap": ranked.cap,
            "source_path": f"{DATA_DIR}/{target.name}",
            "content_digest": _digest(target),
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
    actual = _digest(data_path)
    if actual != entry["content_digest"]:
        raise WorkspaceError(
            f"digest mismatch for {data_path.name}: stored {entry['content_digest']}, "
            f"actual {actual}; file is corrupt"
        )
    records = parse_csv(data_path)
    return RankedSet(
        discipline=discipline,
        basis=basis,
        year=year,
        records=tuple(records),
        cap=entry.get("cap", max(len(records), 1)),
    )
