"""CSV ingestion and workspace persistence for journal-year tables.

Input schema (UTF-8, optionally with a byte-order mark, comma separated,
dot decimals, header required):

    journal_id,year,citations,impact_factor,articles

Workspace layout:

    <dir>/manifest.json
    <dir>/data/<discipline>_<basis>_<year>.csv

Writes to a workspace are serialized through an advisory lock file, and
each file replacement is atomic (write-temp-then-rename). The data file and
the manifest are not replaced together, though, and reads take no lock: an
``ingest --overwrite`` interrupted between the two replacements, or a read
that races one, sees a manifest digest that does not match its data file and
fails with "digest mismatch".
"""

from __future__ import annotations

import codecs
import csv
import fcntl
import hashlib
import json
import os
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path

from .errors import ValidationError, WorkspaceError
from .model import Basis, Discipline, JournalTable, RankedSet, row_fault

COLUMNS = ("journal_id", "year", "citations", "impact_factor", "articles")
MANIFEST_NAME = "manifest.json"
DATA_DIR = "data"
LOCK_NAME = ".lock"
ENTRY_KEYS = ("discipline", "basis", "year", "source_path", "content_digest")
_KINDS = (int, int, float, int)  # year, citations, impact_factor, articles
_QUOTED = ',"\r\n'  # the characters that make csv.writer quote a field


def parse_csv(path: str | Path, data: bytes | None = None) -> JournalTable:
    """Parse a journal-year CSV into a table, validating every field.

    Fields are whitespace-trimmed; numerics use the dot decimal separator
    regardless of locale. Blank rows are skipped. Unknown extra columns are
    ignored with a warning. Errors name ``path`` and, for a bad row, the
    1-based line it starts on. ``data`` is the file's content when the
    caller has read it already; ``path`` then only names the file in
    messages. A valid file is converted whole; after any fault
    ``_check_row`` finds the first one, worded by ``model.row_fault``.
    """
    path = Path(path)
    if data is None:
        try:
            data = path.read_bytes()
        except OSError as exc:  # missing, a directory, no permission
            raise ValidationError(f"{path}: {exc.strerror}") from None
    reader = csv.reader(_lines(data))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ValidationError(f"{path}: empty file, header row required") from None
    except csv.Error as exc:  # a field beyond csv.field_size_limit()
        raise ValidationError(f"{path}: line 1: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: line {reader.line_num + 1}: {exc}") from None
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
    except (csv.Error, ValueError):  # UnicodeDecodeError and ValidationError are ValueErrors
        pass
    # Some row is blank or bad, or a line is unreadable: read the rows again
    # and check them one by one, so the first fault in the file is reported.
    reader = csv.reader(_lines(data))
    next(reader)
    kept = []
    start = reader.line_num + 1  # a quoted field can hold a line break
    try:
        for row in reader:
            if any(map(str.strip, row)):  # blank rows are skipped
                if fault := _check_row(row, index, width):
                    raise ValidationError(f"{path}: line {start}: {fault}")
                kept.append(row)
            start = reader.line_num + 1
    except csv.Error as exc:  # a field beyond csv.field_size_limit()
        raise ValidationError(f"{path}: line {start}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: line {reader.line_num + 1}: {exc}") from None
    return _table_of(kept, index, width)


def _lines(data: bytes):
    """The file's lines for ``csv.reader``, line ends kept as ``newline=""`` does
    and a leading byte-order mark dropped, each decoded when the reader reaches
    it: a bad byte raises UnicodeDecodeError only after every line above it was
    read, on line ``reader.line_num + 1``."""
    return map(bytes.decode, data.removeprefix(codecs.BOM_UTF8).splitlines(keepends=True))


def _table_of(rows: list[list[str]], index: list[int], width: int) -> JournalTable:
    """The rows as a table: each column through ``int`` or ``float``, with
    ``JournalTable`` checking the values. A fault raises ValueError naming no row."""
    columns = list(zip(*rows)) if rows else [()] * width
    if len(columns) < width:  # zip stops at the shortest row
        raise ValueError("a row is short")
    ids, *cells = (list(map(str.strip, columns[i])) for i in index)
    return JournalTable(ids, *(list(map(kind, col)) for kind, col in zip(_KINDS, cells)))


def _check_row(row: list[str], index: list[int], width: int) -> str | None:
    """The row's first fault, in the order width, year, citations, impact
    factor, articles, id; None for a valid row."""
    if len(row) < width:
        return f"expected {width} fields, got {len(row)}"
    journal_id, *cells = (row[i].strip() for i in index)
    return row_fault(journal_id, *map(_cell, cells, _KINDS))


def _cell(text: str, kind: type) -> int | float | str:
    """The cell as an ``int`` or ``float``, or its text if it is not one."""
    try:
        return kind(text)
    except ValueError:
        return text


def _csv_text(table: JournalTable) -> str:
    """A table as CSV text in the canonical column order, with CRLF line ends.

    The text is what ``csv.writer``'s default dialect writes: an id holding a
    comma, a double quote, CR or LF is wrapped in double quotes, each double
    quote in it doubled, and no other field is quoted. Floats use shortest
    round-trip formatting so parse(write(x)) == x bit-exactly. Impact factors
    that are not Python ints or floats (numpy floats) are written as their
    float value.
    """
    impact = table.impact_factor
    if not {int, float}.issuperset(map(type, impact)):
        impact = [v if type(v) in (int, float) else float(v) for v in impact]
    ids = table.journal_id
    joined = "".join(ids)
    if any(c in joined for c in _QUOTED):  # one join, so a plain table costs four fast finds
        ids = ['"' + j.replace('"', '""') + '"' if any(c in j for c in _QUOTED) else j
               for j in ids]
    return ",".join(COLUMNS) + "\r\n" + "".join([
        f"{j},{y},{c},{i!r},{a}\r\n"
        for j, y, c, i, a in zip(ids, table.year, table.citations, impact, table.articles)
    ])


def write_csv(path: str | Path, table: JournalTable) -> None:
    """Write a table as CSV in the canonical column order (see ``_csv_text``)."""
    if not isinstance(table, JournalTable):
        raise ValidationError(f"write_csv needs a JournalTable, got {type(table).__name__}")
    Path(path).write_text(_csv_text(table), encoding="utf-8", newline="")


# --- workspace -------------------------------------------------------------


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


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
    """Replace ``path`` with ``data``, written as is (no newline translation).

    A failed write leaves no temporary file; an OSError is raised again as a
    WorkspaceError naming ``path``.
    """
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise WorkspaceError(f"{path}: {exc.strerror}") from None
        raise


def read_manifest(workspace_dir: str | Path) -> list[dict]:
    """Manifest entries of a workspace; empty list if none exists yet.

    The manifest is UTF-8 JSON, optionally after a byte-order mark. Raises
    WorkspaceError naming the manifest if it cannot be read or its bytes do
    not decode or parse, and unless it is an object whose ``entries`` is a
    list of objects, each carrying every key in ``ENTRY_KEYS`` with a known
    discipline and basis, an integer year (and cap, if given) and a string
    source path inside the workspace: relative, with no ``..`` part.
    """
    manifest_path = Path(workspace_dir) / MANIFEST_NAME
    if not manifest_path.exists():
        return []
    try:
        payload = json.loads(manifest_path.read_text(encoding="utf-8-sig"))
    except OSError as exc:  # a directory, no permission
        raise WorkspaceError(f"{manifest_path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # bad bytes or JSON, a huge integer, deep nesting
        raise WorkspaceError(f"{manifest_path}: {exc}") from None
    entries = payload.get("entries") if isinstance(payload, dict) else None
    if not isinstance(entries, list):
        raise WorkspaceError(f"{manifest_path}: expected an object with a list of entries")
    # tuples, not sets: an unhashable value in a fuzzed manifest must read as no value
    disciplines, bases = tuple(d.value for d in Discipline), tuple(b.value for b in Basis)
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise WorkspaceError(f"{manifest_path}: entry {i} is not an object")
        missing = [k for k in ENTRY_KEYS if k not in entry]
        if missing:
            raise WorkspaceError(
                f"{manifest_path}: entry {i} lacks {', '.join(missing)}"
            )
        if (
            entry["discipline"] not in disciplines
            or entry["basis"] not in bases
            or type(entry["year"]) is not int
            or type(entry.get("cap", 0)) is not int
            or not isinstance(entry["source_path"], str)
        ):
            raise WorkspaceError(f"{manifest_path}: entry {i} names no valid dataset file")
        source = entry["source_path"]
        if (path := Path(source)).is_absolute() or ".." in path.parts:
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
        target = data_dir / f"{ranked.discipline.value}_{ranked.basis.value}_{ranked.year}.csv"
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
    try:
        data = resolved.read_bytes()
    except OSError as exc:  # a directory, no permission
        raise WorkspaceError(f"{data_path}: {exc.strerror}") from None
    actual = _digest(data)
    if actual != entry["content_digest"]:
        raise WorkspaceError(
            f"digest mismatch for {data_path.name}: stored {entry['content_digest']}, "
            f"actual {actual}; file is corrupt"
        )
    table = parse_csv(data_path, data)
    try:
        return RankedSet(discipline, basis, year, table, entry.get("cap", max(len(table), 1)))
    except ValidationError as exc:  # the entry's year or cap contradicts the file
        raise ValidationError(f"{data_path}: {exc}") from None
