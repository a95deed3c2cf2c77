"""The CLI fed fuzzed input files: exit 0 or 2 with a message, never a traceback.

`ingest` of fuzzed CSV text must match the per-row parser the columnar loader
replaced (``per_row_csv.per_row_parse_csv``, a frozen test-local copy)
followed by the same ranking step, so each rejection keeps its message and
line number; every exit-2 message of `ingest` and `ks` starts with the path of
the file it read. `report` and `rank` run over fuzzed manifests, and `ks` over
fuzzed fit reports; each of those files is sometimes written raw instead:
not UTF-8, not JSON, after a byte-order mark, or nested past the parser's
recursion limit.
"""

import codecs
import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citemetrics.cli import run
from citemetrics.errors import ValidationError
from citemetrics.ingest import COLUMNS, store_dataset
from citemetrics.model import Basis, Discipline, build_ranked_set
from citemetrics.synthgen import build_fixture
from per_row_csv import per_row_parse_csv
from per_row_wording import reworded


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
    """The per-row parser and the ranking step, with every fault prefixed by the
    CSV's path as `ingest` prefixes it (the frozen parser names the file in its
    header faults only) and in today's wording."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = per_row_parse_csv(path)
        ranked = build_ranked_set(records, Discipline.SCI, Basis(basis), 2000)
    except ValidationError as exc:
        message = reworded(str(exc))
        if not message.startswith(f"{path}: "):
            message = f"{path}: {message}"
        return 2, f"error: {message}\n"
    return 0, f"ingested {len(ranked)} rows as sci:{basis}:2000\n"


@settings(max_examples=250, deadline=None)
@given(text=csv_texts(), basis=st.sampled_from(["citations", "if"]))
# a quoted id that runs over a line break: the bad row's record starts on line 4
@example(text=f'{",".join(COLUMNS)}\n",2000,5,1.5,3\na"b,2000,5,1.5,3\nJ2,2000,x,1.5,3\n',
         basis="citations")
def test_ingest_of_fuzzed_csv_matches_per_row_parser(tmp_path_factory, text, basis):
    root = tmp_path_factory.mktemp("fuzz")
    source = root / "in.csv"
    source.write_text(text, encoding="utf-8", newline="")
    code, err = cli_outcome(source, root / "ws", basis)
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith(f"error: {source}: "), err
    assert (code, err) == reference_outcome(source, basis)


# --- fuzzed manifests and fit reports ----------------------------------------------

SOURCE = "data/sci_citations_2000.csv"


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A workspace ``ws`` holding one 40-journal set, and its manifest entry; copies of
    its CSV in ``fuzzed``, a workspace for fuzzed manifests, and outside both."""
    root = tmp_path_factory.mktemp("stored")
    ranked = build_ranked_set(build_fixture("sci_set_i", 2000).table, Discipline.SCI,
                              Basis.CITATIONS, 2000, cap=40)
    entry = store_dataset(root / "ws", ranked)
    data = (root / "ws" / SOURCE).read_bytes()
    (root / "fuzzed" / "data").mkdir(parents=True)
    (root / "fuzzed" / SOURCE).write_bytes(data)
    (root / "outside.csv").write_bytes(data)
    return root, entry


def quiet_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: "), err


# "<huge>" stands for an integer literal past int()'s digit limit (see as_json).
junk = (
    st.none() | st.booleans() | st.integers() | st.integers(-10**400, 10**400) | st.floats()
    | st.text(max_size=3) | st.just([]) | st.just({}) | st.just("<huge>")
)


def as_json(payload):
    return json.dumps(payload).replace('"<huge>"', "9" * 5000)


# How a drawn payload is written: as JSON, or as a file of another kind.
FILE_KINDS = ["json"] * 4 + ["not utf-8", "not json", "bom", "deep"]
DEEP = b"[" * 200_000 + b"]" * 200_000


def run_on_file(path, text, kind, cut, argv):
    """``argv``'s exit code and stderr with ``text`` written to ``path`` as a file of
    the given kind: as it is, with a 0xff byte or an "x" after its first ``cut``
    characters, after a byte-order mark, or replaced by arrays nested 200,000
    deep. Every exit is clean; a file that cannot be read as JSON is a data error
    naming it, and the mark changes nothing."""
    data = text.encode()
    if kind == "not utf-8":
        data = data[:cut] + b"\xff" + data[cut:]
    elif kind == "not json":
        data = (text[:cut] + "x").encode()
    elif kind == "bom":
        data = codecs.BOM_UTF8 + data
    elif kind == "deep":
        data = DEEP
    path.write_bytes(data)
    code, err = quiet_run(argv)
    assert_clean_exit(code, err)
    if kind == "bom":
        path.write_bytes(text.encode())
        assert quiet_run(argv) == (code, err)
    elif kind != "json":
        assert code == 2 and err.startswith(f"error: {path}: "), err
    return code, err


def mostly(likely, other=junk):
    """Draws from ``likely`` three times in four and from ``other`` otherwise."""
    return st.sampled_from([likely] * 3 + [other]).flatmap(lambda strategy: strategy)


# Each names the stored CSV or its copy outside the workspace.
ESCAPING = ["data/../" + SOURCE, "../outside.csv", "data/../../outside.csv", "<outside>"]
ENTRY_VALUES = {
    "discipline": mostly(st.sampled_from(["sci", "socsci", "art", "SCI"])),
    "basis": mostly(st.sampled_from(["citations", "if", "x"])),
    "year": mostly(st.sampled_from([2000, 2001, 1999, -1, 10**30, "<huge>"])),
    "source_path": mostly(st.sampled_from([
        SOURCE, "data/missing.csv", "", ".", "data", "data/", "manifest.json", "data/\x00.csv",
    ])),
    "content_digest": mostly(st.sampled_from(["<digest>", "sha256:0", ""])),
    "cap": mostly(st.sampled_from([1, 39, 40, 1000, 0, -1, 10**30, "<huge>"])),
    "row_count": junk,
}


@st.composite
def manifests(draw):
    """Manifest payloads: mostly entries near the stored one, each key kept, replaced
    or dropped, and in half of them a path outside the workspace; sometimes a payload
    of the wrong shape."""
    entries = []
    for _ in range(draw(st.integers(1, 3))):
        entry = {}
        for key, values in ENTRY_VALUES.items():
            choice = draw(st.sampled_from(["keep"] * 6 + ["fuzz", "drop"]))
            if choice != "drop":
                entry[key] = f"<{key}>" if choice == "keep" else draw(values)
        entries.append(entry)
    escape = draw(st.sampled_from(ESCAPING + [None] * 4))
    if escape:
        entries[draw(st.integers(0, len(entries) - 1))]["source_path"] = escape
    return draw(mostly(st.sampled_from([{"entries": entries}] * 8 + [entries, {}])))


def concrete(payload, root, entry):
    """A drawn manifest with its placeholders filled from the stored entry."""
    fill = {f"<{key}>": value for key, value in entry.items()}
    fill["<outside>"] = str(root / "outside.csv")
    fill["<digest>"] = entry["content_digest"]
    if isinstance(payload, dict) and isinstance(payload.get("entries"), list):
        payload["entries"] = [
            {k: fill.get(v, v) if isinstance(v, str) else v for k, v in e.items()}
            for e in payload["entries"]
        ]
    return payload


@settings(max_examples=150, deadline=None)
@given(payload=manifests(), argv=st.sampled_from([
    ["report"],
    ["rank", "--set", "sci:citations:2000", "--measure", "n"],
    ["rank", "--set", "socsci:if:2001", "--measure", "if"],
]), kind=st.sampled_from(FILE_KINDS), cut=st.integers(0, 300))
@example(payload={"entries": []}, argv=["report"], kind="deep", cut=0)
def test_fuzzed_manifest_exits_cleanly(stored, payload, argv, kind, cut):
    root, entry = stored
    payload = concrete(payload, root, entry)
    code, _ = run_on_file(root / "fuzzed" / "manifest.json", as_json(payload), kind, cut,
                          argv + ["--workspace", str(root / "fuzzed")])
    entries = payload.get("entries") if isinstance(payload, dict) else None
    paths = [e.get("source_path") for e in entries or () if isinstance(e, dict)]
    if any(isinstance(p, str) and (p.startswith("/") or ".." in p.split("/")) for p in paths):
        assert code == 2, "a manifest path outside the workspace was loaded"


fit_values = mostly(st.sampled_from([
    -0.5, 0.8, math.e, 10, 1, 0, -1, 1e308, math.inf, -math.inf, math.nan, 10**400, -10**309,
    "1.5", "nan", "1e400", "x", True, None, "<huge>",
]))
fit_params = mostly(
    st.fixed_dictionaries({"a": fit_values, "b": fit_values}, optional={"log_base": fit_values}),
    st.fixed_dictionaries({}, optional={"a": fit_values, "b": fit_values}) | junk,
)


@settings(max_examples=150, deadline=None)
@given(payload=mostly(st.fixed_dictionaries({"params": fit_params}), junk),
       kind=st.sampled_from(FILE_KINDS), cut=st.integers(0, 60))
@example(payload={"params": {"a": -0.5, "b": 0.8}}, kind="deep", cut=0)
@example(payload={"params": {"a": -0.5, "b": -1}}, kind="json", cut=0)
@example(payload={"params": {"a": -0.5, "b": 5e-324}}, kind="json", cut=0)  # subnormal scale
def test_fuzzed_fit_report_exits_cleanly(stored, payload, kind, cut):
    root, _ = stored
    fit = root / "fit.json"
    code, err = run_on_file(fit, as_json(payload), kind, cut, [
        "ks", "--set", "sci:citations:2000", "--fit", str(fit), "--workspace", str(root / "ws"),
    ])
    if code == 2:
        assert err.startswith(f"error: {fit}: "), err
    if kind not in ("json", "bom"):
        assert err == f"error: {fit}: expected a fit report with params.a and params.b\n"
