"""Golden `--help` and usage-error output of the command line.

Each case runs ``cli.run`` in-process at a terminal width of 80 columns and
compares its stdout, stderr and exit code (argparse's ``SystemExit``
included) with ``cli_help.golden.json``. The file was recorded before the
parser was rebuilt from one command table, so however the parser is built,
every byte of its help and of its usage errors must stay. Re-record, only
when the text is meant to change, with::

    PYTHONPATH=src python tests/test_cli_help.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from citemetrics import cli

GOLDEN = Path(__file__).with_name("cli_help.golden.json")
COMMANDS = (
    "ingest", "rank", "fit-zipf", "dist", "fit-pareto", "fit-gumbel", "ks", "correlate",
    "overlap", "trend", "synth", "report",
)
CASES = (
    [["--help"], []]
    + [[name, "--help"] for name in COMMANDS]
    + [[name] for name in COMMANDS]
    + [
        ["frobnicate"],
        ["fit-g", "--set", "sci:citations:2000"],  # abbreviations are not commands
        ["corr", "--help"],
        ["--workspace", "ws", "rank", "--set", "sci:citations:2000", "--measure", "n"],
        ["rank", "--set", "sci:citations:2000", "--measure", "rank"],
        ["fit-gumbel", "--set", "sci:citations:2000", "--method", "newton"],
        ["rank", "--set", "sci:citations:2000", "--measure", "n", "--bogus"],
        ["overlap", "--a", "sci:citations:2000", "rank"],
        ["ks", "--set"],
    ]
)


def outcome(argv: list[str]) -> dict:
    """stdout, stderr and exit code of ``cli.run(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:  # argparse's own exit after --help
            code = exc.code
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


@pytest.fixture(scope="module")
def golden():
    return {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def test_the_golden_file_holds_every_case(golden):
    assert sorted(golden) == sorted(tuple(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "(no arguments)")
def test_help_and_usage_errors_match_the_golden_bytes(golden, argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv(cli.WORKSPACE_ENV, raising=False)
    assert outcome(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    os.environ.pop(cli.WORKSPACE_ENV, None)
    cases = [outcome(argv) for argv in CASES]
    GOLDEN.write_text(json.dumps(cases, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(cases)} cases -> {GOLDEN}", file=sys.stderr)
