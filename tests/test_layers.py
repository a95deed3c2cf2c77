"""The benchmark's layer contract, checked in-process.

``bench/smoke.py`` lists the layers each benchmark workload must call. Here a
small workspace (two years per fixture profile) is built and run on with
``bench/tracer.py``'s wrappers installed, which swap every traced function in
the package's modules for a span-recording one, so a refactor that stops
calling a listed layer fails here as well as in the slower smoke run.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        import run
        import smoke
        import tracer
    finally:
        sys.path.remove(str(BENCH))
    return smoke, tracer, run


def quiet_run(argv):
    from citemetrics import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    assert code == 0, argv
    return out.getvalue()


def build_workspace(workspace, inputs=None):
    """The benchmark's set-up: store two years per fixture profile and, given
    ``inputs``, write each set's records there as a CSV."""
    from citemetrics import ingest, synthgen

    for profile, spec in synthgen.PROFILES.items():
        for year in (spec.base_year, spec.base_year + 1):
            ranked = synthgen.build_fixture(profile, year)
            ingest.store_dataset(workspace, ranked)
            if inputs is not None:
                name = f"{ranked.discipline.value}_{ranked.basis.value}_{year}.csv"
                ingest.write_csv(inputs / name, ranked.table)


def called_layers(recorder, run):
    restore = recorder.install()
    try:
        run()
    finally:
        restore()
    return {span[0] for span in recorder.spans}


def test_the_benchmark_set_up_runs_and_writes_each_table(bench_modules, tmp_path):
    """Both workspace workloads' set-up (smoke size) runs on the package as it is,
    every file its operations read or replace exists, and ``cli_session``'s
    input CSVs are the bytes ``write_csv`` makes of each fixture's table."""
    from citemetrics import ingest, synthgen

    run = bench_modules[2]
    for name in ("cli_session", "report_workspace"):
        workload = run.CliWorkload(name, run.DEFAULT_SEED, True, tmp_path)
        workload.setup(tmp_path / name)
        for op in workload.cycle:
            missing = [str(p) for p in op.loads + op.writes if not p.exists()]
            assert not missing, (
                f"{name} {op.kind}: no file at {missing}; bench/run.py CliWorkload._data names "
                "each data file data/<discipline>_<basis>_<year>.csv, so a store that names "
                "them otherwise needs that benchmark change first"
            )
    inputs = tmp_path / "cli_session" / "inputs"
    expected = tmp_path / "expected.csv"
    names = []
    for profile, year in run.fixture_years(True):
        ranked = synthgen.build_fixture(profile, year, run.DEFAULT_SEED)
        ingest.write_csv(expected, ranked.table)
        names.append(f"{ranked.discipline.value}_{ranked.basis.value}_{year}.csv")
        assert (inputs / names[-1]).read_bytes() == expected.read_bytes(), names[-1]
    assert sorted(p.name for p in inputs.glob("*.csv")) == sorted(names)


def test_report_calls_every_layer_the_benchmark_requires(bench_modules, tmp_path):
    smoke, tracer, _ = bench_modules

    def run():
        build_workspace(tmp_path)
        quiet_run(["report", "--workspace", str(tmp_path)])

    called = called_layers(tracer.Tracer(), run)
    missing = [name for name in smoke.ACTIVE["report_workspace"] if name not in called]
    assert not missing, f"report no longer calls {missing}"


def test_cli_session_calls_every_layer_the_benchmark_requires(bench_modules, tmp_path):
    smoke, tracer, _ = bench_modules
    ws, inputs = tmp_path / "ws", tmp_path / "inputs"
    inputs.mkdir()
    a, b = "sci:citations:2000", "sci:citations:2001"

    def run():
        build_workspace(ws, inputs)
        fit = tmp_path / "fit.json"
        fit.write_text(quiet_run(["fit-gumbel", "--set", a, "--workspace", str(ws)]))
        for argv in (
            ["rank", "--set", a, "--measure", "n", "--collapse"],
            ["fit-zipf", "--set", a, "--measure", "n"],
            ["dist", "--set", a, "--measure", "cr", "--collapse"],
            ["fit-pareto", "--set", a, "--measure", "n"],
            ["fit-gumbel", "--set", a, "--method", "mle"],
            ["fit-gumbel", "--set", a, "--method", "lsq"],
            ["ks", "--set", a, "--fit", str(fit)],
            ["correlate", "--a", a, "--b", b, "--field", "rank"],
            ["correlate", "--set", a, "--x", "if", "--y", "cr"],
            ["overlap", "--a", a, "--b", b],
            ["trend", "--set", a, "--x", "articles", "--y", "if"],
            ["ingest", "--input", str(inputs / "sci_citations_2000.csv"), "--discipline", "sci",
             "--basis", "citations", "--year", "2000", "--overwrite"],
        ):
            quiet_run(argv + ["--workspace", str(ws)])

    called = called_layers(tracer.Tracer(), run)
    missing = [name for name in smoke.ACTIVE["cli_session"] if name not in called]
    assert not missing, f"the session commands no longer call {missing}"
