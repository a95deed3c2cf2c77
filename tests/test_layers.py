"""The benchmark's layer contract, checked in-process.

``bench/smoke.py`` lists the layers each benchmark workload must call. Here a
small workspace (two years per fixture profile) is built and reported on with
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
        import smoke
        import tracer
    finally:
        sys.path.remove(str(BENCH))
    return smoke, tracer


def test_report_calls_every_layer_the_benchmark_requires(bench_modules, tmp_path):
    smoke, tracer = bench_modules
    from citemetrics import cli, ingest, synthgen

    recorder = tracer.Tracer()
    restore = recorder.install()
    try:
        for profile, spec in synthgen.PROFILES.items():
            for year in (spec.base_year, spec.base_year + 1):
                ingest.store_dataset(tmp_path, synthgen.build_fixture(profile, year))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(["report", "--workspace", str(tmp_path)])
    finally:
        restore()
    assert code == 0
    called = {span[0] for span in recorder.spans}
    missing = [name for name in smoke.ACTIVE["report_workspace"] if name not in called]
    assert not missing, f"report no longer calls {missing}"
