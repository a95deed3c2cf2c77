"""citemetrics benchmark: one command, three workloads, every output checked.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (their one-line reasons are in BENCHMARK.json):

* ``report_workspace``: each operation is one cold ``python -m citemetrics.cli
  report`` over the fixture workspace (every synthgen profile, every year).
* ``cli_session``: each operation is one cold single-dataset subcommand from
  a seeded 13-command cycle; two of the 13 are ``ingest --overwrite``.
* ``fit_large``: each operation is one in-process pass of rank, Pareto and
  log-Gumbel fits over seeded samples of 1e3, 1e5 and 1e6 values.

The benchmark works on the checkout that holds it and imports the package
from ``src/`` there, never from an installed copy. It builds its inputs from
``--seed`` with ``citemetrics.synthgen`` under ``.bench_out/`` and removes
them at the end. One client process drives the program in a closed loop: one
operation in flight, no threads, at most one child process.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` it alternates untraced and traced operations in whole
cycles and reports the per-layer metrics, each per cycle (one report, the 13
session commands, or one fit pass); traced subprocess operations run under
``bench/shim.py``. A layer the workload never calls reads 0. Either way it
prints a full JSON report, writes it (and the spans of a traced run) under
``.bench_out/``, and ends with the one-line result
``{"correct", "attempted", "failed", "metrics"}``.

``bench/smoke.py`` is the benchmark's own test.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer, per_cycle, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 20001000
# op_tail_s is the 11th-slowest operation, so a run makes at least 11.
MIN_OPS = 11
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3

FIT_SIZES = (1_000, 100_000, 1_000_000)
PARETO_GAMMA, PARETO_X_MIN = 2.43, 1.0   # Zipf b = 1 / (gamma - 1) = 0.70
GUMBEL_A, GUMBEL_B = -0.55, 0.80
# Stated tolerances of fit_large: the Pareto exponent and the MLE Gumbel
# parameters lie within 5 of their own standard errors of the generating
# values. The binned least-squares Gumbel fit reports no standard error and is
# biased by its bins, which span the sample's random extremes (b came out 5-15 %
# high over ten seeds at n = 1e6), so it gets a relative tolerance.
SIGMA_TOL = 5.0
LSQ_TOL = 0.25

REPORT_KEYS = (
    "datasets", "dynamic_correlations", "consecutive_overlaps",
    "cross_measure_correlations", "if_vs_articles_trends",
)
FIT_KEYS = ("measure", "method", "params", "stderr", "fit_range")
CORRELATION_KEYS = ("subjects", "transform", "n_pairs", "r_value", "dropped_pairs")


@dataclass
class Op:
    """One operation: a CLI command (subprocess workloads) or a fit pass."""

    kind: str
    argv: list[str] = field(default_factory=list)
    keys: tuple[str, ...] = ()
    loads: tuple[Path, ...] = ()     # CSVs the command parses
    writes: tuple[Path, ...] = ()    # CSVs the command replaces
    digest: str | None = None        # content digest an ingest must store
    prepare: tuple[list[str], Path] | None = None  # set-up command whose stdout it reads


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_kb: int
    ok: bool
    reason: str = ""
    counts: dict = field(default_factory=dict)
    spans: list | None = None


# --- set-up helpers ------------------------------------------------------------


def import_package() -> float:
    """Import citemetrics from this checkout's src/; returns the import time."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import citemetrics.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import citemetrics from {SRC}: {exc}")
    elapsed = time.perf_counter() - start
    import citemetrics

    if Path(citemetrics.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"bench: citemetrics came from {citemetrics.__file__}, not {SRC}")
    return elapsed


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def machine_facts() -> dict:
    import numpy
    import scipy

    model = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            caches[f"L{level} {kind}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def fixture_years(smoke: bool):
    """(profile, year) of every fixture dataset; two years per profile in smoke."""
    from citemetrics.synthgen import PROFILES

    for profile, spec in PROFILES.items():
        years = range(spec.base_year, spec.base_year + spec.n_years)
        for year in years[:2] if smoke else years:
            yield profile, year


def spec_of(key: tuple[str, str, int]) -> str:
    return f"{key[0]}:{key[1]}:{key[2]}"


def csv_rows(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for line in fh if line.strip()) - 1


def capture_cli(argv: list[str]) -> tuple[int, str]:
    """In-process ``cli.run``: exit code and stdout."""
    from citemetrics import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


# --- workspace workloads -----------------------------------------------------


class CliWorkload:
    """Cold ``python -m citemetrics.cli`` commands over a fixture workspace."""

    def __init__(self, name: str, seed: int, smoke: bool, rundir: Path):
        self.name, self.seed, self.smoke, self.dir = name, seed, smoke, rundir
        self.expected: dict[int, bytes] = {}
        self.inproc_s: list[float] = []
        self.reference_error = ""

    def setup(self, dest: Path) -> None:
        """Build the workspace and the command inputs (timed as setup_s)."""
        from citemetrics import ingest, synthgen

        ws = dest / "workspace"
        inputs = dest / "inputs"
        inputs.mkdir(parents=True)
        keys = []
        for profile, year in fixture_years(self.smoke):
            ranked = synthgen.build_fixture(profile, year, self.seed)
            ingest.store_dataset(ws, ranked)
            key = (ranked.discipline.value, ranked.basis.value, year)
            keys.append(key)
            if self.name == "cli_session":
                ingest.write_csv(inputs / f"{key[0]}_{key[1]}_{year}.csv", ranked.records)
        self.ws, self.inputs, self.keys = ws, inputs, keys
        if self.name == "report_workspace":
            self.cycle = [self._report_op()]
        else:
            self.cycle = self._session_ops()
        for op in self.cycle:
            if op.prepare:
                argv, path = op.prepare
                code, text = capture_cli(argv)
                if code != 0:
                    raise SystemExit(f"bench: set-up command {argv} exited {code}")
                path.write_text(text, encoding="utf-8")

    def _data(self, key) -> Path:
        return self.ws / "data" / f"{key[0]}_{key[1]}_{key[2]}.csv"

    def _report_op(self) -> Op:
        return Op("report", ["report", "--workspace", str(self.ws)], REPORT_KEYS,
                  loads=tuple(self._data(k) for k in self.keys))

    def _session_ops(self) -> list[Op]:
        from citemetrics.ingest import read_manifest

        digests = {(e["discipline"], e["basis"], e["year"]): e["content_digest"]
                   for e in read_manifest(self.ws)}
        rng = random.Random(self.seed)
        keyset = set(self.keys)
        paired = [k for k in self.keys if (k[0], k[1], k[2] + 1) in keyset]
        kinds = [
            "rank", "fit-zipf", "dist", "fit-pareto", "fit-gumbel-mle", "fit-gumbel-lsq",
            "ks", "correlate-pair", "correlate-cross", "overlap", "trend", "ingest", "ingest",
        ]
        rng.shuffle(kinds)
        ops = []
        for i, kind in enumerate(kinds):
            key = rng.choice(paired if kind in ("correlate-pair", "overlap") else self.keys)
            nxt = (key[0], key[1], key[2] + 1)
            spec = spec_of(key)
            basis_measure = "n" if key[1] == "citations" else "if"
            loads = (self._data(key),)
            if kind == "rank":
                op = Op(kind, ["rank", "--set", spec, "--measure", basis_measure, "--collapse"],
                        ("label", "collapsed", "ranks", "values"), loads)
            elif kind == "fit-zipf":
                op = Op(kind, ["fit-zipf", "--set", spec, "--measure", basis_measure],
                        FIT_KEYS + ("pareto_prediction",), loads)
            elif kind == "dist":
                op = Op(kind, ["dist", "--set", spec, "--measure", "cr", "--collapse"],
                        ("measure", "binning", "scaling", "n_samples", "bin_edges",
                         "densities", "peak"), loads)
            elif kind == "fit-pareto":
                op = Op(kind, ["fit-pareto", "--set", spec, "--measure", basis_measure],
                        FIT_KEYS, loads)
            elif kind.startswith("fit-gumbel"):
                op = Op(kind, ["fit-gumbel", "--set", spec, "--method", kind.rsplit("-", 1)[1]],
                        FIT_KEYS + ("ks", "dropped_zero_articles"), loads)
            elif kind == "ks":
                fit = self.inputs / f"fit_{i}.json"
                op = Op(kind, ["ks", "--set", spec, "--fit", str(fit)], ("set", "ks"), loads,
                        prepare=(["fit-gumbel", "--set", spec, "--workspace", str(self.ws)], fit))
            elif kind == "correlate-pair":
                field_ = rng.choice(["rank", basis_measure])
                op = Op(kind, ["correlate", "--a", spec, "--b", spec_of(nxt), "--field", field_],
                        CORRELATION_KEYS, loads + (self._data(nxt),))
            elif kind == "correlate-cross":
                other = "if" if key[1] == "citations" else "n"
                op = Op(kind, ["correlate", "--set", spec, "--x", other, "--y", "cr"],
                        CORRELATION_KEYS, loads)
            elif kind == "overlap":
                op = Op(kind, ["overlap", "--a", spec, "--b", spec_of(nxt)],
                        ("a", "b", "count", "common_ids"), loads + (self._data(nxt),))
            elif kind == "trend":
                op = Op(kind, ["trend", "--set", spec, "--x", "articles", "--y", "if"],
                        ("set", "x", "y", "bins"), loads)
            else:
                source = self.inputs / f"{key[0]}_{key[1]}_{key[2]}.csv"
                op = Op(kind, ["ingest", "--input", str(source), "--discipline", key[0],
                               "--basis", key[1], "--year", str(key[2]), "--overwrite"],
                        ("stored",), (source,), (self._data(key),), digests[key])
            op.argv += ["--workspace", str(self.ws)]
            ops.append(op)
        return ops

    def time_inprocess(self) -> bytes:
        """``report`` stdout of an untraced in-process ``cli.run``, which is timed."""
        start = time.perf_counter()
        code, text = capture_cli(self.cycle[0].argv)
        self.inproc_s.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"bench: in-process report exited {code}")
        return text.encode("utf-8")

    def load_reference(self, checks: dict) -> None:
        """Every ``report`` must print what an in-process run prints, and on the
        default seed's full workspace that must hash to the recorded sha256."""
        if self.name != "report_workspace":
            return
        self.expected[0] = self.time_inprocess()
        digest = hashlib.sha256(self.expected[0]).hexdigest()
        checks["report_sha256"] = digest
        if self.seed == DEFAULT_SEED and not self.smoke:
            recorded = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
            checks["report_matches_reference"] = digest == recorded["report_sha256"]
            if digest != recorded["report_sha256"]:
                self.reference_error = "report differs from the recorded reference sha256"

    def run_op(self, index: int, traced: bool, op_id: str, tracer: Tracer | None = None) -> Sample:
        """One cold command; traced commands record their spans in the shim, not in ``tracer``."""
        op = self.cycle[index]
        out, err, spans_path = self.dir / "op.out", self.dir / "op.err", self.dir / "op.spans"
        if traced:
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "shim.py"), str(spans_path), op_id, "--", *op.argv]
        else:
            cmd = [sys.executable, "-m", "citemetrics.cli", *op.argv]
        with out.open("wb") as fo, err.open("wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=child_env(), cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout, stderr = out.read_bytes(), err.read_bytes()
        sample = Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, True)
        sample.reason = self._check(index, op, proc.returncode, stdout, stderr)
        sample.ok = not sample.reason
        if traced and spans_path.exists():
            sample.spans = json.loads(spans_path.read_text(encoding="utf-8"))
        elif traced:
            sample.spans = []
            sample.ok, sample.reason = False, sample.reason or "shim wrote no spans"
        sample.counts = self._counts(op)
        return sample

    def _check(self, index: int, op: Op, code: int, stdout: bytes, stderr: bytes) -> str:
        if self.reference_error:
            return self.reference_error
        if code != 0:
            return f"exit {code}: {stderr[-300:].decode(errors='replace')}"
        if b"Traceback" in stderr:
            return "traceback on stderr"
        try:
            payload = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        if not isinstance(payload, dict):
            return "stdout is not a JSON object"
        missing = [k for k in op.keys if k not in payload]
        if missing:
            return f"missing keys {missing}"
        stored = payload.get("stored")
        if op.digest is not None and not (isinstance(stored, dict) and stored.get("content_digest") == op.digest):
            return "ingest stored different content"
        first = self.expected.setdefault(index, stdout)
        if stdout != first:
            return "output differs from the first run of the same command"
        return ""

    def _counts(self, op: Op) -> dict:
        counts = {
            "ingest.bytes_read": sum(p.stat().st_size for p in op.loads),
            "ingest.rows_parsed": sum(csv_rows(p) for p in op.loads),
            "ingest.bytes_written": sum(p.stat().st_size for p in op.writes),
        }
        if op.kind == "report":
            years: dict[tuple, int] = {}
            for key in self.keys:
                years[key[:2]] = years.get(key[:2], 0) + 1
            # two fields (rank and value) per year pair of each discipline+basis
            counts["correlate.report_cells"] = sum(y * (y - 1) for y in years.values() if y > 1)
        return counts


# --- in-process fit workload -------------------------------------------------


class FitWorkload:
    """In-process fit passes at n = 1e3, 1e5 and 1e6; import and sampling are set-up."""

    name = "fit_large"

    def __init__(self, seed: int):
        self.seed = seed
        self.cycle = [Op("fit-pass")]
        self.first: dict | None = None

    def setup(self, dest: Path) -> None:
        import numpy as np
        from citemetrics import synthgen

        self.draws = {}  # drop the previous set-up's draws before making new ones
        for n in FIT_SIZES:
            pareto = synthgen.sample_pareto(PARETO_GAMMA, PARETO_X_MIN, n, self.seed + n)
            self.draws[n] = {
                "pareto": pareto,
                "rates": synthgen.sample_gumbel_log(GUMBEL_A, GUMBEL_B, n, self.seed + n),
                "ranks": tuple(range(1, n + 1)),
                "values": tuple(np.sort(pareto)[::-1].tolist()),
            }

    def load_reference(self, checks: dict) -> None:
        """Fit passes are checked against the first pass instead."""

    def fit_pass(self) -> dict:
        from citemetrics import distfit, rankstats
        from citemetrics.model import Basis, Discipline, FitMethod

        label = rankstats.SeriesLabel(Discipline.SCI, Basis.CITATIONS, 2000,
                                      rankstats.Measure.CITATIONS)
        out = {}
        for n, d in self.draws.items():
            series = rankstats.RankSeries(d["ranks"], d["values"], label)
            zipf = rankstats.zipf_fit(series)
            pareto = distfit.pareto_tail_fit(d["pareto"], x_min=None)
            mle_params, mle = distfit.gumbel_fit(d["rates"], method=FitMethod.MAXIMUM_LIKELIHOOD)
            _, lsq = distfit.gumbel_fit(d["rates"], method=FitMethod.LOG_LOG_LEAST_SQUARES)
            ks = distfit.gumbel_curve_ks(d["rates"], mle_params, 12)
            pdf = distfit.empirical_pdf(d["rates"], binning="log",
                                        scaling=distfit.Scaling.MEAN_SCALED)
            out[n] = {
                "zipf": (zipf.params, zipf.stderr),
                "pareto": (pareto.params, pareto.stderr),
                "mle": (mle.params, mle.stderr),
                "lsq": (lsq.params, lsq.stderr),
                "ks_D": ks["D"],
                "pdf": (pdf.bin_edges, pdf.densities),
            }
        return out

    def run_op(self, index: int, traced: bool, op_id: str, tracer: Tracer | None = None) -> Sample:
        # cycles left by earlier passes would otherwise add to this pass's peak memory
        gc.collect()
        restore = None
        if traced:
            tracer.spans, tracer.op = [], op_id
            restore = tracer.install()
        try:
            before = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter()
            result = self.fit_pass()
            wall = time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_SELF)
        finally:
            if restore:
                restore()
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        sample = Sample(wall, cpu, after.ru_maxrss, True)
        sample.reason = self._check(result)
        sample.ok = not sample.reason
        sample.spans = tracer.spans if traced else None
        # computed, not measured: 8 bytes per float64 sample handed to each of
        # the six fit calls of a size
        sample.counts = {"distfit.sample_bytes": sum(6 * 8 * n for n in self.draws)}
        return sample

    def _check(self, result: dict) -> str:
        if self.first is None:
            self.first = result
        if result != self.first:
            return "fit parameters differ from the first pass"
        for n, fits in result.items():
            (p, pe), (m, me), (l, _) = fits["pareto"], fits["mle"], fits["lsq"]
            if abs(p["gamma"] - PARETO_GAMMA) > SIGMA_TOL * pe["gamma"]:
                return f"n={n}: gamma {p['gamma']:.4f} outside tolerance"
            for k, true in (("a", GUMBEL_A), ("b", GUMBEL_B)):
                if abs(m[k] - true) > SIGMA_TOL * me[k]:
                    return f"n={n}: MLE {k} {m[k]:.4f} outside tolerance"
                if abs(l[k] - true) > LSQ_TOL * abs(true):
                    return f"n={n}: LSQ {k} {l[k]:.4f} outside tolerance"
        return ""


# --- measurement -----------------------------------------------------------------


def import_times() -> dict:
    """``-X importtime`` totals of ``import citemetrics.cli`` in fresh interpreters.

    ``cli.import_s`` is the cumulative time of the top-level import;
    ``cli.import_scipy_s`` sums the shallowest ``scipy`` entries under it (0
    when the import no longer loads scipy).
    """
    cli_s, scipy_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import citemetrics.cli"],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
        )
        rows = []
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
        cli_s.append(sum(us for depth, name, us in rows if name == "citemetrics.cli" and depth == 1) / 1e6)
        scipy_rows = [(d, us) for d, name, us in rows if name == "scipy" or name.startswith("scipy.")]
        top = min((d for d, _ in scipy_rows), default=None)
        scipy_s.append(sum(us for d, us in scipy_rows if d == top) / 1e6)
    return {"cli.import_s": statistics.median(cli_s), "cli.import_scipy_s": statistics.median(scipy_s)}


def tail(walls: list[float]) -> tuple[float, float, int]:
    """Highest percentile with ten samples beyond it: (value, percentile, beyond)."""
    ordered = sorted(walls)
    n = len(ordered)
    if n < MIN_OPS:
        return ordered[-1], 100.0, 0
    return ordered[n - MIN_OPS], 100.0 * (n - 10) / n, 10


def sum_counts(samples: list[Sample]) -> dict:
    total: dict[str, int] = {}
    for s in samples:
        for key, value in s.counts.items():
            total[key] = total.get(key, 0) + value
    return total


def run_setups(workload, rundir: Path, tracer: Tracer | None) -> list[float]:
    """Set up SETUP_REPEATS times and keep the last; a tracer records only that one."""
    times = []
    for i in range(SETUP_REPEATS):
        dest = rundir / f"setup{i}"
        last = i == SETUP_REPEATS - 1
        restore = tracer.install() if tracer and last else None
        try:
            start = time.perf_counter()
            workload.setup(dest)
            times.append(time.perf_counter() - start)
        finally:
            if restore:
                restore()
        if not last:
            shutil.rmtree(dest, ignore_errors=True)
    return times


def untraced_run(workload, seconds: float, min_ops: int) -> tuple[list[Sample], float]:
    cycle = len(workload.cycle)
    samples: list[Sample] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(samples) < min_ops:
        i = len(samples)
        samples.append(workload.run_op(i % cycle, False, f"op{i}"))
    return samples, time.perf_counter() - start


def traced_run(workload, seconds: float) -> tuple[list[list[Sample]], list[list[Sample]]]:
    """Whole cycles of (untraced, traced) operation pairs; starts no cycle that would overrun."""
    tracer = Tracer()
    plain: list[list[Sample]] = []
    traced: list[list[Sample]] = []
    start, last = time.perf_counter(), 0.0
    while not plain or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        plain.append([])
        traced.append([])
        for i in range(len(workload.cycle)):
            op_id = f"c{len(plain) - 1}.op{i}"
            plain[-1].append(workload.run_op(i, False, op_id))
            traced[-1].append(workload.run_op(i, True, op_id, tracer))
        if workload.name == "report_workspace":
            workload.time_inprocess()
        last = time.perf_counter() - began
    return plain, traced


# --- reporting -------------------------------------------------------------------


def end_to_end(samples: list[Sample], elapsed: float, setup_s: float) -> tuple[dict, dict]:
    walls = [s.wall for s in samples]
    value, pct, beyond = tail(walls)
    ok = sum(s.ok for s in samples)
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(walls),
        "op_tail_s": value,
        "ops_per_s": ok / elapsed,
        "op_cpu_s": statistics.median(s.cpu for s in samples),
        "peak_rss_mb": max(s.rss_kb for s in samples) / 1024.0,
        "ok_ratio": ok / len(samples),
    }
    extra = {
        "samples": len(samples),
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "failed_ratio": 1.0 - metrics["ok_ratio"],
        "measured_s": elapsed,
        "op_walls_s": [round(w, 4) for w in walls],
        "op_cpus_s": [round(s.cpu, 4) for s in samples],
    }
    return metrics, extra


def per_layer(plain, traced, setup_spans, workload) -> tuple[dict, dict]:
    layers, drift = per_cycle([[s.spans for s in cycle] for cycle in traced])
    setup_layers, _ = per_cycle([[setup_spans]])
    metrics: dict[str, float] = {}
    for name, row in layers.items():
        if not name.startswith("synthgen."):
            for key, value in row.items():
                metrics[f"{name}.{key}"] = value
    for name, row in setup_layers.items():
        if name.startswith("synthgen."):
            for key, value in row.items():
                metrics[f"{name}.{key}"] = value

    cycle_counts = [sum_counts(cycle) for cycle in traced]
    count_drift = [k for k in cycle_counts[0] if any(c[k] != cycle_counts[0][k] for c in cycle_counts)]
    metrics.update(cycle_counts[0])
    parse_busy = metrics.get("ingest.parse_csv.busy_s", 0.0)
    if parse_busy > 0:
        metrics["ingest.parse_csv.rows_per_s"] = metrics["ingest.rows_parsed"] / parse_busy
    metrics.update(import_times())
    plain_walls = [s.wall for c in plain for s in c]
    traced_walls = [s.wall for c in traced for s in c]
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)

    extra = {
        "cycles": len(traced),
        "ops_per_cycle": len(workload.cycle),
        "calls_drift": drift,
        "computed_counts_drift": count_drift,
        "computed_counts_note": "bytes from file sizes, rows from line counts, "
                                "cells from the manifest, sample bytes as n x 8 per fit call",
    }
    if workload.name == "report_workspace":
        # per operation, the self times of all its spans against an untraced
        # in-process cli.run of the same report
        selfsum = statistics.median(
            sum(row["self_ns"] for row in summarize(s.spans).values()) / 1e9
            for cycle in traced for s in cycle
        )
        inproc = statistics.median(workload.inproc_s)
        extra["self_time_sum_s"] = selfsum
        extra["cli_run_inprocess_untraced_s"] = inproc
        extra["self_sum_within_overhead"] = abs(selfsum - inproc) <= abs(metrics["trace.overhead_s"])
    return metrics, extra


def select(metrics: dict, wanted: list[dict]) -> dict:
    return {
        m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }


def main(argv=None) -> int:
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench_spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench_spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="two years per profile and no minimum operation count")
    args = parser.parse_args(argv)

    import_s = import_package()
    rundir = OUT / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        if args.workload == "fit_large":
            workload = FitWorkload(args.seed)
        else:
            workload = CliWorkload(args.workload, args.seed, args.smoke, rundir)
        setup_tracer = Tracer() if args.trace else None
        if setup_tracer:
            setup_tracer.op = "setup"
        setup_times = run_setups(workload, rundir, setup_tracer)
        setup_s = import_s + statistics.median(setup_times)
        checks: dict[str, object] = {}
        workload.load_reference(checks)
        workload.run_op(0, False, "warmup")

        result: dict = {
            "workload": args.workload,
            "why": next(w["why"] for w in bench_spec["workloads"] if w["name"] == args.workload),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "machine": machine_facts(),
            "closed_loop": "one client, one operation in flight, at most one child process",
            "setup_times_s": setup_times,
            "import_s": import_s,
            "checks": checks,
        }
        if args.trace:
            setup_spans = setup_tracer.spans
            plain, traced = traced_run(workload, args.seconds)
            samples = [s for c in plain for s in c] + [s for c in traced for s in c]
            metrics, extra = per_layer(plain, traced, setup_spans, workload)
            result["per_layer"] = metrics
            result["trace_run"] = extra
            wanted = bench_spec["per_layer"]
            if extra["calls_drift"] or extra["computed_counts_drift"]:
                checks["drift"] = extra["calls_drift"] + extra["computed_counts_drift"]
            spans = [setup_spans] + [s.spans for c in traced for s in c]
            with (OUT / f"spans-{args.workload}-seed{args.seed}.jsonl").open("w", encoding="utf-8") as fh:
                for op_spans in spans:
                    for i, (name, start, end, parent, op) in enumerate(op_spans):
                        fh.write(json.dumps({"op": op, "i": i, "name": name, "start_ns": start,
                                             "end_ns": end, "parent": parent}) + "\n")
        else:
            samples, elapsed = untraced_run(workload, args.seconds, 1 if args.smoke else MIN_OPS)
            metrics, extra = end_to_end(samples, elapsed, setup_s)
            result["end_to_end"] = metrics
            result["end_to_end_detail"] = extra
            wanted = bench_spec["end_to_end"]
        failures = [s.reason for s in samples if not s.ok]
        result["failures"] = sorted(set(failures))[:10]
        correct = not failures and "drift" not in checks
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    print(json.dumps(result, indent=2))
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": select(metrics, wanted),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
