"""Command-line front end: ingest datasets, run analyses, emit reports.

Machine-readable JSON goes to stdout, a short human summary to stderr, so
output can be piped into other tools. Exit codes: 0 success, 1 usage error,
2 data/validation error (arithmetic past the float range included), 3 fit
non-convergence. Floats in emitted JSON are rounded to 9 significant digits
so repeated runs over the same workspace are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache
from itertools import groupby
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

# Nothing here calls BLAS, and OpenBLAS's idle thread pool costs CPU at import. This
# runs before numpy's first import: each handler imports numpy and the analysis
# modules it runs, and nothing imported here loads numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import CitemetricsError, FitConvergenceError, ValidationError, WorkspaceError
from .ingest import load_dataset, parse_csv, read_manifest, store_dataset, write_csv
from .model import (
    Basis, Discipline, FitMethod, FitResult, FixtureProfile, Measure, RankedSet, basis_measure,
    build_ranked_set,
)

if TYPE_CHECKING:
    import numpy as np
    from .correlate import CorrelationReport
    from .distfit import GumbelParams

WORKSPACE_ENV = "CITEMETRICS_WORKSPACE"
# Faults of the data: each fails only its own section of `report`, and exits a
# command with 2 (3 for a fit that did not converge). In `run`, numpy's float
# overflow, division by zero and 0/0 raise.
_DATA_FAULTS = (ValidationError, FitConvergenceError, FloatingPointError, OverflowError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _x_min(text: str) -> float | None:
    """argparse type of ``fit-pareto --xmin``: ``auto`` (None) or a number."""
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or a number, got {text!r}") from None


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _json(payload: dict) -> str:
    return json.dumps(_round_floats(payload), sort_keys=True, indent=2)


def _emit(payload: dict, summary: str) -> None:
    print(_json(payload))
    print(summary, file=sys.stderr)


def _parse_spec(spec: str) -> tuple[Discipline, Basis, int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"bad dataset spec {spec!r}, expected discipline:basis:year")
    try:
        discipline = Discipline(parts[0])
        basis = Basis(parts[1])
        year = int(parts[2])
    except ValueError:
        raise UsageError(
            f"bad dataset spec {spec!r}: discipline in (sci, socsci), "
            "basis in (citations, if), year an integer"
        ) from None
    return discipline, basis, year


def _workspace(args) -> Path:
    if args.workspace:
        return Path(args.workspace)
    env = os.environ.get(WORKSPACE_ENV)
    if env:
        return Path(env)
    raise UsageError(f"no workspace given: pass --workspace or set {WORKSPACE_ENV}")


def _load(args, spec: str) -> RankedSet:
    discipline, basis, year = _parse_spec(spec)
    return load_dataset(_workspace(args), discipline, basis, year)


def _fit_json(measure: str, fit: FitResult, extra: dict | None = None) -> dict:
    payload = {
        "measure": measure,
        "method": fit.method.value,
        "params": dict(fit.params),
        "stderr": dict(fit.stderr),
        "fit_range": list(fit.fit_range),
    }
    if extra:
        payload.update(extra)
    return payload


def _scaled_rates(ranked: RankedSet) -> tuple[np.ndarray, int]:
    from .indices import derive_rates
    from .rankstats import rank_series
    dropped = len(derive_rates(ranked).dropped)
    rates = rank_series(ranked, Measure.RATE).values
    return rates / rates.mean(), dropped


def _curve_ks(ranked: RankedSet, scaled: np.ndarray, params: GumbelParams, **options) -> dict:
    """KS of the rate curve ``scaled`` against ``params`` at the set's reference
    points: 12 for citation-ranked sets, 14 otherwise."""
    from .distfit import gumbel_curve_ks
    return gumbel_curve_ks(scaled, params, 12 if ranked.basis is Basis.CITATIONS else 14, **options)


# --- subcommand handlers -----------------------------------------------------


def _cmd_ingest(args) -> None:
    discipline = Discipline(args.discipline)
    basis = Basis(args.basis)
    table = parse_csv(args.input)
    try:
        ranked = build_ranked_set(table, discipline, basis, args.year, cap=args.top)
    except ValidationError as exc:  # duplicate ids, another year, no rows
        raise ValidationError(f"{args.input}: {exc}") from None
    entry = store_dataset(_workspace(args), ranked, overwrite=args.overwrite)
    _emit(
        {"stored": entry},
        f"ingested {len(ranked)} rows as "
        f"{discipline.value}:{basis.value}:{args.year}",
    )


def _cmd_rank(args) -> None:
    from .rankstats import rank_series, scale_by_mean, write_series_csv
    ranked = _load(args, args.set)
    series = rank_series(ranked, Measure(args.measure))
    if args.collapse:
        series = scale_by_mean(series)
    payload = {
        "label": series.label.text(),
        "collapsed": bool(args.collapse),
        "ranks": series.ranks.tolist(),
        "values": series.values.tolist(),
    }
    if args.emit:
        write_series_csv(args.emit, series.label.text(), series.ranks, series.values)
        payload["written"] = args.emit
    _emit(payload, f"rank series {series.label.text()}: {len(series)} points")


def _cmd_fit_zipf(args) -> None:
    from .distfit import zipf_pareto_predict
    from .rankstats import rank_series, zipf_fit
    ranked = _load(args, args.set)
    series = rank_series(ranked, Measure(args.measure))
    fit = zipf_fit(series, k_min=args.kmin)
    payload = _fit_json(args.measure, fit)
    payload["pareto_prediction"] = zipf_pareto_predict(fit.params["b"]) if fit.params["b"] > 0 else None
    _emit(
        payload,
        f"zipf fit {series.label.text()}: b = {fit.params['b']:.4f} "
        f"± {fit.stderr['b']:.4f}",
    )


def _cmd_dist(args) -> None:
    from .distfit import Scaling, empirical_pdf, pdf_peak_location
    from .rankstats import rank_series, write_series_csv
    samples = rank_series(_load(args, args.set), Measure(args.measure)).values
    scaling = Scaling.MEAN_SCALED if args.collapse else Scaling.RAW
    dist = empirical_pdf(samples, binning=args.binning, scaling=scaling)
    centers = [float(c) for c in dist.centers()]
    payload = {
        "measure": args.measure,
        "binning": args.binning,
        "scaling": dist.scaling.value,
        "n_samples": dist.n_samples,
        "bin_edges": list(dist.bin_edges),
        "densities": list(dist.densities),
    }
    if scaling is Scaling.MEAN_SCALED:
        payload["peak"] = pdf_peak_location(dist)
    if args.emit:
        write_series_csv(args.emit, f"{args.set}:{args.measure}:pdf", centers, dist.densities)
        payload["written"] = args.emit
    _emit(payload, f"pdf {args.set}:{args.measure}: {len(centers)} bins")


def _cmd_fit_pareto(args) -> None:
    from .distfit import pareto_tail_fit
    from .rankstats import rank_series
    samples = rank_series(_load(args, args.set), Measure(args.measure)).values
    fit = pareto_tail_fit(samples, x_min=args.xmin)
    _emit(
        _fit_json(args.measure, fit),
        f"pareto tail {args.set}:{args.measure}: gamma = "
        f"{fit.params['gamma']:.4f} ± {fit.stderr['gamma']:.4f} "
        f"(x_min = {fit.params['x_min']:.4g})",
    )


def _cmd_fit_gumbel(args) -> None:
    from .distfit import gumbel_fit
    ranked = _load(args, args.set)
    scaled, dropped = _scaled_rates(ranked)
    method = (
        FitMethod.MAXIMUM_LIKELIHOOD if args.method == "mle"
        else FitMethod.LOG_LOG_LEAST_SQUARES
    )
    params, fit = gumbel_fit(scaled, method=method)
    ks = _curve_ks(ranked, scaled, params)
    payload = _fit_json("cr", fit, {"ks": ks, "dropped_zero_articles": dropped})
    _emit(
        payload,
        f"log-gumbel fit {args.set}: a = {params.a:.4f}, b = {params.b:.4f}, "
        f"KS D = {ks['D']:.4f} ({'pass' if ks['pass'] else 'FAIL'})",
    )


def _cmd_ks(args) -> None:
    from .distfit import GumbelParams, check_log_base
    ranked = _load(args, args.set)
    try:
        # integers read as floats: a literal of any length converts (past 1e308 to inf)
        fit_payload = json.loads(Path(args.fit).read_text(encoding="utf-8-sig"), parse_int=float)
        a, b = float(fit_payload["params"]["a"]), float(fit_payload["params"]["b"])
        log_base = float(fit_payload["params"].get("log_base", math.e))
        params = GumbelParams(a, b)
        check_log_base(log_base)
    except ValidationError as exc:  # numbers out of range
        raise ValidationError(f"{args.fit}: {exc}") from None
    except OSError as exc:  # missing, a directory, no permission
        raise ValidationError(f"{args.fit}: {exc.strerror}") from None
    except (KeyError, TypeError, ValueError, RecursionError):  # bad bytes or JSON, deep nesting
        raise ValidationError(f"{args.fit}: expected a fit report with params.a and params.b") from None
    scaled, _ = _scaled_rates(ranked)
    ks = _curve_ks(ranked, scaled, params, log_base=log_base, significance=args.significance)
    _emit(
        {"set": args.set, "ks": ks},
        f"KS {args.set}: D = {ks['D']:.4f} vs critical {ks['critical']:.3f} "
        f"at s = {args.significance} -> {'pass' if ks['pass'] else 'FAIL'}",
    )


def _cmd_correlate(args) -> None:
    from .correlate import cross_measure_correlation, dynamic_correlation
    pair_mode = args.a is not None or args.b is not None
    cross_mode = args.set is not None or args.x is not None or args.y is not None
    if pair_mode == cross_mode:
        raise UsageError("use either --a/--b/--field or --set/--x/--y")
    if pair_mode:
        if not (args.a and args.b and args.field):
            raise UsageError("pair correlation needs --a, --b and --field")
        report = dynamic_correlation(
            _load(args, args.a), _load(args, args.b), Measure(args.field)
        )
    else:
        if not (args.set and args.x and args.y):
            raise UsageError("cross-measure correlation needs --set, --x and --y")
        report = cross_measure_correlation(
            _load(args, args.set), Measure(args.x), Measure(args.y)
        )
    _emit(
        report.as_dict(),
        f"R = {report.r_value:.4f} over {report.n_pairs} pairs "
        f"({report.transform.value})",
    )


def _cmd_overlap(args) -> None:
    from .rankstats import set_overlap
    common, count = set_overlap(_load(args, args.a), _load(args, args.b))
    _emit(
        {"a": args.a, "b": args.b, "count": count, "common_ids": list(common)},
        f"overlap {args.a} ~ {args.b}: {count} journals",
    )


def _cmd_trend(args) -> None:
    import numpy as np
    from .correlate import binned_trend
    ranked = _load(args, args.set)
    xs, ys = ranked.column(args.x), ranked.column(args.y)
    defined = ~(np.isnan(xs) | np.isnan(ys))
    if not defined.any():
        raise ValidationError(f"{args.set}: no journal has both {args.x} and {args.y} defined")
    rows = binned_trend(xs[defined], ys[defined], n_bins=args.bins)
    payload = {
        "set": args.set,
        "x": args.x,
        "y": args.y,
        "bins": _bins(rows),
    }
    _emit(payload, f"trend {args.y} vs {args.x} over {len(rows)} bins")


def _cmd_synth(args) -> None:
    from .synthgen import build_fixture, fixture_metadata
    fixture = build_fixture(args.profile, args.year, args.seed)
    write_csv(args.out, fixture.table)
    meta = fixture_metadata(args.profile, args.year, args.seed)
    meta_path = Path(args.out).with_suffix(Path(args.out).suffix + ".meta.json")
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    _emit(
        {"written": str(args.out), "metadata": str(meta_path), "rows": len(fixture)},
        f"synthesized {args.profile}:{args.year} (seed {args.seed}) -> {args.out}",
    )


def _key(ranked: RankedSet, other: RankedSet | None = None) -> dict:
    """The fields naming a set, or with ``other`` a pair of years of its group."""
    years = ({"year": ranked.year} if other is None
             else {"year_a": ranked.year, "year_b": other.year})
    return {"discipline": ranked.discipline.value, "basis": ranked.basis.value, **years}


def _bins(rows: list[tuple[float, float, float]]) -> list[dict]:
    return [{"center": c, "mean": m, "stderr": s} for c, m, s in rows]


def _cell(cell: CorrelationReport | str) -> dict:
    """A correlation report, or the message of the error that replaced it."""
    return {"error": cell} if isinstance(cell, str) else cell.as_dict()


def _message(exc: Exception) -> str:
    return f"arithmetic error: {exc}" if isinstance(exc, ArithmeticError) else str(exc)


def _section(build: Callable[[], dict | list]) -> dict | list:
    """``build()``, or ``{"error": message}`` if it raises a data fault: one
    section of `report` fails, not the whole report."""
    try:
        return build()
    except _DATA_FAULTS as exc:
        return {"error": _message(exc)}


def _dataset_report(ranked: RankedSet) -> dict:
    from .distfit import (
        Scaling, empirical_pdf, gumbel_fit, pareto_tail_fit, pdf_peak_location, zipf_pareto_predict,
    )
    from .rankstats import rank_series, zipf_fit
    basis_m = basis_measure(ranked.basis)
    series = cache(lambda: rank_series(ranked, basis_m))  # built once, by the part first using it
    out = {**_key(ranked), "rows": len(ranked)}
    out["zipf"] = _section(lambda: _fit_json(basis_m.value, zipf_fit(series())))
    b = out["zipf"].get("params", {}).get("b", 0.0)
    out["pareto_predicted_gamma"] = zipf_pareto_predict(b) if b > 0 else None
    out["pareto"] = _section(lambda: _fit_json(basis_m.value, pareto_tail_fit(series().values)))

    def gumbel() -> dict:
        scaled, dropped = _scaled_rates(ranked)
        params, fit = gumbel_fit(scaled)
        ks = _curve_ks(ranked, scaled, params)
        dist = empirical_pdf(scaled, binning="log", scaling=Scaling.MEAN_SCALED)
        out.update(cr_peak=pdf_peak_location(dist), dropped_zero_articles=dropped)
        return _fit_json("cr", fit, {"ks": ks})

    out["gumbel"] = _section(gumbel)
    return out


def _cross_measure(ranked: RankedSet) -> dict:
    """The rate against the measure the set is not ranked by."""
    from .correlate import cross_measure_correlation
    (other,) = {Measure.CITATIONS, Measure.IMPACT_FACTOR} - {basis_measure(ranked.basis)}
    return {**_key(ranked),
            **_section(lambda: cross_measure_correlation(ranked, other, Measure.RATE).as_dict())}


def _if_vs_articles(ranked: RankedSet) -> dict:
    from .correlate import binned_trend
    articles = ranked.column("articles")
    has_articles = articles > 0
    bins = _section(
        lambda: _bins(binned_trend(articles[has_articles], ranked.column("if")[has_articles]))
    )
    return {**_key(ranked), "x": "articles", "y": "if", "bins": bins}


def _year_pairs(sets: list[RankedSet]) -> list[dict]:
    """Rank and value correlations of every pair of years of one group."""
    from .correlate import correlation_matrix
    _, rank_cells = correlation_matrix(sets, Measure.RANK)
    _, value_cells = correlation_matrix(sets, basis_measure(sets[0].basis))
    return [
        {**_key(a, b), "rank": _cell(rank_cells[a.year, b.year]),
         "value": _cell(value_cells[a.year, b.year])}
        for i, a in enumerate(sets) for b in sets[i + 1:]
    ]


def _group_report(workspace: Path, entries: list[dict], keys: Iterable[tuple[str, str, int]],
                  report: dict) -> None:
    """Load the sets of one discipline+basis group, ``keys`` in ascending years,
    and append their sections to ``report``; the sets die when this returns."""
    from .rankstats import set_overlap
    sets = [load_dataset(workspace, Discipline(d), Basis(b), year, entries=entries)
            for d, b, year in keys]
    for ds in sets:
        report["datasets"].append(_dataset_report(ds))
        report["cross_measure_correlations"].append(_cross_measure(ds))
        report["if_vs_articles_trends"].append(_if_vs_articles(ds))
    if len(sets) > 1:
        report["dynamic_correlations"] += _year_pairs(sets)
        report["consecutive_overlaps"] += [
            {**_key(a, b), "count": set_overlap(a, b)[1]} for a, b in zip(sets, sets[1:])
        ]


def _cmd_report(args) -> None:
    workspace = _workspace(args)
    entries = read_manifest(workspace)
    if not entries:
        raise WorkspaceError(f"workspace {workspace} holds no datasets")
    # a key the manifest repeats names one set
    keys = sorted({(e["discipline"], e["basis"], e["year"]) for e in entries})
    report = {name: [] for name in ("datasets", "dynamic_correlations", "consecutive_overlaps",
                                    "cross_measure_correlations", "if_vs_articles_trends")}
    # one group in memory at a time: each is a run of ascending years of the sorted keys
    for _, group in groupby(keys, key=lambda k: k[:2]):
        _group_report(workspace, entries, group, report)

    text = _json(report) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    written = f" -> {args.out}" if args.out else ""
    print(f"report over {len(keys)} datasets{written}", file=sys.stderr)


# --- command table -----------------------------------------------------------


class _Command(NamedTuple):
    handler: Callable[[argparse.Namespace], None]
    help: str
    args: tuple[tuple[str, dict], ...]
    numpy: bool = True  # False: it computes nothing numeric and runs without numpy


def _arg(flag: str, **kwargs) -> tuple[str, dict]:
    """One argument of a command: its flag and the keywords of ``add_argument``."""
    return flag, kwargs


def _optional(args: Iterable[tuple[str, dict]]) -> tuple[tuple[str, dict], ...]:
    """``args`` with none of them required."""
    return tuple((flag, {**kwargs, "required": False}) for flag, kwargs in args)


_VALUES = [m.value for m in Measure if m is not Measure.RANK]
_SET, _YEAR = _arg("--set", required=True), _arg("--year", required=True, type=int)
_MEASURE = _arg("--measure", required=True, choices=_VALUES)
_COLLAPSE, _EMIT = _arg("--collapse", action="store_true"), _arg("--emit")
_PAIR = (_arg("--a", required=True), _arg("--b", required=True))
_AXES = tuple(_arg(f"--{axis}", required=True, choices=["articles", *_VALUES]) for axis in "xy")

_COMMANDS = {
    "ingest": _Command(_cmd_ingest, "parse a CSV and store it as a ranked dataset", (
        _arg("--input", required=True),
        _arg("--discipline", required=True, choices=[d.value for d in Discipline]),
        _arg("--basis", required=True, choices=[b.value for b in Basis]),
        _YEAR, _arg("--top", type=_int_at_least(1), default=1000),
        _arg("--overwrite", action="store_true"),
    ), numpy=False),
    "rank": _Command(_cmd_rank, "rank series of a measure", (_SET, _MEASURE, _COLLAPSE, _EMIT)),
    "fit-zipf": _Command(_cmd_fit_zipf, "log-log rank-law fit",
                         (_SET, _MEASURE, _arg("--kmin", type=_int_at_least(0), default=10))),
    "dist": _Command(_cmd_dist, "binned probability density of a measure", (
        _SET, _MEASURE, _arg("--binning", default="log", choices=["log", "linear"]),
        _COLLAPSE, _EMIT,
    )),
    "fit-pareto": _Command(_cmd_fit_pareto, "maximum-likelihood tail exponent",
                           (_SET, _MEASURE, _arg("--xmin", type=_x_min, default="auto"))),
    "fit-gumbel": _Command(_cmd_fit_gumbel, "log-Gumbel fit of the citation-rate collapse",
                           (_SET, _arg("--method", default="mle", choices=["mle", "lsq"]))),
    "ks": _Command(_cmd_ks, "KS check of the rate curve against a stored fit", (
        _SET, _arg("--fit", required=True, help="fit report JSON (from fit-gumbel)"),
        _arg("--significance", type=float, default=0.20),
    )),
    # both modes' arguments; the handler checks that one mode is given whole
    "correlate": _Command(_cmd_correlate, "year-pair or cross-measure correlation", _optional((
        *_PAIR, _arg("--field", choices=[m.value for m in Measure]),
        _SET, _arg("--x", choices=_VALUES), _arg("--y", choices=_VALUES),
    ))),
    "overlap": _Command(_cmd_overlap, "journals common to two datasets", _PAIR, numpy=False),
    "trend": _Command(_cmd_trend, "binned mean of one measure over another",
                      (_SET, *_AXES, _arg("--bins", type=_int_at_least(1), default=10))),
    "synth": _Command(_cmd_synth, "generate a synthetic fixture dataset", (
        _arg("--profile", required=True, choices=[f.value for f in FixtureProfile]), _YEAR,
        _arg("--seed", type=_int_at_least(0), default=20001000), _arg("--out", required=True),
    )),
    "report": _Command(_cmd_report, "full analysis over every stored dataset", (_arg("--out"),)),
}


def _build_parser(argv: list[str]) -> _Parser:
    """Every command's name and help line, but the arguments only of the first
    word of ``argv`` that names a command: the top-level parser takes no option
    with a value, so that word is the command argparse runs, if it runs one."""
    parser = _Parser(prog="citemetrics", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = next((word for word in argv if word in _COMMANDS), None)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if name == chosen:
            p.add_argument("--workspace", help=f"dataset workspace (default ${WORKSPACE_ENV})")
            for flag, kwargs in command.args:
                p.add_argument(flag, **kwargs)
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        command = _COMMANDS[args.command]
        if command.numpy:
            import numpy as np
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                command.handler(args)
        else:
            command.handler(args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FitConvergenceError as exc:
        print(f"fit did not converge: {exc}", file=sys.stderr)
        return 3
    except (*_DATA_FAULTS, CitemetricsError, OSError) as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
