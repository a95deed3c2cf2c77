import codecs
import contextlib
import errno
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import citemetrics
from citemetrics import cli, distfit
from citemetrics.cli import run
from citemetrics.errors import FitConvergenceError
from citemetrics.ingest import store_dataset, write_csv
from citemetrics.model import (
    MAX_FLOAT_INT, Basis, Discipline, JournalTable, JournalYearRecord, build_ranked_set,
)
from citemetrics.synthgen import PROFILES, build_fixture

# sha256 of `report` stdout over every synthgen profile and year at seed 20001000.
REPORT_SHA256 = "da56533e7dd93c084a7d03abf732a02e229d8af5e13fb0038b39b96415c4ca67"
# sha256 of `report` stdout over the small odd workspace of
# `test_report_bytes_pinned_on_odd_workspace`, recorded before `report` was rebuilt.
ODD_REPORT_SHA256 = "4e2f08684132a91488b9f3c997fe06f2ac0003a5ee0d5a86e2105e6d00ee313e"


def invoke(capsys, *argv, expect=0):
    rc = run(list(argv))
    captured = capsys.readouterr()
    assert rc == expect, f"{argv}: rc={rc}, stderr={captured.err}"
    return captured


def load_json(captured):
    return json.loads(captured.out)


def store_rows(ws, rows, discipline="sci", basis="citations", year=2007):
    """Store ``(journal_id, citations, impact_factor, articles)`` rows as one set."""
    table = JournalTable.from_rows((j, year, c, i, a) for j, c, i, a in rows)
    store_dataset(ws, build_ranked_set(table, Discipline(discipline), Basis(basis), year))


# 30 impact-factor-ranked journals whose IFs, from 0.85e308 to 1.7e308, sum past
# the float range.
HUGE_IF_ROWS = [(f"H{k:02d}", 10, 1.7e308 - k * (0.85e308 / 29), 5) for k in range(30)]


@pytest.fixture
def workspace(tmp_path, capsys):
    ws = tmp_path / "ws"
    ws.mkdir()
    for year in (2005, 2006):
        csv = tmp_path / f"fix{year}.csv"
        invoke(
            capsys, "synth", "--profile", "sci_set_i", "--year", str(year),
            "--seed", "20001000", "--out", str(csv),
        )
        invoke(
            capsys, "ingest", "--workspace", str(ws), "--input", str(csv),
            "--discipline", "sci", "--basis", "citations", "--year", str(year),
        )
    return ws


def four_group_workspace(root):
    """The first two years of every synthgen profile: one group per discipline+basis."""
    ws = root / "ws"
    for profile, spec in PROFILES.items():
        for year in (spec.base_year, spec.base_year + 1):
            store_dataset(ws, build_fixture(profile, year, 20001000))
    return ws


class TestSynthAndIngest:
    def test_synth_writes_csv_and_metadata(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        captured = invoke(
            capsys, "synth", "--profile", "sci_set_ii", "--year", "2002",
            "--seed", "3", "--out", str(out),
        )
        payload = load_json(captured)
        assert payload["rows"] == 1000
        assert out.exists()
        meta = json.loads((tmp_path / "f.csv.meta.json").read_text())
        assert meta["profile"] == "sci_set_ii"

    def test_ingest_duplicate_is_data_error(self, workspace, tmp_path, capsys):
        csv = tmp_path / "fix2005.csv"
        invoke(
            capsys, "ingest", "--workspace", str(workspace), "--input", str(csv),
            "--discipline", "sci", "--basis", "citations", "--year", "2005",
            expect=2,
        )

    def test_ingest_overwrite_allowed(self, workspace, tmp_path, capsys):
        csv = tmp_path / "fix2005.csv"
        invoke(
            capsys, "ingest", "--workspace", str(workspace), "--input", str(csv),
            "--discipline", "sci", "--basis", "citations", "--year", "2005",
            "--overwrite",
        )

    def test_csv_with_byte_order_mark_ingests_as_without(self, tmp_path, capsys):
        plain = tmp_path / "plain.csv"
        invoke(capsys, "synth", "--profile", "sci_set_i", "--year", "2005", "--out", str(plain))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        stored = []
        for csv in (plain, marked):
            ws = tmp_path / f"ws_{csv.stem}"
            entry = load_json(invoke(
                capsys, "ingest", "--workspace", str(ws), "--input", str(csv),
                "--discipline", "sci", "--basis", "citations", "--year", "2005",
            ))["stored"]
            stored.append((entry["content_digest"], (ws / entry["source_path"]).read_bytes()))
        assert stored[0] == stored[1]


class TestAnalysisCommands:
    def test_fit_zipf_reports_band_exponent(self, workspace, capsys):
        captured = invoke(
            capsys, "fit-zipf", "--workspace", str(workspace),
            "--set", "sci:citations:2005", "--measure", "n",
        )
        payload = load_json(captured)
        assert 0.65 < payload["params"]["b"] < 0.75
        assert payload["method"] == "log_log_least_squares"

    def test_rank_collapse_emit(self, workspace, tmp_path, capsys):
        out = tmp_path / "series.csv"
        captured = invoke(
            capsys, "rank", "--workspace", str(workspace),
            "--set", "sci:citations:2005", "--measure", "n",
            "--collapse", "--emit", str(out),
        )
        payload = load_json(captured)
        assert payload["collapsed"] is True
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# label: sci:citations:2005:n")
        assert lines[1] == "x,y"

    def test_dist_collapse_reports_peak(self, workspace, capsys):
        captured = invoke(
            capsys, "dist", "--workspace", str(workspace),
            "--set", "sci:citations:2005", "--measure", "cr", "--collapse",
        )
        payload = load_json(captured)
        assert 0.4 <= payload["peak"] <= 0.6

    def test_fit_pareto_explicit_xmin(self, workspace, capsys):
        captured = invoke(
            capsys, "fit-pareto", "--workspace", str(workspace),
            "--set", "sci:citations:2005", "--measure", "n", "--xmin", "auto",
        )
        payload = load_json(captured)
        assert payload["params"]["gamma"] > 1.0

    def test_fit_pareto_numeric_xmin(self, workspace, capsys):
        captured = invoke(
            capsys, "fit-pareto", "--workspace", str(workspace),
            "--set", "sci:citations:2005", "--measure", "n", "--xmin", "100",
        )
        payload = load_json(captured)
        assert payload["params"]["x_min"] == 100.0
        assert payload["fit_range"][0] == 100.0
        assert payload["params"]["gamma"] > 1.0

    def test_dist_emit_writes_series_csv(self, workspace, tmp_path, capsys):
        out = tmp_path / "pdf.csv"
        captured = invoke(
            capsys, "dist", "--workspace", str(workspace),
            "--set", "sci:citations:2005", "--measure", "n", "--emit", str(out),
        )
        payload = load_json(captured)
        assert payload["written"] == str(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "# label: sci:citations:2005:n:pdf"
        assert lines[1] == "x,y"
        assert len(lines) == 2 + len(payload["densities"])

    def test_fit_gumbel_and_ks_roundtrip(self, workspace, tmp_path, capsys):
        captured = invoke(
            capsys, "fit-gumbel", "--workspace", str(workspace),
            "--set", "sci:citations:2005",
        )
        payload = load_json(captured)
        assert payload["ks"]["pass"] is True
        fit_file = tmp_path / "fit.json"
        fit_file.write_text(json.dumps(payload))
        captured = invoke(
            capsys, "ks", "--workspace", str(workspace),
            "--set", "sci:citations:2005", "--fit", str(fit_file),
        )
        ks_payload = load_json(captured)
        assert ks_payload["ks"]["critical"] == 0.295
        assert ks_payload["ks"]["pass"] is True

    def test_ks_reads_a_fit_report_after_a_byte_order_mark(self, workspace, tmp_path, capsys):
        fit = load_json(invoke(
            capsys, "fit-gumbel", "--workspace", str(workspace), "--set", "sci:citations:2005",
        ))
        fit_file = tmp_path / "fit.json"
        outcomes = []
        for mark in (b"", codecs.BOM_UTF8):
            fit_file.write_bytes(mark + json.dumps(fit).encode())
            captured = invoke(
                capsys, "ks", "--workspace", str(workspace),
                "--set", "sci:citations:2005", "--fit", str(fit_file),
            )
            outcomes.append((captured.out, captured.err))
        assert outcomes[0] == outcomes[1]

    def test_correlate_pair_self_is_unity(self, workspace, capsys):
        captured = invoke(
            capsys, "correlate", "--workspace", str(workspace),
            "--a", "sci:citations:2005", "--b", "sci:citations:2005",
            "--field", "rank",
        )
        assert load_json(captured)["r_value"] == 1.0

    def test_correlate_cross_measure(self, workspace, capsys):
        captured = invoke(
            capsys, "correlate", "--workspace", str(workspace),
            "--set", "sci:citations:2005", "--x", "if", "--y", "cr",
        )
        payload = load_json(captured)
        assert 0.65 < payload["r_value"] < 0.78

    def test_correlate_mixed_modes_is_usage_error(self, workspace, capsys):
        invoke(
            capsys, "correlate", "--workspace", str(workspace),
            "--a", "sci:citations:2005", "--set", "sci:citations:2005",
            "--b", "sci:citations:2006", "--field", "rank", "--x", "n", "--y", "cr",
            expect=1,
        )

    def test_overlap_exact_count(self, workspace, capsys):
        captured = invoke(
            capsys, "overlap", "--workspace", str(workspace),
            "--a", "sci:citations:2005", "--b", "sci:citations:2006",
        )
        assert load_json(captured)["count"] == 905

    def test_trend_bins(self, workspace, capsys):
        captured = invoke(
            capsys, "trend", "--workspace", str(workspace),
            "--set", "sci:citations:2005", "--x", "articles", "--y", "if",
            "--bins", "8",
        )
        payload = load_json(captured)
        assert len(payload["bins"]) >= 1


class TestErrorPaths:
    def test_unknown_dataset_is_exit_2(self, workspace, capsys):
        invoke(
            capsys, "fit-zipf", "--workspace", str(workspace),
            "--set", "sci:citations:1990", "--measure", "n",
            expect=2,
        )

    def test_bad_spec_format_is_usage_error(self, workspace, capsys):
        invoke(
            capsys, "fit-zipf", "--workspace", str(workspace),
            "--set", "sci-2005", "--measure", "n",
            expect=1,
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit-zipf", "--set", "sci:citations:abc", "--measure", "n"], "year an integer"),
            (["correlate", "--a", "sci:citations:2005"], "pair correlation needs --a, --b"),
            (["correlate", "--set", "sci:citations:2005"], "cross-measure correlation needs"),
        ],
        ids=["spec_year_not_integer", "correlate_only_a", "correlate_only_set"],
    )
    def test_incomplete_request_is_usage_error(self, workspace, capsys, argv, message):
        captured = invoke(capsys, *argv, "--workspace", str(workspace), expect=1)
        assert captured.err.startswith("usage error: ") and message in captured.err

    def test_fit_that_did_not_converge_is_exit_3_and_one_report_section(
        self, workspace, capsys, monkeypatch
    ):
        before = load_json(invoke(capsys, "report", "--workspace", str(workspace)))

        def no_convergence(*args, **kwargs):
            raise FitConvergenceError("scale equation did not converge")

        monkeypatch.setattr(cli, "gumbel_fit", no_convergence)
        captured = invoke(
            capsys, "fit-gumbel", "--workspace", str(workspace), "--set", "sci:citations:2005",
            expect=3,
        )
        assert captured.err.startswith("fit did not converge: scale equation")
        after = load_json(invoke(capsys, "report", "--workspace", str(workspace)))
        assert len(after["datasets"]) == len(before["datasets"]) == 2
        for old, new in zip(before["datasets"], after["datasets"]):
            assert new["gumbel"] == {"error": "scale equation did not converge"}
            assert (new["zipf"], new["pareto"]) == (old["zipf"], old["pareto"])

    def test_least_squares_fit_out_of_iterations_is_exit_3(self, workspace, capsys, monkeypatch):
        monkeypatch.setattr(distfit, "GUMBEL_MAX_ITER", 1)
        captured = invoke(
            capsys, "fit-gumbel", "--workspace", str(workspace), "--set", "sci:citations:2005",
            "--method", "lsq", expect=3,
        )
        assert captured.err.startswith("fit did not converge:")
        assert "Traceback" not in captured.err

    def test_unbracketed_gumbel_scale_equation_is_exit_3(self, workspace, capsys, monkeypatch):
        monkeypatch.setattr(distfit, "_gumbel_scale_equation", lambda x, xs: lambda b: 1.0)
        captured = invoke(
            capsys, "fit-gumbel", "--workspace", str(workspace), "--set", "sci:citations:2005",
            expect=3,
        )
        assert captured.err == (
            "fit did not converge: could not bracket the Gumbel scale equation\n"
        )

    def test_missing_workspace_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("CITEMETRICS_WORKSPACE", raising=False)
        invoke(capsys, "fit-zipf", "--set", "sci:citations:2005", "--measure", "n", expect=1)

    def test_workspace_env_var_honored(self, workspace, capsys, monkeypatch):
        monkeypatch.setenv("CITEMETRICS_WORKSPACE", str(workspace))
        captured = invoke(
            capsys, "overlap", "--a", "sci:citations:2005", "--b", "sci:citations:2006"
        )
        assert load_json(captured)["count"] == 905

    def test_unknown_subcommand_is_usage_error(self, capsys):
        invoke(capsys, "frobnicate", expect=1)

    def test_trend_without_defined_pairs_is_exit_2(self, tmp_path, capsys):
        csv = tmp_path / "no_articles.csv"
        rows = ["journal_id,year,citations,impact_factor,articles"]
        rows += [f"J{i},2005,{100 - i},1.5,0" for i in range(20)]
        csv.write_text("\n".join(rows) + "\n")
        ws = tmp_path / "ws"
        invoke(
            capsys, "ingest", "--workspace", str(ws), "--input", str(csv),
            "--discipline", "sci", "--basis", "citations", "--year", "2005",
        )
        captured = invoke(
            capsys, "trend", "--workspace", str(ws), "--set", "sci:citations:2005",
            "--x", "cr", "--y", "if", expect=2,
        )
        assert "no journal has both cr and if" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_non_finite_impact_factor_is_exit_2_with_line(self, tmp_path, capsys, text):
        csv = tmp_path / "bad.csv"
        csv.write_text(
            "journal_id,year,citations,impact_factor,articles\n"
            f"A,2005,10,1.0,2\nB,2005,9,{text},2\n"
        )
        captured = invoke(
            capsys, "ingest", "--workspace", str(tmp_path / "ws"), "--input", str(csv),
            "--discipline", "sci", "--basis", "citations", "--year", "2005", expect=2,
        )
        assert "line 3" in captured.err and "finite" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("basis", ["citations", "if"])
    def test_citations_beyond_float_range_is_exit_2_with_line(self, tmp_path, capsys, basis):
        csv = tmp_path / "big.csv"
        csv.write_text(
            "journal_id,year,citations,impact_factor,articles\n"
            f"A,2005,10,1.0,2\nB,2005,{'9' * 400},0.5,2\n"
        )
        captured = invoke(
            capsys, "ingest", "--workspace", str(tmp_path / "ws"), "--input", str(csv),
            "--discipline", "sci", "--basis", basis, "--year", "2005", expect=2,
        )
        assert "line 3" in captured.err and "float range" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["trend", "--set", "sci:citations:2005", "--x", "n", "--y", "if", "--bins", "-3"],
            ["trend", "--set", "sci:citations:2005", "--x", "n", "--y", "if", "--bins", "0"],
            ["fit-pareto", "--set", "sci:citations:2005", "--measure", "n", "--xmin", "abc"],
            ["synth", "--profile", "sci_set_i", "--year", "2005", "--seed", "-1"],
            ["trend", "--set", "sci:citations:2005", "--x", "n", "--y", "if", "--bins", "abc"],
            ["ingest", "--input", "absent.csv", "--discipline", "sci", "--basis", "citations",
             "--year", "2005", "--top", "0"],
            ["ingest", "--input", "absent.csv", "--discipline", "sci", "--basis", "citations",
             "--year", "2005", "--top", "-3"],
            ["fit-zipf", "--set", "sci:citations:2005", "--measure", "n", "--kmin", "-5"],
        ],
    )
    def test_bad_argument_is_usage_error(self, workspace, tmp_path, capsys, argv):
        if argv[0] == "synth":
            argv = argv + ["--out", str(tmp_path / "s.csv")]
        captured = invoke(capsys, *argv, "--workspace", str(workspace), expect=1)
        assert captured.err.startswith("usage error: argument")
        assert "Traceback" not in captured.err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("x_min", ["nan", "inf", "-inf"])
    def test_non_finite_xmin_is_exit_2(self, workspace, capsys, x_min):
        captured = invoke(
            capsys, "fit-pareto", "--workspace", str(workspace), "--set", "sci:citations:2005",
            "--measure", "n", f"--xmin={x_min}", expect=2,
        )
        assert "x_min must be positive and finite" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("log_base", [1, 0.5])
    def test_bad_log_base_in_fit_is_exit_2(self, workspace, tmp_path, capsys, log_base):
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps({"params": {"a": -0.5, "b": 0.8, "log_base": log_base}}))
        captured = invoke(
            capsys, "ks", "--workspace", str(workspace), "--set", "sci:citations:2005",
            "--fit", str(fit), expect=2,
        )
        assert "log base" in captured.err
        assert "Traceback" not in captured.err and "Warning" not in captured.err

    @pytest.mark.parametrize("argv", [["fit-zipf", "--measure", "if"],
                                      ["trend", "--x", "articles", "--y", "if"]])
    def test_arithmetic_past_the_float_range_is_exit_2(self, tmp_path, capsys, argv):
        store_rows(tmp_path, HUGE_IF_ROWS, basis="if", year=2000)
        captured = invoke(capsys, *argv, "--set", "sci:if:2000", "--workspace", str(tmp_path),
                          expect=2)
        assert captured.err.startswith("error: arithmetic error: ")
        assert "Traceback" not in captured.err and "Infinity" not in captured.out

    @pytest.mark.parametrize("argv, bins", [
        (["ks", "--fit", "FIT"], 12),
        (["dist", "--measure", "cr", "--binning", "linear"], 20),
    ])
    def test_rates_an_ulp_apart_are_exit_2(self, tmp_path, capsys, argv, bins):
        # 20 journals at rate 1/3 and 20 one ulp above it: some bin has zero width.
        rows = [(f"A{k:02d}", 1, 1.0, 3) for k in range(20)]
        rows += [(f"B{k:02d}", 10**16 + 1, 1.0, 3 * 10**16) for k in range(20)]
        store_rows(tmp_path, rows, year=2000)
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps({"params": {"a": -0.5, "b": 0.8}}))
        argv = [str(fit) if arg == "FIT" else arg for arg in argv]
        captured = invoke(capsys, *argv, "--set", "sci:citations:2000", "--workspace",
                          str(tmp_path), expect=2)
        assert captured.err == f"error: cannot bin the samples into {bins} bins of positive width\n"

    def test_overflow_the_fits_tolerate_stays_silent(self, tmp_path, capsys):
        """A count of MAX_FLOAT_INT overflows the top Pareto candidate, which is
        dropped, and the top PDF edge, which is pinned to the maximum."""
        table = build_fixture("sci_set_i", 2000).table
        rows = list(zip(table.journal_id, table.citations, table.impact_factor,
                        table.articles))[:300]
        rows[0] = (rows[0][0], MAX_FLOAT_INT, *rows[0][2:])
        store_rows(tmp_path, rows, year=2000)
        captured = invoke(capsys, "fit-pareto", "--workspace", str(tmp_path),
                          "--set", "sci:citations:2000", "--measure", "n")
        payload = load_json(captured)
        assert payload["params"] == {"gamma": 1.32881652, "x_min": 10352.0}
        assert payload["fit_range"] == [10352.0, 1.79769313e308]
        assert captured.err.startswith("pareto tail")
        report = load_json(invoke(capsys, "report", "--workspace", str(tmp_path)))
        assert report["datasets"][0]["pareto"] == payload

    def test_non_numeric_fit_params_is_exit_2(self, workspace, tmp_path, capsys):
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps({"params": {"a": "x", "b": 1.0}}))
        captured = invoke(
            capsys, "ks", "--workspace", str(workspace), "--set", "sci:citations:2005",
            "--fit", str(fit), expect=2,
        )
        assert "params.a and params.b" in captured.err

    @pytest.mark.parametrize(
        "params, message",
        [
            ('"a": -0.5, "b": 1e400', "Gumbel scale must be finite, got inf"),
            ('"a": NaN, "b": 0.8', "Gumbel location must be finite, got nan"),
            # past int()'s digit limit, read as a float
            ('"a": %s, "b": 0.8' % ("9" * 5000), "Gumbel location must be finite, got inf"),
            ('"a": -0.5, "b": -1', "Gumbel scale must be positive, got -1.0"),
            ('"a": -0.5, "b": 0.8, "log_base": 1', "log base must be finite and exceed 1, got 1.0"),
        ],
    )
    def test_non_finite_fit_params_is_exit_2(self, workspace, tmp_path, capsys, params, message):
        fit = tmp_path / "fit.json"
        fit.write_text('{"params": {%s}}' % params)
        captured = invoke(
            capsys, "ks", "--workspace", str(workspace), "--set", "sci:citations:2005",
            "--fit", str(fit), expect=2,
        )
        assert captured.err == f"error: {fit}: {message}\n"

    @pytest.mark.parametrize("where", ["absolute", "dotdot"])
    def test_manifest_path_outside_workspace_is_exit_2(self, workspace, tmp_path, capsys, where):
        # A readable copy of a stored set, outside the workspace, with a matching digest:
        # only the path check keeps it from loading.
        outside = tmp_path / "outside.csv"
        outside.write_bytes((workspace / "data" / "sci_citations_2005.csv").read_bytes())
        source = str(outside) if where == "absolute" else "data/../../outside.csv"
        manifest = workspace / "manifest.json"
        payload = json.loads(manifest.read_text())
        for entry in payload["entries"]:
            if entry["year"] == 2005:
                entry["source_path"] = source
        manifest.write_text(json.dumps(payload))
        for argv in (["report"], ["rank", "--set", "sci:citations:2005", "--measure", "n"]):
            captured = invoke(capsys, *argv, "--workspace", str(workspace), expect=2)
            assert f"path {source!r} leaves the workspace" in captured.err
            assert "Traceback" not in captured.err

    @pytest.mark.parametrize("link", ["file", "data_dir"])
    def test_symlink_out_of_workspace_is_exit_2(self, workspace, tmp_path, capsys, link):
        # The outside copy has the stored bytes, so its digest matches.
        outside = tmp_path / "outside"
        outside.mkdir()
        data = workspace / "data"
        for stored in data.iterdir():
            (outside / stored.name).write_bytes(stored.read_bytes())
        if link == "file":
            (data / "sci_citations_2005.csv").unlink()
            (data / "sci_citations_2005.csv").symlink_to(outside / "sci_citations_2005.csv")
        else:
            data.rename(tmp_path / "moved")
            data.symlink_to(outside, target_is_directory=True)
        for argv in (["report"], ["rank", "--set", "sci:citations:2005", "--measure", "n"]):
            captured = invoke(capsys, *argv, "--workspace", str(workspace), expect=2)
            assert f"resolves to {outside / 'sci_citations_2005.csv'}, outside the workspace" \
                in captured.err
            assert "Traceback" not in captured.err

    def test_symlink_inside_workspace_loads(self, workspace, capsys):
        data = workspace / "data"
        (workspace / "kept.csv").write_bytes((data / "sci_citations_2005.csv").read_bytes())
        (data / "sci_citations_2005.csv").unlink()
        (data / "sci_citations_2005.csv").symlink_to(workspace / "kept.csv")
        invoke(capsys, "rank", "--workspace", str(workspace), "--set", "sci:citations:2005",
               "--measure", "n")

    def test_undecodable_csv_is_exit_2_with_line(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_bytes(b"journal_id,year,citations,impact_factor,articles\n"
                        b"A,2005,10,1.0,2\nB,2005,9,1.0,\xff\n")
        captured = invoke(
            capsys, "ingest", "--workspace", str(tmp_path / "ws"), "--input", str(csv),
            "--discipline", "sci", "--basis", "citations", "--year", "2005", expect=2,
        )
        assert captured.err.startswith(f"error: {csv}: line 3: 'utf-8' codec can't decode")
        assert "Traceback" not in captured.err

    def test_undecodable_manifest_is_exit_2(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        ws.mkdir()
        (ws / "manifest.json").write_bytes(b"\xff{")
        captured = invoke(capsys, "report", "--workspace", str(ws), expect=2)
        assert "utf-8" in captured.err

    def test_manifest_that_is_not_json_is_exit_2(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        ws.mkdir()
        (ws / "manifest.json").write_text("not json")
        captured = invoke(capsys, "report", "--workspace", str(ws), expect=2)
        assert captured.err.startswith(f"error: {ws / 'manifest.json'}: Expecting value: line 1")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("data", [b"\xff{}", b"not json", b"[" * 200_000 + b"]" * 200_000],
                             ids=["not_utf8", "not_json", "deep"])
    def test_unreadable_fit_report_is_exit_2(self, workspace, tmp_path, capsys, data):
        fit = tmp_path / "fit.json"
        fit.write_bytes(data)
        captured = invoke(
            capsys, "ks", "--workspace", str(workspace), "--set", "sci:citations:2005",
            "--fit", str(fit), expect=2,
        )
        assert captured.err == f"error: {fit}: expected a fit report with params.a and params.b\n"

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("option", ["--input", "--fit"])
    def test_unopenable_file_is_exit_2_naming_it(self, workspace, tmp_path, capsys, option, kind):
        path = tmp_path / "given"
        strerror = errno.ENOENT
        if kind == "directory":
            path.mkdir()
            strerror = errno.EISDIR
        if option == "--input":
            argv = ["ingest", "--input", str(path), "--discipline", "sci", "--basis", "citations",
                    "--year", "2007"]
        else:
            argv = ["ks", "--set", "sci:citations:2005", "--fit", str(path)]
        captured = invoke(capsys, *argv, "--workspace", str(workspace), expect=2)
        assert captured.err == f"error: {path}: {os.strerror(strerror)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv", [["rank", "--set", "sci:citations:2005", "--measure", "n"], ["report"]],
        ids=["rank", "report"],
    )
    def test_unreadable_data_file_is_exit_2_naming_it(self, workspace, capsys, argv):
        data = workspace / "data" / "sci_citations_2005.csv"
        data.unlink()
        data.mkdir()
        captured = invoke(capsys, *argv, "--workspace", str(workspace), expect=2)
        assert captured.err == f"error: {data}: {os.strerror(errno.EISDIR)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [["rank", "--set", "sci:citations:2005", "--measure", "n"], ["report"],
         ["ingest", "--discipline", "sci", "--basis", "citations", "--year", "2005",
          "--overwrite"]],
        ids=["rank", "report", "ingest"],
    )
    def test_unreadable_manifest_is_exit_2_naming_it(self, workspace, tmp_path, capsys, argv):
        manifest = workspace / "manifest.json"
        manifest.unlink()
        manifest.mkdir()
        if argv[0] == "ingest":
            argv = [*argv, "--input", str(tmp_path / "fix2005.csv")]
        captured = invoke(capsys, *argv, "--workspace", str(workspace), expect=2)
        assert captured.err == f"error: {manifest}: {os.strerror(errno.EISDIR)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "edit, fault",
        [({"cap": 5}, "1000 records exceed cap 5"),
         ({"year": 2001}, "record year 2005 != set year 2001")],
        ids=["cap", "year"],
    )
    def test_manifest_entry_contradicting_its_file_is_exit_2_naming_it(
        self, workspace, capsys, edit, fault
    ):
        manifest = workspace / "manifest.json"
        payload = json.loads(manifest.read_text())
        next(e for e in payload["entries"] if e["year"] == 2005).update(edit)
        manifest.write_text(json.dumps(payload))
        data = workspace / "data" / "sci_citations_2005.csv"
        year = edit.get("year", 2005)
        for argv in (["rank", "--set", f"sci:citations:{year}", "--measure", "n"], ["report"]):
            captured = invoke(capsys, *argv, "--workspace", str(workspace), expect=2)
            assert captured.err.startswith(f"error: {data}: ")
            assert captured.err.endswith(f"{fault}\n")
            assert captured.out == ""

    def test_failed_replace_leaves_the_workspace_as_it_was(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        before = {p: p.read_bytes() for p in workspace.rglob("*") if p.is_file()}

        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        captured = invoke(
            capsys, "ingest", "--workspace", str(workspace), "--input",
            str(tmp_path / "fix2005.csv"), "--discipline", "sci", "--basis", "citations",
            "--year", "2005", "--overwrite", expect=2,
        )
        data = workspace / "data" / "sci_citations_2005.csv"
        assert captured.err == f"error: {data}: No space left on device\n"
        assert {p: p.read_bytes() for p in workspace.rglob("*") if p.is_file()} == before

    def test_data_file_name_too_long_is_exit_2_naming_it(self, workspace, tmp_path, capsys):
        year = 10**300  # the model takes it; the file name it gives exceeds NAME_MAX
        rows = (tmp_path / "fix2005.csv").read_text().replace(",2005,", f",{year},")
        (tmp_path / "huge.csv").write_text(rows)
        before = {p: p.read_bytes() for p in workspace.rglob("*") if p.is_file()}
        captured = invoke(
            capsys, "ingest", "--workspace", str(workspace), "--input", str(tmp_path / "huge.csv"),
            "--discipline", "sci", "--basis", "citations", "--year", str(year), expect=2,
        )
        data = workspace / "data" / f"sci_citations_{year}.csv"
        assert captured.err == f"error: {data}: {os.strerror(errno.ENAMETOOLONG)}\n"
        assert "[Errno" not in captured.err
        assert {p: p.read_bytes() for p in workspace.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize(
        "manifest",
        [
            [{"discipline": "sci", "basis": "citations", "year": 2005}],
            {"entries": [{"discipline": "sci", "basis": "citations", "year": 2005}]},
        ],
    )
    def test_malformed_manifest_is_exit_2(self, tmp_path, capsys, manifest):
        ws = tmp_path / "ws"
        ws.mkdir()
        (ws / "manifest.json").write_text(json.dumps(manifest))
        for argv in (["report"], ["rank", "--set", "sci:citations:2005", "--measure", "n"]):
            captured = invoke(capsys, *argv, "--workspace", str(ws), expect=2)
            assert "manifest.json" in captured.err
            assert "Traceback" not in captured.err


class TestReport:
    def test_report_runs_and_is_deterministic(self, workspace, tmp_path, capsys):
        out_a = tmp_path / "report_a.json"
        out_b = tmp_path / "report_b.json"
        invoke(capsys, "report", "--workspace", str(workspace), "--out", str(out_a))
        invoke(capsys, "report", "--workspace", str(workspace), "--out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()
        payload = json.loads(out_a.read_text())
        assert len(payload["datasets"]) == 2
        assert payload["consecutive_overlaps"][0]["count"] == 905

    def test_tiny_dataset_degrades_only_its_own_section(self, workspace, tmp_path, capsys):
        csv = tmp_path / "fix2007.csv"
        invoke(
            capsys, "synth", "--profile", "sci_set_i", "--year", "2007",
            "--seed", "20001000", "--out", str(csv),
        )
        invoke(
            capsys, "ingest", "--workspace", str(workspace), "--input", str(csv),
            "--discipline", "sci", "--basis", "citations", "--year", "2007", "--top", "15",
        )
        captured = invoke(capsys, "report", "--workspace", str(workspace))
        assert "Traceback" not in captured.err
        by_year = {d["year"]: d for d in load_json(captured)["datasets"]}
        assert by_year[2007]["rows"] == 15
        assert "rank > 10" in by_year[2007]["zipf"]["error"]
        assert by_year[2007]["pareto_predicted_gamma"] is None
        for year in (2005, 2006):
            assert "b" in by_year[year]["zipf"]["params"]
            assert by_year[year]["pareto_predicted_gamma"] > 1

    def test_report_bytes_pinned_on_full_fixture_workspace(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        for profile, spec in PROFILES.items():
            for year in range(spec.base_year, spec.base_year + spec.n_years):
                store_dataset(ws, build_fixture(profile, year, 20001000))
        captured = invoke(capsys, "report", "--workspace", str(ws))
        assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == REPORT_SHA256

    def test_report_bytes_pinned_on_odd_workspace(self, tmp_path, capsys):
        """A year gap (sci:citations), a one-year group (sci:if), sets of 15 and 2
        rows, too small for the Zipf, Pareto and Gumbel fits (socsci:citations),
        and two years with no journal in common (socsci:if), whose correlation
        cells, and one cross-measure cell, hold errors."""
        ws = tmp_path / "ws"
        for year in (2000, 2001, 2003):
            store_dataset(ws, build_fixture("sci_set_i", year))
        store_dataset(ws, build_fixture("sci_set_ii", 2004))
        for year, cap in ((2007, 1000), (2008, 15), (2009, 2)):
            fixture = build_fixture("socsci_set_i", year)
            store_dataset(ws, build_ranked_set(fixture.table, fixture.discipline,
                                               fixture.basis, year, cap=cap))
        for year, prefix in ((2010, "x"), (2011, "y")):
            rows = [(f"{prefix}1", year, 40, 2.5, 0), (f"{prefix}2", year, 12, 1.5, 8)]
            store_dataset(ws, build_ranked_set(JournalTable.from_rows(rows), Discipline.SOCSCI,
                                               Basis.IMPACT_FACTOR, year))
        captured = invoke(capsys, "report", "--workspace", str(ws))
        assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == ODD_REPORT_SHA256

    def test_report_keeps_a_set_without_articles_to_its_own_trend(self, workspace, capsys):
        rows = [("z1", 2010, 40, 2.5, 0), ("z2", 2010, 12, 1.5, 0)]
        store_dataset(workspace, build_ranked_set(JournalTable.from_rows(rows), Discipline.SOCSCI,
                                                  Basis.IMPACT_FACTOR, 2010))
        trends = load_json(invoke(capsys, "report", "--workspace", str(workspace)))[
            "if_vs_articles_trends"]
        errors = [t for t in trends if isinstance(t["bins"], dict)]
        assert [(t["discipline"], t["year"]) for t in errors] == [("socsci", 2010)]
        assert "error" in errors[0]["bins"]
        assert all(t["bins"] for t in trends if t not in errors)

    def test_report_keeps_a_one_journal_set_to_its_own_pair_cells(self, workspace, capsys):
        rows = [("solo", 2000, 40, 2.5, 8)]
        store_dataset(workspace, build_ranked_set(JournalTable.from_rows(rows), Discipline.SCI,
                                                  Basis.CITATIONS, 2000))
        pairs = load_json(invoke(capsys, "report", "--workspace", str(workspace)))[
            "dynamic_correlations"]
        failed = {(p["year_a"], p["year_b"]): (p["rank"], p["value"]) for p in pairs
                  if "error" in p["rank"] or "error" in p["value"]}
        assert sorted(failed) == [(2000, 2005), (2000, 2006)]
        assert all("error" in cell for cells in failed.values() for cell in cells)
        assert len(pairs) == 3

    @pytest.mark.parametrize("basis, measure", [("citations", "n"), ("if", "if")])
    def test_report_keeps_an_all_zero_set_to_its_own_cells(self, workspace, capsys, basis,
                                                           measure):
        zero = [(f"Z{k:02d}", 0 if basis == "citations" else 30 - k,
                 0.0 if basis == "if" else 1.0 + k / 10, 3 + k % 4) for k in range(30)]
        store_rows(workspace, zero, basis=basis)
        report = load_json(invoke(capsys, "report", "--workspace", str(workspace)))
        failed = [(name, entry.get("year", entry.get("year_b")))
                  for name, entries in report.items() for entry in entries
                  if any(isinstance(v, dict) and "error" in v for v in entry.values())]
        assert failed and all(year == 2007 for _, year in failed), failed
        (zero_set,) = [d for d in report["datasets"] if d["year"] == 2007]
        for part in ("zipf", "pareto"):
            assert zero_set[part] == {"error": f"no positive {measure!r} values in set"}
        assert [d["year"] for d in report["datasets"]] == [2005, 2006, 2007]

    def test_report_releases_each_group_before_the_next_loads(self, tmp_path, capsys,
                                                              monkeypatch):
        ws = four_group_workspace(tmp_path)
        loaded = {}  # (discipline, basis) -> weak references to its loaded sets
        alive_at_start = {}  # (discipline, basis) -> sets of earlier groups alive as it began
        load = cli.load_dataset

        def tracked(workspace, discipline, basis, year, **kwargs):
            group = (discipline.value, basis.value)
            if group not in loaded:
                gc.collect()
                alive_at_start[group] = sum(
                    ref() is not None for refs in loaded.values() for ref in refs)
                loaded[group] = []
            ranked = load(workspace, discipline, basis, year, **kwargs)
            loaded[group].append(weakref.ref(ranked))
            return ranked

        monkeypatch.setattr(cli, "load_dataset", tracked)
        invoke(capsys, "report", "--workspace", str(ws))
        assert alive_at_start == {group: 0 for group in GROUPS}
        assert all(len(refs) == 2 for refs in loaded.values())

    def test_fault_in_the_last_group_leaves_no_partial_report(self, tmp_path, capsys):
        ws = four_group_workspace(tmp_path)
        data = ws / "data" / "socsci_if_2008.csv"
        data.write_bytes(data.read_bytes() + b"X,2008,1,1.0,1\r\n")
        out = tmp_path / "f.json"
        captured = invoke(capsys, "report", "--workspace", str(ws), "--out", str(out), expect=2)
        assert captured.err.startswith("error: digest mismatch for socsci_if_2008.csv: ")
        assert captured.out == ""
        assert not out.exists()

    def test_repeated_manifest_entry_names_one_set(self, tmp_path, capsys):
        ws = four_group_workspace(tmp_path)
        once = invoke(capsys, "report", "--workspace", str(ws))
        manifest = ws / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["entries"].append(payload["entries"][3])
        manifest.write_text(json.dumps(payload))
        twice = invoke(capsys, "report", "--workspace", str(ws))
        assert twice.out == once.out
        assert twice.err == once.err == "report over 8 datasets\n"

    def test_report_on_empty_workspace_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty_ws"
        empty.mkdir()
        invoke(capsys, "report", "--workspace", str(empty), expect=2)


class TestRowType:
    def test_package_paths_build_no_records(self, tmp_path, capsys, monkeypatch):
        """Fixtures, ingest, synth and report pass tables; no JournalYearRecord is built."""
        built = []
        check = JournalYearRecord.__post_init__

        def counted(record):
            built.append(record.journal_id)
            check(record)

        monkeypatch.setattr(JournalYearRecord, "__post_init__", counted)
        ws = tmp_path / "ws"
        for profile, spec in PROFILES.items():
            store_dataset(ws, build_fixture(profile, spec.base_year))
        csv = tmp_path / "f.csv"
        invoke(capsys, "synth", "--profile", "sci_set_i", "--year", "2001", "--out", str(csv))
        invoke(
            capsys, "ingest", "--workspace", str(ws), "--input", str(csv),
            "--discipline", "sci", "--basis", "citations", "--year", "2001",
        )
        invoke(capsys, "report", "--workspace", str(ws))
        assert built == []
        JournalYearRecord("J", 2001, 1, 1.0, 1)
        assert built == ["J"]


class TestColdImport:
    def run_child(self, code, *args, **env):
        """Run ``code`` in a fresh interpreter. ``OPENBLAS_NUM_THREADS`` is
        dropped from the environment (this process may have set it by importing
        ``cli``) unless ``env`` sets it again."""
        src = str(Path(citemetrics.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"} | env
        return subprocess.run(
            [sys.executable, "-c", code, *args], env=env | {"PYTHONPATH": src},
            capture_output=True, text=True,
        )

    def test_package_import_does_not_load_numpy(self):
        done = self.run_child("import sys, citemetrics; assert 'numpy' not in sys.modules")
        assert done.returncode == 0, done.stderr

    def test_every_public_name_is_its_modules_own(self):
        code = (
            "import sys\n"
            "from citemetrics import *\n"
            "import citemetrics\n"
            "assert len(citemetrics.__all__) == 55, len(citemetrics.__all__)\n"
            "for name in citemetrics.__all__:\n"
            "    exec(f'from citemetrics import {name} as value')\n"
            "    assert value is globals()[name], name\n"
            "    assert getattr(sys.modules[value.__module__], name) is value, name\n"
            "    assert value.__module__.startswith('citemetrics.'), name\n"
        )
        done = self.run_child(code)
        assert done.returncode == 0, done.stderr

    def test_unknown_name_is_attribute_error(self):
        # hasattr is False on AttributeError only; any other exception fails the child
        done = self.run_child("import citemetrics; assert not hasattr(citemetrics, 'no_such_name')")
        assert done.returncode == 0, done.stderr

    def test_cli_import_starts_one_blas_thread(self):
        code = (
            "import os, citemetrics.cli\n"
            "assert os.environ['OPENBLAS_NUM_THREADS'] == '1'\n"
            "if os.path.isdir('/proc/self/task'):\n"
            "    assert len(os.listdir('/proc/self/task')) == 1, os.listdir('/proc/self/task')\n"
        )
        done = self.run_child(code)
        assert done.returncode == 0, done.stderr

    def test_cli_import_keeps_the_users_thread_count(self):
        code = "import os, citemetrics.cli; assert os.environ['OPENBLAS_NUM_THREADS'] == '2'"
        done = self.run_child(code, OPENBLAS_NUM_THREADS="2")
        assert done.returncode == 0, done.stderr

    def test_cli_import_does_not_load_scipy(self):
        done = self.run_child("import sys, citemetrics.cli; assert 'scipy' not in sys.modules")
        assert done.returncode == 0, done.stderr

    def test_default_commands_do_not_load_scipy(self, workspace):
        code = (
            "import sys\n"
            "from citemetrics.cli import run\n"
            "ws = sys.argv[1]\n"
            "assert run(['report', '--workspace', ws]) == 0\n"
            "assert run(['fit-gumbel', '--workspace', ws, '--set', 'sci:citations:2005']) == 0\n"
            "assert 'scipy' not in sys.modules\n"
            "assert run(['fit-gumbel', '--workspace', ws, '--set', 'sci:citations:2005',\n"
            "            '--method', 'lsq']) == 0\n"
            "assert 'scipy' not in sys.modules\n"
        )
        done = self.run_child(code, str(workspace))
        assert done.returncode == 0, done.stderr



# --- every report section stays local ---------------------------------------------

# Per journal k = 1, 2, ...: (citations, impact factor, articles) of a healthy set
# and of degenerate ones.
SET_KINDS = {
    "healthy": lambda k: (int(5000 * k**-0.8) + k % 3, 0.5 + 30 / k + k % 4 / 10, 5 + 7 * (k % 5)),
    "zero_n": lambda k: (0, 1.0 + k / 10, 3 + k % 4),
    "zero_if": lambda k: (100 - k, 0.0, 3 + k % 4),
    "no_articles": lambda k: (100 + k, 1.0 + k / 10, 0),
    "all_equal": lambda k: (42, 1.5, 7),
    "two_values": lambda k: (10 + 5 * (k % 2), 1.0 + k % 2, 3 + k % 2),
    "huge": lambda k: (MAX_FLOAT_INT // 80 * (80 - k), 1.7e308 * (1 - k / 80), 1 + k % 2),
    "tiny_if": lambda k: (3 * k, 5e-324 * k, 2),
}
GROUPS = [(d, b) for d in ("sci", "socsci") for b in ("citations", "if")]


@st.composite
def workspaces(draw):
    """1-3 discipline+basis groups of 1-4 years, each set 1-40 journals of one kind;
    ids shift between years, so years share some journals."""
    sets = []
    for discipline, basis in draw(st.lists(st.sampled_from(GROUPS), min_size=1, max_size=3,
                                           unique=True)):
        years = draw(st.lists(st.integers(2000, 2005), min_size=1, max_size=4, unique=True))
        for year in sorted(years):
            kind = draw(st.sampled_from(sorted(SET_KINDS)))
            n = draw(st.sampled_from([1, 2]) | st.integers(1, 40))
            shift = draw(st.integers(0, 5))
            rows = [(f"J{k + shift:02d}", *SET_KINDS[kind](k)) for k in range(1, n + 1)]
            sets.append((discipline, basis, year, rows))
    return sets


def strict_report(root, sets):
    """stdout of `report` over a new workspace holding ``sets``, parsed as strict JSON."""
    ws = root / f"ws{len(list(root.iterdir()))}"
    for discipline, basis, year, rows in sets:
        store_rows(ws, rows, discipline, basis, year)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["report", "--workspace", str(ws)])
    assert code == 0, err.getvalue()

    def reject(constant):
        raise AssertionError(f"report printed {constant}")

    return json.loads(out.getvalue(), parse_constant=reject)


def set_key(entry):
    return entry["discipline"], entry["basis"], entry.get("year", entry.get("year_a"))


@settings(max_examples=25, deadline=None)
@given(sets=workspaces())
@example(sets=[("sci", "citations", 2000, [(f"J{k:02d}", *SET_KINDS["healthy"](k))
                                           for k in range(1, 41)]),
               ("sci", "citations", 2001, [(f"J{k:02d}", *SET_KINDS["zero_n"](k))
                                           for k in range(1, 31)])])
@example(sets=[("sci", "if", 2000, HUGE_IF_ROWS)])
def test_report_sections_stay_local(tmp_path_factory, sets):
    """`report` exits 0 and prints strict JSON; each set's entries equal those of a
    report over that set alone, and each pair's entries those of a report over the
    two sets."""
    root = tmp_path_factory.mktemp("local")
    full = strict_report(root, sets)
    by_key = {(d, b, y): (d, b, y, rows) for d, b, y, rows in sets}
    for key, one in by_key.items():
        alone = strict_report(root, [one])
        for name in ("datasets", "cross_measure_correlations", "if_vs_articles_trends"):
            assert [e for e in full[name] if set_key(e) == key] == alone[name]
    pairs = {}
    for name in ("dynamic_correlations", "consecutive_overlaps"):
        for entry in full[name]:
            a, b = (by_key[set_key(entry)[:2] + (entry[y],)] for y in ("year_a", "year_b"))
            if (a[:3], b[:3]) not in pairs:
                pairs[a[:3], b[:3]] = strict_report(root, [a, b])
            assert entry in pairs[a[:3], b[:3]][name]


def test_a_zero_citation_journal_is_skipped_as_a_zero_count_is(tmp_path, capsys):
    """Its rate is 0, which log space cannot hold: the rate samples skip it, as
    the count samples skip its citations, and its set keeps a Gumbel fit."""
    ws = tmp_path / "ws"
    rows = [(f"J{k:03d}", *SET_KINDS["healthy"](k)) for k in range(1, 100)] + [("J100", 0, 1.0, 5)]
    store_rows(ws, rows)
    dataset = load_json(invoke(capsys, "report", "--workspace", str(ws)))["datasets"][0]
    assert "params" in dataset["gumbel"] and dataset["dropped_zero_articles"] == 0
    common = ("--workspace", str(ws), "--set", "sci:citations:2007")
    n_samples = {
        measure: load_json(invoke(capsys, "dist", *common, "--measure", measure))["n_samples"]
        for measure in ("n", "cr")
    }
    assert n_samples == {"n": 99, "cr": 99}
    invoke(capsys, "fit-pareto", *common, "--measure", "cr")
    invoke(capsys, "fit-gumbel", *common)


def report_text(ws):
    """stdout of `report` over the workspace ``ws``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run(["report", "--workspace", str(ws)]) == 0
    return out.getvalue()


@settings(max_examples=15, deadline=None)
@given(sets=workspaces(), data=st.data())
def test_shuffled_csv_rows_and_blank_rows_ingest_to_an_equal_report(
    tmp_path_factory, sets, data
):
    """Row order: CSVs with their rows shuffled and blank rows added ingest to a
    report byte-equal to that of the sets stored as drawn."""
    root = tmp_path_factory.mktemp("rows")
    for discipline, basis, year, rows in sets:
        store_rows(root / "stored", rows, discipline, basis, year)
        csv = root / f"{discipline}_{basis}_{year}.csv"
        write_csv(csv, JournalTable.from_rows((j, year, c, i, a) for j, c, i, a in rows))
        header, *body = csv.read_text(encoding="utf-8").splitlines()
        body = data.draw(st.permutations(body))
        for _ in range(data.draw(st.integers(0, 3))):
            body.insert(data.draw(st.integers(0, len(body))),
                        data.draw(st.sampled_from(["", ",,,,", " , ,"])))
        csv.write_text("\n".join([header, *body]) + "\n", encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert run(["ingest", "--workspace", str(root / "ingested"), "--input", str(csv),
                        "--discipline", discipline, "--basis", basis, "--year", str(year)]) == 0
    assert report_text(root / "ingested") == report_text(root / "stored")


@settings(max_examples=15, deadline=None)
@given(sets=workspaces(),
       prefix=st.text(st.characters(codec="utf-8", categories=("L", "N", "P", "S")),
                      min_size=1, max_size=4))
def test_an_order_preserving_id_map_gives_an_equal_report(tmp_path_factory, sets, prefix):
    """Id relabelling: prefixing every journal id with one string keeps the ids'
    order, so the report is byte-equal to that of the sets as drawn."""
    root = tmp_path_factory.mktemp("ids")
    relabelled = [(d, b, y, [(prefix + j, *rest) for j, *rest in rows]) for d, b, y, rows in sets]
    for name, workspace in (("drawn", sets), ("relabelled", relabelled)):
        for discipline, basis, year, rows in workspace:
            store_rows(root / name, rows, discipline, basis, year)
    assert report_text(root / "relabelled") == report_text(root / "drawn")


@settings(max_examples=15, deadline=None)
@given(sets=workspaces(), data=st.data())
def test_scaling_impact_factors_by_a_power_of_two_keeps_rank_correlations_and_overlaps(
    tmp_path_factory, sets, data
):
    """Impact-factor scale: multiplying the impact factors of IF-ranked sets by
    2**j keeps their order, so every rank correlation and overlap of the report
    is equal. j keeps each product exact: a normal float stays normal (binary
    exponent -1021..1024), and a subnormal one is only scaled up."""
    exponents = [math.frexp(f)[1] for _, b, _, rows in sets if b == "if" for *_, f, _ in rows if f]
    j = data.draw(st.integers(max([-8] + [min(0, -1021 - e) for e in exponents]),
                              min([8] + [1024 - e for e in exponents])))
    scaled = [(d, b, y, [(i, c, f * 2.0**j if b == "if" else f, a) for i, c, f, a in rows])
              for d, b, y, rows in sets]
    root = tmp_path_factory.mktemp("if_scale")
    drawn, rescaled = (strict_report(root, workspace) for workspace in (sets, scaled))

    def ranks_and_overlaps(report):
        ranks = [{k: v for k, v in e.items() if k != "value"} for e in report["dynamic_correlations"]]
        return ranks, report["consecutive_overlaps"]

    assert ranks_and_overlaps(rescaled) == ranks_and_overlaps(drawn)
