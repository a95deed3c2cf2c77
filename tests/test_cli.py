import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import citemetrics
from citemetrics.cli import run
from citemetrics.ingest import store_dataset
from citemetrics.model import Basis, Discipline, JournalTable, JournalYearRecord, build_ranked_set
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
        ],
    )
    def test_non_finite_fit_params_is_exit_2(self, workspace, tmp_path, capsys, params, message):
        fit = tmp_path / "fit.json"
        fit.write_text('{"params": {%s}}' % params)
        captured = invoke(
            capsys, "ks", "--workspace", str(workspace), "--set", "sci:citations:2005",
            "--fit", str(fit), expect=2,
        )
        assert captured.err.startswith(f"error: {message}")
        assert "Traceback" not in captured.err

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
        assert "error: line 3: 'utf-8' codec can't decode" in captured.err
        assert "Traceback" not in captured.err

    def test_undecodable_manifest_is_exit_2(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        ws.mkdir()
        (ws / "manifest.json").write_bytes(b"\xff{")
        captured = invoke(capsys, "report", "--workspace", str(ws), expect=2)
        assert "utf-8" in captured.err

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
    def run_child(self, code, *args):
        src = str(Path(citemetrics.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
        )

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
            "assert 'scipy.optimize' in sys.modules\n"
        )
        done = self.run_child(code, str(workspace))
        assert done.returncode == 0, done.stderr

