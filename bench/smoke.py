"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload on reduced inputs (two years per fixture profile), once
untraced and twice traced, and fails unless every run is correct, every
end-to-end and per-layer metric named in BENCHMARK.json is emitted, each
workload's layers were really called, every module shows up in some traced
run, and the calls and computed counts of the two traced runs agree exactly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MODULES = ("cli", "ingest", "model", "indices", "rankstats", "distfit", "correlate", "synthgen")
# Layers each workload must call, by span name.
ACTIVE = {
    "report_workspace": (
        "cli.run", "ingest.load_dataset", "ingest.parse_csv", "model.RankedSet",
        "indices.derive_rates", "rankstats.rank_series", "rankstats.zipf_fit",
        "rankstats.set_overlap", "distfit.gumbel_curve_ks", "distfit.empirical_pdf",
        "correlate.correlation_matrix", "correlate.dynamic_correlation", "correlate.pearson",
        "correlate.cross_measure_correlation", "correlate.binned_trend",
        "synthgen.build_fixture",
    ),
    "cli_session": (
        "cli.run", "ingest.load_dataset", "ingest.parse_csv", "ingest.store_dataset",
        "model.build_ranked_set", "correlate.dynamic_correlation", "synthgen.build_fixture",
    ),
    "fit_large": ("rankstats.RankSeries", "rankstats.zipf_fit", "distfit.gumbel_curve_ks",
                  "distfit.empirical_pdf"),
}


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--smoke",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, (workload, trace, result)
    return result["metrics"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(ACTIVE)
    called = set()
    for workload in ACTIVE:
        metrics = run(workload, 0)
        assert {k: v["unit"] for k, v in metrics.items()} == e2e, (workload, sorted(metrics))
        assert all(v["value"] > 0 for v in metrics.values()), (workload, metrics)

        first, second = run(workload, 1), run(workload, 1)
        for metrics in (first, second):
            assert {k: v["unit"] for k, v in metrics.items()} == layer, (workload, sorted(metrics))
        for name in ACTIVE[workload]:
            assert first[f"{name}.calls"]["value"] > 0, (workload, name)
        for name, value in first.items():
            if value["unit"] in ("count", "B"):
                assert value == second[name], (workload, name, value, second[name])
            if name.endswith(".calls") and value["value"] > 0:
                called.add(name.split(".")[0])
        print(f"{workload}: ok")
    assert called == set(MODULES), sorted(set(MODULES) - called)
    print("smoke: every workload and every metric key present")
    return 0


if __name__ == "__main__":
    sys.exit(main())
