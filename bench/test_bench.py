"""Smoke test of the benchmark: every workload at a twentieth of its path
counts, untraced and traced.

Run from the repository root with ``python -m pytest bench/test_bench.py``.
"""

import json

import pytest

import run
import workloads


def test_benchmark_json_lists_the_metrics_the_runs_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_reports_every_metric_and_tracing_changes_nothing(workload):
    plain = run.measure(workload, seed=0, seconds=0, trace=False, scale=0.05,
                        min_passes=1)
    traced = run.measure(workload, seed=0, seconds=0, trace=True, scale=0.05,
                         min_passes=1)
    for result, units in ((plain, run.END_TO_END),
                          (traced, run.layer_units())):
        # Reports and counts repeated across passes, the traced reference
        # pass included.
        assert result["summary"]["problems"] == []
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == set(units)
        for name, m in result["metrics"].items():
            assert m["unit"] == units[name]
            assert isinstance(m["value"], (int, float))
    for name in run.END_TO_END:
        assert plain["metrics"][name]["value"] > 0
    assert traced["metrics"]["trace.overhead_ratio"]["value"] > 0
    for name in workloads.scenario_names(workload):
        assert traced["metrics"][f"cli.scenario_s.{name}"]["value"] > 0
