"""Smoke test of the pipeline benchmark itself, on the ``small`` preset.

    python -m pytest -q perfbench/test_smoke.py

It runs every workload once at the small preset's size, so it takes
seconds; the measurements themselves are not checked.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
MISSING = tracer.Target("analytics", "no_such_function", ("calls", "s"))


@pytest.fixture
def small(monkeypatch):
    """Every workload on the small preset, with one setup run."""
    for name, w in run.WORKLOADS.items():
        overrides = {k: v for k, v in w.overrides.items() if k not in run.PERF_SCALE}
        monkeypatch.setitem(run.WORKLOADS, name, dataclasses.replace(w, preset="small", overrides=overrides))
    monkeypatch.setattr(run, "REGRESS_SETUPS", 1)


def bench(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


def printed(lines, name, unit):
    return any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracer.metric_units()


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(small, capsys, workload):
    lines, result = bench(capsys, workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in BENCHMARK["end_to_end"]:
        assert printed(lines, metric["name"], metric["unit"])
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert printed(lines, "failed_frac", "ratio (0 of 1)")


def test_corrupted_artifact_counts_as_failed(small, capsys, monkeypatch):
    real = run.run_cli

    def corrupting(argv, timeout):
        op = real(argv, timeout)
        labels = Path(argv[argv.index("--out") + 1]) / "labels.tsv"
        data = bytearray(labels.read_bytes())
        data[-2] ^= 1
        labels.write_bytes(bytes(data))
        return op

    monkeypatch.setattr(run, "run_cli", corrupting)
    lines, result = bench(capsys, "perf-all", 0)
    assert result["failed"] == result["attempted"] == 1
    assert not result["correct"]
    assert any(line.startswith("failed_frac 1.0 ratio") for line in lines)


def test_traced_run_prints_every_layer_metric_and_reports_absent(small, capsys, monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (MISSING,))
    lines, result = bench(capsys, "perf-all", 1)
    assert result["correct"] and result["failed"] == 0
    for metric in BENCHMARK["per_layer"]:
        assert printed(lines, metric["name"], metric["unit"])
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert "absent: analytics.no_such_function" in lines
    assert result["metrics"]["cli.stage.gen.s"]["value"] > 0
    assert result["metrics"]["kernels.count_marked_neighbors_two.calls"]["value"] > 0

    # every wrapped name is restored at every import site
    import awareflow.cli as cli
    import awareflow.domain as domain

    assert cli.load_dataset is domain.load_dataset
    assert not hasattr(domain.load_dataset, "__wrapped__")
    assert cli.STEP_FUNCS["gen"] is cli.cmd_gen
    assert not hasattr(cli.cmd_gen, "__wrapped__")
    assert not hasattr(domain.EventLog.canonical, "__wrapped__")
