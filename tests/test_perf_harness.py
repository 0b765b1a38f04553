"""Smoke tests for the perf-regression harness (:mod:`repro.perf`)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import perf
from repro.cli import main

BASELINE = Path(__file__).resolve().parent.parent / "benchmarks" / "BENCH_baseline.json"


def test_run_suite_quick_reports_all_metrics():
    report = perf.run_suite(quick=True, repeats=1)
    metrics = report["metrics"]
    assert set(metrics) == {
        "event_loop_events_per_sec",
        "loaded_ring_events_per_sec",
        "token_hops_per_sec",
        "wall_clock_per_sim_second",
    }
    assert all(v > 0 for v in metrics.values())
    # Every floor CI gates on is one this suite reports.
    assert set(json.loads(BASELINE.read_text())["metrics"]) <= set(metrics)
    assert report["quick"] is True
    assert report["workload"]["ring_nodes"] == 8


def test_compare_passes_identical_reports():
    metrics = {
        "event_loop_events_per_sec": 1000,
        "loaded_ring_events_per_sec": 100,
        "wall_clock_per_sim_second": 0.01,
    }
    assert perf.compare({"metrics": metrics}, {"metrics": dict(metrics)}) == []


def test_compare_flags_rate_and_latency_regressions():
    base = {
        "event_loop_events_per_sec": 1000,
        "wall_clock_per_sim_second": 0.01,
    }
    bad = {
        "event_loop_events_per_sec": 500,  # 2x slower
        "wall_clock_per_sim_second": 0.02,  # 2x slower (higher is worse)
    }
    problems = perf.compare({"metrics": bad}, {"metrics": base})
    assert len(problems) == 2
    # Within tolerance: 25% down on a 30% gate is fine.
    ok = {"event_loop_events_per_sec": 750, "wall_clock_per_sim_second": 0.012}
    assert perf.compare({"metrics": ok}, {"metrics": base}) == []


def test_compare_flags_baseline_only_and_ignores_report_only_metrics():
    # A floor the suite no longer reports must not silently stop gating.
    base = {"event_loop_events_per_sec": 1000, "retired_metric": 5}
    cur = {"event_loop_events_per_sec": 1000}
    assert perf.compare({"metrics": cur}, {"metrics": base}) == [
        "retired_metric: in baseline, not reported"
    ]
    # A metric that has no floor yet is fine.
    cur = {"event_loop_events_per_sec": 1000, "brand_new_metric": 5}
    base = {"event_loop_events_per_sec": 1000}
    assert perf.compare({"metrics": cur}, {"metrics": base}) == []


def test_cli_bench_writes_report_and_gates(tmp_path, capsys):
    # A tiny baseline must pass, with the report written alongside.
    out = tmp_path / "bench.json"
    trivial = tmp_path / "trivial.json"
    trivial.write_text(json.dumps({"metrics": {"loaded_ring_events_per_sec": 1}}))
    argv = ["bench", "--quick", "--repeats", "1"]
    assert main([*argv, "--out", str(out), "--check", str(trivial)]) == 0
    report = json.loads(out.read_text())
    assert report["metrics"]["loaded_ring_events_per_sec"] > 0
    capsys.readouterr()

    # A sky-high floor and a floor for an unreported metric both trip it.
    impossible = tmp_path / "impossible.json"
    impossible.write_text(json.dumps({"metrics": {
        "loaded_ring_events_per_sec": 10**12, "retired_metric": 1,
    }}))
    assert main([*argv, "--check", str(impossible)]) == 1
    printed = capsys.readouterr().out
    assert "loaded_ring_events_per_sec: " in printed
    assert "retired_metric: in baseline, not reported" in printed


def test_append_history_creates_and_appends(tmp_path):
    path = tmp_path / "history.json"
    report = {"quick": True, "metrics": {"loaded_ring_events_per_sec": 123}}
    row = perf.append_history(str(path), report, git_sha="abc1234", label="first")
    assert row["git_sha"] == "abc1234"
    assert row["date"]  # stamped inside perf (RC101: wall clock lives here)
    perf.append_history(str(path), report, git_sha="def5678")
    history = json.loads(path.read_text())
    assert history["schema"] == 1
    assert [r["git_sha"] for r in history["rows"]] == ["abc1234", "def5678"]
    assert history["rows"][0]["label"] == "first"
    assert history["rows"][1]["metrics"]["loaded_ring_events_per_sec"] == 123


def test_append_history_rejects_foreign_file(tmp_path):
    path = tmp_path / "notes.json"
    path.write_text(json.dumps({"something": "else"}))
    with pytest.raises(ValueError, match="rows"):
        perf.append_history(str(path), {"metrics": {}}, git_sha="abc")


def test_cli_bench_record_appends_row(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "hist.json"
    assert main(["bench", "--quick", "--repeats", "1", "--record", str(path)]) == 0
    history = json.loads(path.read_text())
    assert len(history["rows"]) == 1
    assert history["rows"][0]["quick"] is True
    assert history["rows"][0]["metrics"]["loaded_ring_events_per_sec"] > 0
    capsys.readouterr()
