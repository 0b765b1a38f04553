"""Smoke test of the ledger and its contract file.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q`` (tier-1's
``testpaths = ["tests"]`` does not collect it).  One ``--smoke`` pass over all
seven workloads is shared by the tests that read its output.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)
#: The contract's five workloads and the two the ledger runs beside them.
ALL_WORKLOADS = [w["name"] for w in CONTRACT["workloads"]] + ["sim_rainwall", "sim_churn"]


def run_py(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "ledger", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke_output() -> str:
    proc = run_py("--smoke")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_contract_file_is_within_limits():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert CONTRACT["paths"] == ["benchmarks/ledger"]
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_sizes_in_the_contract_are_the_workloads_constants():
    sys.path[:0] = [p for p in (ROOT, os.path.join(ROOT, "src")) if p not in sys.path]
    from benchmarks.ledger import workloads

    seconds = CONTRACT["run_seconds"]
    why = {w["name"]: w["why"] for w in CONTRACT["workloads"]}
    for name in ("sim_ring_token", "sim_ring_mcast", "sim_data_writes", "sim_ring_observed"):
        virtual_s = workloads.WORKLOADS[name].sim_s_per_share * seconds
        assert f"{virtual_s:g} virtual s" in why[name], name
    assert sorted(workloads.WORKLOADS) == sorted(ALL_WORKLOADS)
    assert f"{workloads.UdpRingMcast.rate:g} multicasts/s" in why["udp_ring_mcast"]
    assert f"{workloads.UDP_LATE_LIMIT * 1e3:g} ms" in why["udp_ring_mcast"]


def test_smoke_prints_every_metric_with_its_unit(smoke_output):
    printed = {}
    for line in smoke_output.splitlines():
        fields = line.split()
        if len(fields) >= 4:
            printed[(fields[0], fields[1])] = fields[3]
    for workload in ALL_WORKLOADS:
        for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
            key = (workload, metric["name"])
            assert printed.get(key) == metric["unit"], key
        assert printed.get((workload, "ops_failed")) == "count"
    assert "not comparable" in smoke_output


def test_trace_files_parse_and_sum_to_the_whole(smoke_output):
    for workload in ALL_WORKLOADS:
        path = os.path.join(HERE, "out", f"trace_{workload}.json")
        with open(path, encoding="utf-8") as fh:
            trace = json.load(fh)
        assert abs(sum(trace["shares"].values()) - 1.0) <= 0.02, workload
        basis = trace["timed_wall_s"] if trace["share_basis"] == "wall" else trace["timed_cpu_s"]
        by_layer: dict[str, float] = {}
        for row in trace["boundaries"].values():
            by_layer[row["layer"]] = by_layer.get(row["layer"], 0.0) + row["self_s"]
        for layer, seconds in by_layer.items():
            if layer != "bench":  # bench also holds the time outside the loop
                assert abs(seconds / basis - trace["shares"][layer]) < 1e-9
        ids = {span["id"] for span in trace["spans"]}
        assert len(trace["spans"]) <= trace["raw_limit"]
        assert all(span["end"] >= span["start"] for span in trace["spans"])
        assert any(span["parent"] in ids for span in trace["spans"])


def test_negative_selftest_bites_everywhere():
    sys.path[:0] = [p for p in (ROOT, os.path.join(ROOT, "src")) if p not in sys.path]
    from benchmarks.ledger.accounting import negative_selftest

    for seed in (0, 1, 7):
        assert all(bit for _check, bit in negative_selftest(seed))


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_contract_command_line(trace, key):
    proc = run_py("--workload", "sim_ring_token", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT[key]}
    for metric in CONTRACT[key]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if key == "end_to_end":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"),
    )
    proc = run_py("--workload", "sim_ring_token", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
