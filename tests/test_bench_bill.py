"""The counted-work bill (:mod:`repro.perf`) and its exact gate, ``repro bench``."""

from __future__ import annotations

import __future__
import inspect
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro
from repro import perf
from repro.cli import main
from repro.net import datagram

ROOT = pathlib.Path(repro.__file__).parents[2]
PIN = ROOT / "benchmarks" / "BENCH_counts.json"


@pytest.fixture(scope="module")
def bill():
    return perf.count_ring()


def _bench_stdout(hashseed: str) -> str:
    return subprocess.run(
        [sys.executable, "-m", "repro", "bench"],
        env={
            **os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": hashseed
        },
        capture_output=True, check=True, text=True, timeout=120,
    ).stdout


def test_two_runs_give_the_same_bill(bill):
    again = perf.count_ring()
    assert json.dumps(again, sort_keys=True) == json.dumps(bill, sort_keys=True)


def test_the_bill_does_not_depend_on_the_hash_seed():
    assert _bench_stdout("0") == _bench_stdout("1")


def test_layer_rows_sum_to_the_total(bill):
    assert set(bill["calls"]) >= {"net", "transport", "core"}
    assert sum(bill["calls"].values()) == bill["calls_total"]
    assert bill["calls_per_hop"] == round(bill["calls_total"] / bill["hops"], 2)
    assert bill["hops"] > 0 and bill["deliveries"] > 0


def test_the_committed_pin_matches_the_bill(capsys):
    pin = json.loads(PIN.read_text())
    here = "{}.{}".format(*sys.version_info[:2])
    if pin["python"] != here:
        pytest.skip(f"pin made on Python {pin['python']}, this is {here}")
    assert main(["bench", "--check", str(PIN)]) == 0
    assert json.loads(capsys.readouterr().out) == pin


def test_check_refuses_a_pin_from_another_minor_version(bill, tmp_path, capsys):
    pin = tmp_path / "pin.json"
    pin.write_text(json.dumps({**bill, "python": "2.7"}))
    assert main(["bench", "--check", str(pin)]) == 2
    assert "pinned on Python 2.7" in capsys.readouterr().err


def _send_with_one_more_call():
    """``DatagramNetwork.send`` compiled in its own module with one no-op
    builtin call added at the top, so the bill charges it to ``net``."""
    source = textwrap.dedent(inspect.getsource(datagram.DatagramNetwork.send))
    head, body = source.split("\n", 1)
    assert head.startswith("def send(") and head.endswith(":")
    code = compile(
        f"{head}\n    abs(0)\n{body}", datagram.__file__, "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    namespace: dict = {}
    exec(code, vars(datagram), namespace)
    return namespace["send"]


def test_check_names_net_alone_when_send_makes_one_more_call(
    bill, tmp_path, capsys, monkeypatch
):
    pin = tmp_path / "pin.json"
    pin.write_text(json.dumps(bill))
    monkeypatch.setattr(datagram.DatagramNetwork, "send", _send_with_one_more_call())
    assert main(["bench", "--check", str(pin)]) == 1
    moved = capsys.readouterr().err.splitlines()[1:]
    layers = [line.split(":")[0].strip() for line in moved if "calls." in line]
    assert layers == ["calls.net"]
    net = bill["calls"]["net"]
    assert f"  calls.net: {net} -> {net + bill['packets']}" in moved
