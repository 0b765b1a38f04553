"""Tests for the per-process worker runtime.

The arg-parsing and stdout-schema tests are fast and run in tier 1; the
tests that spawn real worker subprocesses are marked slow/integration.
"""

import json
import subprocess
import sys
import time

import pytest

from repro.runtime.worker import (
    STDOUT_SCHEMA,
    _JsonReporter,
    build_parser,
    parse_peers,
    worker_seed,
)

PORTS = {"A": 42200, "B": 42201}
PEERS = ",".join(f"{n}={p}" for n, p in PORTS.items())


# ----------------------------------------------------------------------
# --peers parsing (fast, no processes)
# ----------------------------------------------------------------------
def test_parse_peers_happy_path():
    assert parse_peers("A=42200,B=42201", "A", 42200) == PORTS


def test_parse_peers_tolerates_whitespace():
    assert parse_peers(" A=42200 , B=42201 ", "B", 42201) == PORTS


@pytest.mark.parametrize(
    "spec, node, port, fragment",
    [
        ("A=1000,A=1001", "A", 1000, "twice"),  # duplicate id
        ("A=1000,B=1000", "A", 1000, "same port"),  # duplicate port
        ("A=xyz", "A", 1000, "non-integer"),  # unparsable port
        ("A=0", "A", 0, "out of range"),  # port 0 is not routable
        ("A=70000", "A", 70000, "out of range"),  # above 65535
        ("A=1000", "B", 1001, "does not include"),  # missing self
        ("A=1000,B=1001", "A", 9, "--port 9"),  # port mismatch
        ("A1000", "A", 1000, "not id=port"),  # no separator
        ("=1000", "A", 1000, "not id=port"),  # empty id
        ("A=", "A", 1000, "not id=port"),  # empty port
    ],
)
def test_parse_peers_rejects(spec, node, port, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_peers(spec, node, port)


def test_worker_seed_is_deterministic_and_per_node():
    # sha256-derived: stable across processes and PYTHONHASHSEED values,
    # unlike hash(node_id).
    assert worker_seed("n00") == worker_seed("n00")
    assert worker_seed("n00") != worker_seed("n01")
    assert 0 <= worker_seed("n00") < 2**32


def test_parser_requires_core_args():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_accepts_telemetry_address():
    args = build_parser().parse_args(
        ["--node", "A", "--port", "42200", "--peers", PEERS,
         "--telemetry", "127.0.0.1:41999"]
    )
    assert args.telemetry == "127.0.0.1:41999"


# ----------------------------------------------------------------------
# stdout JSONL schema (fast, no processes)
# ----------------------------------------------------------------------
def test_reporter_lines_carry_v2_envelope(capsys):
    before = time.time()  # raincheck: disable=RC101 -- bounding the reporter's wall-clock ts field
    reporter = _JsonReporter("A")
    reporter._emit("started", port=42200, telemetry=None)
    after = time.time()  # raincheck: disable=RC101 -- bounding the reporter's wall-clock ts field
    line = json.loads(capsys.readouterr().out)
    assert line["v"] == STDOUT_SCHEMA == 2
    assert line["event"] == "started" and line["node"] == "A"
    assert line["port"] == 42200 and line["telemetry"] is None
    # ts is epoch wall-clock seconds, comparable across processes.
    assert before <= line["ts"] <= after


def test_reporter_deliver_decodes_payload(capsys):
    from repro.core.events import Delivery
    from repro.core.token import Ordering

    reporter = _JsonReporter("B")
    reporter.on_deliver(
        Delivery(
            origin="A", msg_no=3, payload=b"p\xffx",
            ordering=Ordering.AGREED, at=0.5,
        )
    )
    line = json.loads(capsys.readouterr().out)
    assert line["event"] == "deliver"
    assert line["origin"] == "A" and line["msg_no"] == 3
    assert line["payload"] == "p�x"  # replacement char, never a crash
    assert line["v"] == 2 and isinstance(line["ts"], float)


# ----------------------------------------------------------------------
# real subprocesses (slow)
# ----------------------------------------------------------------------
@pytest.mark.integration
@pytest.mark.slow
def test_port_must_match_peers_entry():
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.runtime.worker",
            "--node", "A", "--port", "9",
            "--peers", PEERS, "--duration", "0.1",
        ],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode != 0
    assert "--port 9" in proc.stderr


@pytest.mark.integration
@pytest.mark.slow
def test_two_process_group_forms_and_reports():
    # Both workers multicast their *first* message: each process numbers
    # its own from 1, so only the wire identity (origin, msg_no) tells the
    # two apart.
    cmds = {
        "A": ["--bootstrap", "--multicast-at", "1.0", "--payload", "px"],
        "B": ["--contact", "A", "--multicast-at", "1.2", "--payload", "py"],
    }
    procs = {}
    for nid, extra in cmds.items():
        procs[nid] = subprocess.Popen(
            [
                sys.executable, "-m", "repro.runtime.worker",
                "--node", nid, "--port", str(PORTS[nid]),
                "--peers", PEERS, "--duration", "2.5",
            ] + extra,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
    events = {}
    for nid, proc in procs.items():
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        events[nid] = [json.loads(l) for l in out.splitlines() if l.strip()]
    for nid in PORTS:
        for e in events[nid]:
            assert e["v"] == 2
            assert isinstance(e["ts"], float) and e["ts"] > 0
        kinds = [e["event"] for e in events[nid]]
        assert kinds[0] == "started"
        assert kinds[-1] == "done"
        done = events[nid][-1]
        assert sorted(done["members"]) == ["A", "B"]
        assert done["shipped"] == 0  # no --telemetry on this run
    delivered = {
        nid: [(e["origin"], e["msg_no"], e["payload"])
              for e in events[nid] if e["event"] == "deliver"]
        for nid in PORTS
    }
    assert sorted(delivered["A"]) == [("A", 1, "px"), ("B", 1, "py")]
    assert delivered["A"] == delivered["B"]  # agreed order across processes
    # Wall-clock stamps are cross-process comparable: every line of both
    # workers falls in one shared epoch window.
    all_ts = [e["ts"] for nid in PORTS for e in events[nid]]
    assert max(all_ts) - min(all_ts) < 60.0
