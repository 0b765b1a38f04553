"""Tests for the protocol trace: ``trace_rows`` over a probe log."""

import pytest

from repro.obs import ProbeLog, render_swimlanes, render_timeline, trace_rows
from tests.conftest import make_cluster

pytestmark = pytest.mark.integration


@pytest.fixture
def traced():
    cluster = make_cluster("ABC")
    log = ProbeLog(cluster.enable_probes())
    cluster.start_all()
    return cluster, log


def test_records_state_transitions(traced):
    cluster, log = traced
    cluster.run(0.5)
    states = trace_rows(log, {"state"})
    assert states
    assert any("hungry -> eating" in e.detail for e in states)


def test_records_token_hops(traced):
    cluster, log = traced
    cluster.run(0.5)
    hops = trace_rows(log, {"token"})
    assert len(hops) > 5
    assert all("seq=" in e.detail for e in hops)
    # seqs strictly increase along the trace
    seqs = [int(e.detail.split("seq=")[1].split(" ")[0]) for e in hops]
    assert seqs == sorted(seqs)


def test_records_views_and_deliveries(traced):
    cluster, log = traced
    cluster.node("A").multicast("traced-msg")
    cluster.faults.crash_node("C")
    cluster.run(3.0)
    assert trace_rows(log, {"view"})
    delivers = trace_rows(log, {"deliver"})
    assert any("A#1" in e.detail for e in delivers)


def test_filter_by_node(traced):
    cluster, log = traced
    cluster.run(0.5)
    rows = trace_rows(log)
    assert {e.node for e in rows} == {"A", "B", "C"}
    only_b = [e for e in rows if e.node == "B"]
    assert only_b and len(only_b) < len(rows)


def test_events_time_ordered(traced):
    cluster, log = traced
    cluster.faults.crash_node("B")
    cluster.run(3.0)
    times = [e.at for e in trace_rows(log)]
    assert times == sorted(times)


def test_render_timeline(traced):
    cluster, log = traced
    cluster.run(0.2)
    rows = trace_rows(log)
    out = render_timeline(rows, limit=10)
    lines = out.splitlines()
    assert len(lines) <= 11
    assert "more events" in lines[-1] or len(rows) <= 10
    assert "s  " in lines[0]
    # At limit 0 only the count of what was left out is printed.
    assert render_timeline(rows, limit=0) == f"... {len(rows)} more events"


def test_render_empty():
    assert render_timeline([]) == "(no events)"
    assert render_timeline([], limit=0) == "(no events)"


def test_render_swimlanes(traced):
    cluster, log = traced
    cluster.run(0.2)
    rows = trace_rows(log)
    out = render_swimlanes(rows, ["A", "B", "C"], limit=15)
    lines = out.splitlines()
    assert "A" in lines[0] and "B" in lines[0] and "C" in lines[0]
    # Events land in their node's lane: find a B event and check placement.
    b_events = [e for e in rows[:15] if e.node == "B"]
    if b_events:
        lane_start = lines[0].index("B")
        row = next(
            l for l in lines[2:]
            if len(l) > lane_start and l[lane_start - 8 : lane_start + 8].strip()
        )
        assert row  # something rendered in B's lane region
    assert render_swimlanes(rows, ["A"], limit=0) == f"... {len(rows)} more events"


def test_render_swimlanes_empty():
    assert render_swimlanes([], ["A"]) == "(no events)"

