"""Tests for repro.obs.agg: bounded-state streaming aggregation.

The determinism contract: a rollup is a pure function of each node's own
sub-stream, never of how the nodes' events interleave.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.obs.agg import (
    BoundedHistogram,
    StreamAggregator,
    rollup_json,
)
from repro.obs.probe import ProbeEvent
from repro.obs.scenario import run_quickstart


def make_event(n, at, node, kind, args):
    # Synthetic stream for exercising reducer edge cases (ties, drop
    # sites) that a live bus reaches only probabilistically.
    return ProbeEvent(n, at, node, kind, tuple(args))  # raincheck: disable=RC402 -- synthetic test stream with chosen timestamps


# ----------------------------------------------------------------------
# BoundedHistogram
# ----------------------------------------------------------------------
def test_histogram_state_is_bounded():
    h = BoundedHistogram()
    for i in range(10_000):
        h.observe(i * 1e-5)
    assert len(h.counts) == len(h.edges) + 1
    assert h.count == 10_000
    assert h.vmin == 0.0
    assert h.vmax == pytest.approx(0.09999)


def test_histogram_bucketing_and_quantiles():
    h = BoundedHistogram(edges=(0.01, 0.1, 1.0))
    for v in (0.005, 0.005, 0.05, 0.5, 5.0):
        h.observe(v)
    assert h.counts == [2, 1, 1, 1]
    assert h.quantile(0.0) == 0.01  # rank clamps to 1 -> first bucket edge
    assert h.quantile(0.40) == 0.01  # ceil(2.0) = 2nd obs, first bucket
    assert h.quantile(0.60) == 0.1
    assert h.quantile(1.0) == 5.0  # overflow bucket reports the true max


def test_histogram_quantile_empty():
    assert BoundedHistogram().quantile(0.95) == 0.0


# ----------------------------------------------------------------------
# StreamAggregator over a real probe stream
# ----------------------------------------------------------------------
def test_counts_match_the_stream():
    run = run_quickstart(nodes=4, seed=2024, duration=1.0, crash=True)
    agg = StreamAggregator()
    agg.observe(run.events)
    assert agg.events == len(run.events)
    assert agg.by_kind == dict(Counter(e.kind for e in run.events))
    rollup = agg.to_dict()
    sends = [e for e in run.events if e.kind == "net.send"]
    assert rollup["totals"]["packets_sent"] == len(sends)
    assert rollup["totals"]["bytes_sent"] == sum(e.args[3] for e in sends)
    accepts = Counter(e.node for e in run.events if e.kind == "token.accept")
    for node, count in accepts.items():
        assert rollup["per_node"][node]["token_accepts"] == count


def test_attach_subscribes_to_live_bus():
    from repro.cluster.harness import RaincoreCluster

    cluster = RaincoreCluster(["A", "B", "C"], seed=3)
    agg = StreamAggregator().attach(cluster.enable_probes())
    cluster.start_all()
    cluster.run(0.5)
    assert agg.events == cluster.probes.events_emitted
    assert agg.to_dict()["totals"]["token_accepts"] > 0


def test_rollup_independent_of_node_placement():
    """A rollup depends on each node's own sub-stream only: feeding the
    stream grouped by node (each node's events in their own order)
    reproduces the interleaved stream's rollup byte-for-byte."""
    run = run_quickstart(nodes=4, seed=7, duration=1.0, crash=False)
    whole = StreamAggregator()
    whole.observe(run.events)
    grouped = StreamAggregator()
    grouped.observe(sorted(run.events, key=lambda e: e.node))
    assert rollup_json(grouped.to_dict()) == rollup_json(whole.to_dict())


def test_top_talkers_tie_break_is_node_order():
    agg = StreamAggregator()
    # Same byte count from two nodes: the tie breaks by node name.
    agg.observe([make_event(1, 0.0, "zz", "net.send", ("s1", "d1", "F", 100))])
    agg.observe([make_event(2, 0.1, "aa", "net.send", ("s2", "d2", "F", 100))])
    agg.observe([make_event(3, 0.2, "mm", "net.send", ("s3", "d3", "F", 50))])
    talkers = agg.to_dict()["top_talkers"]
    assert [t["node"] for t in talkers] == ["aa", "zz", "mm"]
    # top_k bounds the list; silent nodes never appear.
    agg.observe([make_event(4, 0.3, "quiet", "core.wakeup", ())])
    talkers = agg.to_dict(top_k=2)["top_talkers"]
    assert [t["node"] for t in talkers] == ["aa", "zz"]


def test_drop_sites_are_tallied():
    agg = StreamAggregator()
    agg.observe([make_event(1, 0.0, "A", "net.drop", ("s", "d", "F", 9, "loss"))])
    agg.observe([make_event(2, 0.1, "A", "net.drop", ("s", "d", "F", 9, "loss"))])
    agg.observe([make_event(3, 0.2, "B", "net.drop", ("s", "d", "F", 4, "unbound"))])
    rollup = agg.to_dict()
    assert rollup["drops_by_where"] == {"loss": 2, "unbound": 1}
    assert rollup["per_node"]["A"]["bytes_dropped"] == 18
    assert rollup["totals"]["packets_dropped"] == 3


def test_token_gap_histogram_tracks_laps():
    agg = StreamAggregator()
    for i, at in enumerate((0.0, 0.04, 0.08, 0.12)):
        agg.observe([make_event(i + 1, at, "A", "token.accept", ("B", "g.1", i, 0))])
    gap = agg.to_dict()["per_node"]["A"]["token_gap"]
    assert gap["count"] == 3  # 4 accepts -> 3 inter-arrival gaps
    assert gap["min"] == pytest.approx(0.04)
    assert gap["max"] == pytest.approx(0.04)


def test_rollup_json_is_canonical():
    agg = StreamAggregator()
    agg.observe([make_event(1, 0.0, "A", "core.wakeup", ())])
    text = rollup_json(agg.to_dict())
    assert text == rollup_json(agg.to_dict())
    assert ": " not in text  # compact separators
