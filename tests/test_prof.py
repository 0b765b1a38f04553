"""Tests for repro.obs.prof: the non-deterministic wall-clock channel.

The profiler's contract has two halves:

* **Accounting is complete** — every dispatched callback is counted, the
  attribution table carries an explicit ``(scheduler)`` residual row, and
  the rows always sum to the measured run wall time.
* **Attachment is invisible** — the probe stream (and therefore every
  golden trace) is byte-identical with the profiler on or off, because
  the profiler never emits probes, never mutates protocol state, and
  never influences scheduling.
"""

from __future__ import annotations

import json

from repro.net.eventloop import EventLoop
from repro.obs import events_to_jsonl
from repro.obs.prof import Profiler


def drive_loop(profiler=None, n=50):
    loop = EventLoop(seed=1)
    if profiler is not None:
        profiler.attach(loop)
    hits = []
    for i in range(n):
        loop.call_later(i * 0.001, hits.append, i)
    loop.run_until_idle()
    return loop, hits


# ----------------------------------------------------------------------
# accounting completeness
# ----------------------------------------------------------------------
def test_every_dispatch_is_accounted():
    prof = Profiler()
    loop, hits = drive_loop(prof)
    assert len(hits) == 50
    assert prof.events == loop.events_processed == 50
    table = prof.table()
    # One row for the single callback, one residual row.
    assert table[-1]["name"] == "(scheduler)"
    assert sum(r["calls"] for r in table[:-1]) == 50


def test_table_rows_sum_to_run_wall():
    prof = Profiler()
    drive_loop(prof)
    assert prof.run_wall > 0.0
    total = sum(r["total_s"] for r in prof.table())
    # The residual row makes the sum exact (100% attribution by
    # construction — the >=95% requirement holds with zero slack).
    assert abs(total - prof.run_wall) < 1e-12
    assert 0.0 < prof.coverage() <= 1.0
    shares = sum(r["share"] for r in prof.table())
    assert abs(shares - 1.0) < 1e-9


def test_step_dispatch_is_accounted():
    prof = Profiler()
    loop = EventLoop(seed=1)
    prof.attach(loop)
    loop.call_later(0.0, lambda: None)
    assert loop.step() is True
    assert prof.events == 1
    assert prof.run_wall > 0.0


def test_heap_depth_tracking():
    prof = Profiler()
    drive_loop(prof, n=30)
    assert prof.heap_depth_max >= 1
    assert 0.0 < prof.heap_depth_mean <= prof.heap_depth_max


def test_detach_restores_unprofiled_loop():
    prof = Profiler()
    loop = EventLoop(seed=1)
    prof.attach(loop)
    prof.detach(loop)
    assert loop.profile is None
    loop.call_later(0.0, lambda: None)
    loop.run_until_idle()
    assert prof.events == 0


def test_method_callbacks_fold_into_one_row():
    class Thing:
        def __init__(self):
            self.calls = 0

        def cb(self):
            self.calls += 1

    prof = Profiler()
    loop = EventLoop(seed=1)
    prof.attach(loop)
    things = [Thing() for _ in range(4)]
    for i, thing in enumerate(things):
        loop.call_later(i * 0.001, thing.cb)
        loop.call_later(i * 0.001 + 0.0005, thing.cb)
    loop.run_until_idle()
    rows = [r for r in prof.table() if "Thing.cb" in r["name"]]
    # All bound methods share one function object: exactly one row.
    assert len(rows) == 1
    assert rows[0]["calls"] == 8


# ----------------------------------------------------------------------
# golden byte-identity: attaching the profiler moves no probe bytes
# ----------------------------------------------------------------------
def test_probe_stream_identical_with_profiler_attached():
    from repro.cluster.harness import RaincoreCluster

    prof = Profiler()
    recorded = []

    # The quickstart scenario, with the profiler attached before any
    # event is dispatched.
    ids = [chr(ord("A") + i) for i in range(4)]
    cluster = RaincoreCluster(ids, seed=2024)
    prof.attach(cluster.loop)
    bus = cluster.enable_probes()
    bus.subscribe(recorded.extend)
    cluster.start_all()
    cluster.node(ids[0]).multicast(b"probe-me")
    cluster.run(1.0)
    victim = ids[-1]
    cluster.faults.crash_node(victim)
    cluster.run_until_converged(5.0, expected=set(ids) - {victim})
    cluster.faults.recover_node(victim)
    cluster.run_until_converged(8.0, expected=set(ids))

    # Reference: byte-for-byte the same protocol steps, no profiler.
    reference = []
    cluster2 = RaincoreCluster(ids, seed=2024)
    bus2 = cluster2.enable_probes()
    bus2.subscribe(reference.extend)
    cluster2.start_all()
    cluster2.node(ids[0]).multicast(b"probe-me")
    cluster2.run(1.0)
    cluster2.faults.crash_node(victim)
    cluster2.run_until_converged(5.0, expected=set(ids) - {victim})
    cluster2.faults.recover_node(victim)
    cluster2.run_until_converged(8.0, expected=set(ids))

    assert prof.events > 0
    assert events_to_jsonl(recorded) == events_to_jsonl(reference)


def test_rollup_by_kind_counts_every_probe_of_a_profiled_run():
    from repro.cluster.harness import RaincoreCluster
    from repro.obs import StreamAggregator

    cluster = RaincoreCluster(["A", "B", "C"], seed=3)
    Profiler().attach(cluster.loop)
    agg = StreamAggregator().attach(cluster.enable_probes())
    cluster.start_all()
    cluster.run(0.5)
    by_kind = agg.to_dict()["by_kind"]
    assert by_kind
    assert sum(by_kind.values()) == cluster.probes.events_emitted


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
def test_trace_json_is_valid_chrome_trace():
    prof = Profiler(label="unit")
    drive_loop(prof, n=20)
    doc = json.loads(prof.trace_json(pid=3))
    assert doc["displayTimeUnit"] == "ms"
    assert doc["metadata"]["events"] == 20
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    assert meta[0]["args"]["name"] == "unit"
    assert len(spans) == 20
    for e in spans:
        assert e["pid"] == 3
        assert e["ts"] >= 0.0 and e["dur"] >= 0.0
        assert "sim_time" in e["args"]
    # Spans appear in dispatch order.
    assert [e["ts"] for e in spans] == sorted(e["ts"] for e in spans)


def test_timeline_limit_bounds_trace_not_accounting():
    prof = Profiler(timeline_limit=10)
    drive_loop(prof, n=40)
    assert prof.events == 40  # accounting stays exact
    spans = [e for e in prof.trace_events() if e["ph"] == "X"]
    assert len(spans) == 10
    assert prof.timeline_truncated is True
    assert prof.to_dict()["timeline_truncated"] is True


def test_timeline_zero_disables_retention():
    prof = Profiler(timeline_limit=0)
    drive_loop(prof, n=5)
    assert [e for e in prof.trace_events() if e["ph"] == "X"] == []
    assert prof.timeline_truncated is False


def test_profile_off_is_default():
    loop = EventLoop(seed=1)
    assert loop.profile is None
    seen = []
    loop.call_later(0.1, lambda: seen.append(loop.profile))
    loop.run_until(0.2)
    assert seen == [None]
