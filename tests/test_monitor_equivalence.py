"""The indexed contract monitor against the whole-buffer reference.

Each scenario runs once with a monitor that logs the exact interleaving
of probe events and evaluation instants; the log is then replayed through
a fresh :class:`~repro.obs.monitor.ContractMonitor` and through
``monitor_reference.ReferenceMonitor``.  Alerts must be equal record for
record — ``since``/``at`` included — and the indexed monitor must retain
exactly the reference's events of the kinds its rules declare.  The second
half pins the cost model: a tick reads the series its rules ask for and
nothing else, and an undeclared kind is never filed.
"""

from __future__ import annotations

import pytest

from repro.chaos import engine as chaos_engine
from repro.chaos.engine import ChaosEngine
from repro.chaos.schedule import ChaosParams, Schedule
from repro.cluster.harness import RaincoreCluster
from repro.core.config import RaincoreConfig
from repro.obs.monitor import (
    CONTRACT_READS,
    ContractMonitor,
    RuleSpec,
    paper_contract_rules,
    realtime_contract_rules,
)
from repro.obs.probe import ProbeEvent

from .monitor_reference import ReferenceMonitor


def ev(n, at, node, kind, *args):
    return ProbeEvent(n, at, node, kind, args)  # raincheck: disable=RC402 -- synthetic test stream with chosen timestamps


class StubClock:
    now = 0.0

    def call_later(self, delay, callback, *args):  # pragma: no cover
        raise AssertionError("replayed monitors are driven by hand")


def logging_monitor(log: list) -> type[ContractMonitor]:
    """A ContractMonitor that appends what it sees, in order, to ``log``."""

    class LoggingMonitor(ContractMonitor):
        def _on_event(self, events):
            log.extend(("event", event) for event in events)
            super()._on_event(events)

        def evaluate(self, now=None):
            self._catch_up()  # the events a tick sees are logged before it
            if now is None:
                now = self.loop.now
            log.append(("tick", now))
            return super().evaluate(now)

    return LoggingMonitor


def retained(monitor: ContractMonitor) -> list[ProbeEvent]:
    return sorted(
        (
            e
            for by_node in monitor._series.values()
            for series in by_node.values()
            for e in series.events
        ),
        key=lambda e: e.n,
    )


def declared(rules) -> set[str]:
    """What a monitor over ``rules`` must file, from the declarations."""
    return {"node.state", "view.change"}.union(*(CONTRACT_READS[r.name] for r in rules))


def replay_both(log, rules):
    indexed = ContractMonitor(None, rules, clock=StubClock())
    reference = ReferenceMonitor(rules)
    for what, item in log:
        if what == "event":
            indexed.ingest([item])
            reference.ingest(item)
        else:
            indexed.evaluate(item)
            reference.evaluate(item)
    assert indexed.alert_records() == reference.alert_records()
    reads = declared(rules)
    # No more, no fewer: every declared kind the reference kept, nothing else.
    assert retained(indexed) == [e for e in reference.events if e.kind in reads]
    return indexed.alert_records()


def watch(seed=11, segments=1, detection_bound=None, faults=None, seconds=6.0):
    """``repro watch`` in miniature; returns (live records, log, rules)."""
    ids = [f"n{i:02d}" for i in range(4)]
    config = RaincoreConfig.tuned(ring_size=4)
    cluster = RaincoreCluster(ids, seed=seed, segments=segments, config=config)
    bus = cluster.enable_probes()
    rules = paper_contract_rules(
        config, 4, segments=segments, detection_bound=detection_bound
    )
    log: list = []
    monitor = logging_monitor(log)(bus, rules)
    cluster.start_all()
    monitor.start()
    if faults is not None:
        faults(cluster)
    cluster.run(seconds)
    monitor.evaluate()
    monitor.stop()
    return monitor.alert_records(), log, rules


def spike(cluster):
    cluster.loop.call_later(2.0, cluster.faults.set_delay_spikes, 1.0, 0.035)


def blackout(cluster):
    cluster.loop.call_later(2.0, cluster.faults.ack_blackout, "n00", "n01", 2.0)


def crash_and_recover(cluster):
    cluster.loop.call_later(2.0, cluster.faults.crash_node, "n03")
    cluster.loop.call_later(7.0, cluster.faults.recover_node, "n03")


@pytest.mark.parametrize(
    "kwargs, rule_fired",
    [
        (dict(seconds=8.0), None),  # clean `repro watch --seed 11`
        (dict(faults=spike), "token-rate"),  # --spike-at 2
        (dict(faults=blackout, segments=2, detection_bound=0.15), "fd-latency"),
        (dict(faults=crash_and_recover, seed=7, seconds=12.0), None),  # view change
    ],
    ids=["clean", "spike", "blackout", "view-change"],
)
def test_replay_matches_reference(kwargs, rule_fired):
    live, log, rules = watch(**kwargs)
    replayed = replay_both(log, rules)
    assert replayed == live  # the replay harness itself is faithful
    fired = {r["rule"] for r in live}
    assert (rule_fired in fired) if rule_fired else not fired
    if kwargs.get("faults") is crash_and_recover:
        assert sum(1 for what, e in log if what == "event" and e.kind == "view.change") > 4


def test_chaos_campaign_trace_matches_reference(monkeypatch):
    log: list = []
    monkeypatch.setattr(chaos_engine, "ContractMonitor", logging_monitor(log))
    params = ChaosParams(nodes=5, seconds=10.0, seed=7)
    result = ChaosEngine(Schedule.generate(params)).run()
    rules = paper_contract_rules(
        RaincoreConfig.tuned(ring_size=params.nodes), params.nodes,
        segments=params.segments,
    )
    assert replay_both(log, rules) == result.alerts
    kinds = {e.kind for what, e in log if what == "event"}
    assert {"fd.fire", "view.change", "resync.buffer"} <= kinds  # a real campaign


# ----------------------------------------------------------------------
# the cost model: a tick touches what its rules read
# ----------------------------------------------------------------------
class CountingEvent(ProbeEvent):
    """A probe event that counts every attribute read made on it."""

    __slots__ = ()
    reads = 0

    def __getattribute__(self, name):
        CountingEvent.reads += 1
        return object.__getattribute__(self, name)


def test_unread_kinds_cost_a_tick_nothing():
    config = RaincoreConfig.tuned(ring_size=4)
    clock = StubClock()
    monitor = ContractMonitor(None, paper_contract_rules(config, 4), clock=clock)
    assert "mcast.deliver" not in monitor.reads
    monitor.ingest([ev(1, 0.0, "n00", "node.state", "joining", "hungry")])
    CountingEvent.reads = 0
    monitor.ingest(
        [
            CountingEvent(i + 2, 1.0 + i * 1e-5, "n00", "mcast.deliver", ("n01", i, "agreed", 1))
            for i in range(50_000)
        ]
    )
    assert CountingEvent.reads == 50_000  # intake reads each one's kind, once
    assert "mcast.deliver" not in monitor._series  # ...and files none of them
    CountingEvent.reads = 0
    clock.now = 1.6
    monitor.evaluate()
    clock.now = 60.0
    monitor.evaluate()
    assert CountingEvent.reads == 0


def test_cluster_scope_merges_nodes_in_emission_order():
    rules = realtime_contract_rules(RaincoreConfig.tuned(ring_size=3), 3)
    (liveness,) = [r for r in rules if r.name == "telemetry-liveness"]
    clock = StubClock()
    monitor = ContractMonitor(None, [liveness], clock=clock)
    # Same instant on two nodes: only the ordinal says which came last.
    monitor.ingest([ev(1, 5.0, "a", "telemetry.silent", "n02", 1.5)])
    monitor.ingest([ev(2, 5.0, "collector", "telemetry.silent", "n01", 1.2)])
    monitor.ingest([ev(3, 5.0, "a", "telemetry.silent", "n00", 1.1)])
    clock.now = 5.1
    (alert,) = monitor.evaluate()
    assert alert.value == 3.0 and "n00" in alert.detail


def test_straggler_is_filed_by_time():
    rule = RuleSpec(name="ring-liveness", summary="x", window=1.0, scope="cluster")
    clock = StubClock()
    monitor = ContractMonitor(None, [rule], clock=clock)
    monitor.ingest([ev(1, 0.0, "a", "node.state", "joining", "hungry")])
    monitor.ingest([ev(2, 9.5, "a", "token.accept", "b", 1, 2, 0)])
    monitor.ingest([ev(3, 8.0, "a", "token.accept", "b", 1, 1, 0)])  # late
    series = monitor._series["token.accept"]["a"]
    assert series.ats == [8.0, 9.5] and [e.n for e in series.events] == [3, 2]
    clock.now = 10.0
    assert monitor.evaluate() == []  # the 9.5 accept is inside the window
    assert series.ats == [9.5]  # horizon pruning found the straggler


def test_window_start_is_inclusive():
    rule = RuleSpec(name="ring-liveness", summary="x", window=1.0, scope="cluster")
    log = [
        ("event", ev(1, 0.0, "a", "node.state", "joining", "hungry")),
        ("event", ev(2, 9.0, "a", "token.accept", "b", 1, 1, 0)),
        ("tick", 10.0),  # the accept sits exactly on the window's edge: counted
        ("tick", 10.25),  # now it is outside: the ring has stalled
    ]
    (alert,) = replay_both(log, [rule])
    assert alert["rule"] == "ring-liveness" and alert["at"] == 10.25
