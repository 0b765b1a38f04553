"""Tests for the contract monitor (repro.obs.monitor).

The monitor watches the probe bus and holds a live run to the paper's
own numbers: token roundtrip rate vs L, GC wakeup budget, the 0.15 s
failure-detection bound, per-node bandwidth share, and ring liveness.
These tests pin the two directions that matter:

* **clean seeds stay silent** — healthy runs, including a crash +
  recover cycle the protocol is designed to absorb, fire zero alerts;
* **known-bad schedules fire the right rule** — moderate delay spikes
  collapse the token visit rate (token-rate), and an ack blackout
  stretches arm→verdict latency past the paper bound (fd-latency).

Alert streams are part of the replay contract: same seed, same alerts,
byte-for-byte.
"""

from __future__ import annotations

import pytest

from repro.chaos.engine import ChaosEngine
from repro.chaos.schedule import ChaosParams, FaultOp, Schedule
from repro.cluster.harness import RaincoreCluster
from repro.core.config import RaincoreConfig
from repro.obs.monitor import (
    Alert,
    ContractMonitor,
    RuleSpec,
    alert_from_record,
    paper_contract_rules,
    render_alerts,
)

from .test_monitor_equivalence import retained


def build(nodes=4, seed=11, segments=1, detection_bound=None):
    """Probed cluster + monitor running the paper rule set."""
    ids = [f"n{i:02d}" for i in range(nodes)]
    config = RaincoreConfig.tuned(ring_size=nodes)
    cluster = RaincoreCluster(ids, seed=seed, segments=segments, config=config)
    bus = cluster.enable_probes()
    rules = paper_contract_rules(
        config, nodes, segments=segments, detection_bound=detection_bound
    )
    monitor = ContractMonitor(bus, rules)
    cluster.start_all()
    monitor.start()
    return cluster, monitor


# ----------------------------------------------------------------------
# clean seeds fire nothing
# ----------------------------------------------------------------------
def test_clean_run_fires_zero_alerts():
    cluster, monitor = build()
    cluster.run(5.0)
    monitor.evaluate()
    assert monitor.alerts == [], render_alerts(monitor.alerts)


def test_clean_crash_and_recover_fires_zero_alerts():
    # A crash the detector catches inside its bound, then a rejoin, is
    # the protocol working as designed — the monitor must not page.
    cluster, monitor = build(seed=7)
    cluster.run(2.0)
    cluster.faults.crash_node("n03")
    cluster.run(5.0)
    cluster.faults.recover_node("n03")
    cluster.run(5.0)
    monitor.evaluate()
    assert monitor.alerts == [], render_alerts(monitor.alerts)


# ----------------------------------------------------------------------
# known-bad schedules fire the right rule
# ----------------------------------------------------------------------
def test_delay_spikes_collapse_token_rate():
    # extra=0.035 slows the effective hop below the rate tolerance while
    # keeping ack RTTs inside the transport bound, so the ring limps
    # instead of partitioning — exactly the failure the rate rule owns.
    cluster, monitor = build(seed=11)
    cluster.run(2.0)
    cluster.faults.set_delay_spikes(1.0, 0.035)
    cluster.run(4.0)
    monitor.evaluate()
    rate_alerts = [a for a in monitor.alerts if a.rule == "token-rate"]
    assert rate_alerts, render_alerts(monitor.alerts)
    worst = rate_alerts[0]
    assert worst.severity == "critical"
    assert worst.value < worst.bound  # observed visits/s under the floor


def test_ack_blackout_breaks_fd_latency_bound():
    # Dropping acks receiver->forwarder on one ring edge stretches the
    # arm->verdict latency past the paper's 0.15 s single-route bound.
    cluster, monitor = build(seed=11, segments=2, detection_bound=0.15)
    cluster.run(2.0)
    cluster.faults.ack_blackout("n00", "n01", 2.0)
    cluster.run(4.0)
    monitor.evaluate()
    fd_alerts = [a for a in monitor.alerts if a.rule == "fd-latency"]
    assert fd_alerts, render_alerts(monitor.alerts)
    assert fd_alerts[0].value > 0.15


def test_alert_stream_is_deterministic_across_same_seed_runs():
    def alerts_of_one_run():
        cluster, monitor = build(seed=11)
        cluster.run(2.0)
        cluster.faults.set_delay_spikes(1.0, 0.035)
        cluster.run(4.0)
        monitor.evaluate()
        return monitor.alert_records()

    first, second = alerts_of_one_run(), alerts_of_one_run()
    assert first and first == second


# ----------------------------------------------------------------------
# monitor mechanics
# ----------------------------------------------------------------------
def test_monitor_stop_detaches_from_bus():
    cluster, monitor = build()
    cluster.run(1.0)
    monitor.stop()
    ticks, before = monitor.ticks, retained(monitor)
    cluster.run(1.0)
    assert monitor.ticks == ticks  # timer cancelled: no more passes
    assert before and retained(monitor) == before  # unsubscribed: no intake


def test_rulespec_validation():
    with pytest.raises(ValueError, match="unknown contract rule"):
        RuleSpec(name="no-such-rule", summary="x", window=1.0)
    with pytest.raises(ValueError, match="window must be positive"):
        RuleSpec(name="token-rate", summary="x", window=0.0)
    with pytest.raises(ValueError, match="severity"):
        RuleSpec(name="token-rate", summary="x", window=1.0, severity="meh")
    with pytest.raises(ValueError, match="scope"):
        RuleSpec(name="token-rate", summary="x", window=1.0, scope="rack")


def test_paper_rules_derive_bounds_from_config():
    config = RaincoreConfig.tuned(ring_size=4)
    rules = {r.name: r for r in paper_contract_rules(config, 4)}
    assert set(rules) == {
        "token-rate",
        "wakeup-budget",
        "fd-latency",
        "bandwidth-share",
        "ring-liveness",
        "buffer-bound",
        "state-transitions",
    }
    assert rules["buffer-bound"].severity == "critical"
    # The fd bound is the transport's own derivation, not a constant.
    assert rules["fd-latency"].params["bound"] == pytest.approx(
        config.transport.failure_detection_bound(1)
    )
    assert rules["ring-liveness"].scope == "cluster"


def test_alert_record_roundtrip():
    alert = Alert(
        rule="token-rate",
        severity="critical",
        node="n01",
        at=3.25,
        since=2.75,
        value=6.0,
        bound=12.5,
        detail="observed 6.0/s < floor 12.5/s",
    )
    assert alert_from_record(alert.record()) == alert
    assert "token-rate" in render_alerts([alert.record()])
    assert render_alerts([]) == "no contract alerts"


# ----------------------------------------------------------------------
# chaos integration: alerts ride in bundles, stats stay pinned
# ----------------------------------------------------------------------
def test_chaos_run_carries_alerts_without_touching_stats():
    params = ChaosParams(nodes=4, seconds=6.0, seed=11, strict=True)
    schedule = Schedule(
        params=params,
        ops=[FaultOp(at=2.0, kind="spike", args=("net0", 1.0, 0.035))],
    )
    result = ChaosEngine(schedule).run()
    assert any(a["rule"] == "token-rate" for a in result.alerts)
    # Observational: alerts alone must not fail a run or leak into the
    # golden-pinned stats dict.
    assert "alerts" not in result.stats


def test_clean_chaos_run_has_empty_alerts():
    params = ChaosParams(nodes=4, seconds=4.0, seed=11, strict=True)
    result = ChaosEngine(Schedule(params=params, ops=[])).run()
    assert result.ok and result.alerts == []
