"""Tests for the sharded parallel simulator (repro.parallel).

Covers the partitioner, the canonical exchange ordering, the epoch-edge
arrival rule, the lockstep-epoch run, and the sharded chaos campaign.
The committed golden stream is pinned in tests/test_parallel_golden.py.
"""

from __future__ import annotations

import pytest

from repro.net.datagram import Datagram, DatagramNetwork
from repro.net.eventloop import EventLoop
from repro.net.topology import Segment, Topology, derive_rng_seed
from repro.parallel import (
    ParallelSimulator,
    SerialExchange,
    epoch_boundaries,
    partition_topology,
)
from repro.parallel.campaign import run_sharded_campaign
from repro.parallel.exchange import inject_batch
from repro.parallel.workloads import build_workload


def two_island_topology(trunk_latency: float = 0.01) -> Topology:
    """Two 2-node LANs joined by one deterministic trunk."""
    topo = Topology()
    topo.add_segment(Segment(name="lan_a", latency=1e-4, jitter=1e-5))
    topo.add_segment(Segment(name="lan_b", latency=1e-4, jitter=1e-5))
    topo.add_segment(Segment(name="wan", latency=trunk_latency, jitter=0.0))
    for node, lan in (("a0", "lan_a"), ("a1", "lan_a"), ("b0", "lan_b"), ("b1", "lan_b")):
        topo.add_node(node)
        topo.attach(node, f"{node}@{lan}", lan)
    topo.attach("a0", "a0@wan", "wan")
    topo.attach("b0", "b0@wan", "wan")
    return topo


# ----------------------------------------------------------------------
# partitioner
# ----------------------------------------------------------------------
def test_partition_two_islands():
    plan = partition_topology(two_island_topology())
    assert len(plan.groups) == 2
    assert plan.groups[0].nodes == ("a0", "a1")
    assert plan.groups[1].nodes == ("b0", "b1")
    assert plan.groups[0].segments == ("lan_a",)
    assert plan.trunks == ("wan",)
    assert plan.lookahead == pytest.approx(0.01)


def test_partition_demotes_non_bridging_deterministic_segment():
    topo = two_island_topology()
    # Deterministic but strictly inside island A: must NOT become a cut.
    topo.add_segment(Segment(name="a_extra", latency=5e-4, jitter=0.0))
    topo.attach("a0", "a0@a_extra", "a_extra")
    topo.attach("a1", "a1@a_extra", "a_extra")
    plan = partition_topology(topo)
    assert plan.trunks == ("wan",)
    assert "a_extra" in plan.groups[0].segments


def test_partition_rejects_adverse_trunk():
    topo = two_island_topology()
    topo.segment("wan").loss = 0.01
    with pytest.raises(ValueError, match="adversity"):
        partition_topology(topo, trunk_segments=("wan",))


def test_partition_rejects_zero_latency_cut():
    with pytest.raises(ValueError, match="zero latency"):
        partition_topology(two_island_topology(trunk_latency=0.0))


def test_cut_report_shape():
    plan = partition_topology(two_island_topology())
    report = plan.cut_report()
    assert report["lookahead"] == pytest.approx(0.01)
    assert report["cut_cost_attachments"] == 2
    assert [g["nodes"] for g in report["groups"]] == [2, 2]
    assert report["cut_edges"][0]["segment"] == "wan"
    assert "lookahead" in plan.render_report()


def test_derive_rng_seed_is_stable_and_keyed():
    assert derive_rng_seed(7, "trunk") == derive_rng_seed(7, "trunk")
    assert derive_rng_seed(7, "trunk") != derive_rng_seed(7, "ring00")
    assert derive_rng_seed(7, "trunk") != derive_rng_seed(8, "trunk")


# ----------------------------------------------------------------------
# epoch boundaries + exchange ordering
# ----------------------------------------------------------------------
def test_epoch_boundaries_cover_horizon_exactly():
    ends = epoch_boundaries(1.0, 0.3)
    assert ends == [0.3, 0.6, 0.8999999999999999, 1.0]
    assert epoch_boundaries(0.2, 0.3) == [0.2]
    with pytest.raises(ValueError):
        epoch_boundaries(0.0, 0.3)
    with pytest.raises(ValueError):
        epoch_boundaries(1.0, 0.0)


def _exchange_rig():
    topo = two_island_topology()
    loop = EventLoop(seed=1)
    network = DatagramNetwork(loop, topo)
    return loop, network


def test_serial_exchange_canonical_order():
    loop, network = _exchange_rig()
    seen = []
    network.bind("b0@wan", lambda p: seen.append(p.payload))
    exchange = SerialExchange(network)
    network.set_exchange(exchange, frozenset({"wan"}))
    # Same arrival instant, submitted out of canonical (src, dst) order:
    # injection must sort by (when, src, dst, submit_idx).
    exchange.submit(Datagram("a0@wan", "b0@wan", "second", 1), 0.01)
    exchange.submit(Datagram("a0@wan", "b0@wan", "third", 1), 0.02)
    exchange.submit(Datagram("a0@wan", "b0@wan", "first", 1), 0.005)
    assert exchange.flush_epoch() == 3
    loop.run_until(0.05)
    assert seen == ["first", "second", "third"]


def test_inject_batch_ties_resolve_by_src_then_submit_idx():
    loop, network = _exchange_rig()
    seen = []
    network.bind("b0@wan", lambda p: seen.append(p.payload))
    records = [
        (0.01, "b0@wan", "b0@wan", 0, Datagram("b0@wan", "b0@wan", "z", 1)),
        (0.01, "a0@wan", "b0@wan", 1, Datagram("a0@wan", "b0@wan", "y", 1)),
        (0.01, "a0@wan", "b0@wan", 0, Datagram("a0@wan", "b0@wan", "x", 1)),
    ]
    inject_batch(network, records)
    loop.run_until(0.05)
    assert seen == ["x", "y", "z"]


def test_trunk_delivery_fires_after_local_events_at_same_instant():
    # A trunk arrival at t and a local event at t: local (priority 0)
    # must run first regardless of scheduling order.
    loop, network = _exchange_rig()
    order = []
    network.bind("b0@wan", lambda p: order.append("trunk"))
    network.deliver_trunk(Datagram("a0@wan", "b0@wan", "p", 1), 0.01)
    loop.call_at(0.01, order.append, "local")
    loop.run_until(0.02)
    assert order == ["local", "trunk"]


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------
SMALL = {"rings": 2, "ring_size": 3, "trunk_latency": 0.01}


def test_cross_shard_packet_exactly_at_epoch_edge():
    # trunk latency = epoch length, ping armed exactly at an epoch
    # boundary: the arrival lands exactly on the next boundary and must
    # be delivered once, in the epoch that starts there.
    params = {
        "rings": 2,
        "ring_size": 3,
        "trunk_latency": 0.05,
        "ping_start": 0.05,   # k*E exactly (k=1)
        "ping_interval": 0.05,  # every arrival lands on a boundary
        "mcast_start": 10.0,  # quiesce multicast load for clarity
    }
    result = ParallelSimulator("multi_ring", 5, params).run(1.0)
    # ping at t=0.05+ring*1e-4 .. every 0.05 until 1.0; ring 0's timer
    # fires exactly on boundaries: 19 sends, each delivered exactly once
    # (the last arrival lands exactly at the horizon and is not run —
    # run_epoch ends strictly before its end time).
    assert result.facts["ping_tx.ring00"] == 19
    assert result.facts["ping_rx.ring01"] == 18


def test_single_group_workload_runs_on_one_loop():
    # One ring and no trunk: no cut, so the classic single-loop path runs
    # with no epochs and nothing to exchange.
    sim = ParallelSimulator("multi_ring", 3, {"rings": 1, "ring_size": 3})
    result = sim.run(0.5)
    assert result.epochs == 0 and result.events > 0


def test_workload_registry_validates():
    with pytest.raises(ValueError, match="unknown workload"):
        build_workload("nope", 1, {})


def test_workload_build_is_deterministic():
    a = ParallelSimulator("multi_ring", 9, SMALL).run(1.0)
    b = ParallelSimulator("multi_ring", 9, SMALL).run(1.0)
    assert a.facts == b.facts and a.events == b.events


# ----------------------------------------------------------------------
# sharded chaos campaign
# ----------------------------------------------------------------------
def test_sharded_campaign_converges_clean():
    result = run_sharded_campaign(seed=7, shards=4, seconds=10.0)
    assert result.ok, result.alerts
    assert result.faults  # seed 7 draws at least one fault
    assert result.result.epochs > 0


def test_sharded_campaign_rejects_short_window():
    with pytest.raises(ValueError, match="8 virtual seconds"):
        run_sharded_campaign(seed=1, shards=2, seconds=4.0)
