"""Tests for the FaultInjector's surgical-fault and adversity APIs."""

import pytest

from repro.cluster.invariants import InvariantMonitor
from repro.core.states import NodeState
from repro.transport.messages import AckFrame
from tests.conftest import make_cluster

pytestmark = pytest.mark.integration


# ----------------------------------------------------------------------
# stacked packet filters (drop_matching / stop_dropping / clear_filters)
# ----------------------------------------------------------------------
def test_drop_matching_drops_only_matching(abcd):
    """A drop rule kills matching packets and nothing else."""
    topo = abcd.topology
    before = abcd.network.packets_dropped
    handle = abcd.faults.drop_matching(
        lambda p: topo.owner_of(p.dst) == "C"
    )
    abcd.run(1.0)
    dropped_during = abcd.network.packets_dropped - before
    assert dropped_during > 0
    # C is cut off in both directions it can be reached; the ring reforms
    # around it once failure detection fires.
    abcd.faults.stop_dropping(handle)
    assert abcd.run_until_converged(20.0, expected=set("ABCD"))


def test_drop_rules_stack_and_clear(abcd):
    """Several concurrent rules compose; clear_filters removes them all."""
    seen = []
    h1 = abcd.faults.drop_matching(
        lambda p: isinstance(p.payload, AckFrame) and not seen.append("ack")
    )
    h2 = abcd.faults.drop_matching(lambda p: False)  # matches nothing
    assert h1 != h2
    abcd.run(0.2)
    assert seen, "first rule never consulted"
    abcd.faults.clear_filters()
    assert abcd.network._filters == {}
    # Dropping the stale handle again is an allowed no-op.
    abcd.faults.stop_dropping(h1)
    assert abcd.run_until_converged(10.0, expected=set("ABCD"))


# ----------------------------------------------------------------------
# lose_token and its in-flight blind spot
# ----------------------------------------------------------------------
def test_lose_token_held_path(abcd):
    """While a node holds the token, lose_token destroys it directly."""
    deadline = abcd.loop.now + 2.0
    while abcd.loop.now < deadline and not abcd.token_holders():
        abcd.loop.step()
    assert abcd.token_holders()
    assert abcd.faults.lose_token() is True
    assert abcd.token_holders() == []
    # 911 regenerates the token and the group reconverges.
    deadline = abcd.loop.now + 20.0
    while abcd.loop.now < deadline and not abcd.token_holders():
        abcd.run(0.05)
    assert sum(abcd.node(n).recovery.regenerations for n in "ABCD") >= 1
    assert abcd.run_until_converged(10.0, expected=set("ABCD"))


def test_lose_token_in_flight_blind_spot(abcd):
    """Between holders, lose_token is blind; lose_token_in_flight is not."""
    deadline = abcd.loop.now + 2.0
    while abcd.loop.now < deadline and abcd.token_holders():
        abcd.loop.step()
    assert abcd.token_holders() == [], "never caught the token in flight"
    # The blind spot: no node holds the token, so lose_token does nothing.
    assert abcd.faults.lose_token() is False
    regens_before = sum(abcd.node(n).recovery.regenerations for n in "ABCD")
    # The deferred variant retries until the token lands, then kills it.
    abcd.faults.lose_token_in_flight(timeout=1.0)
    abcd.run(10.0)
    regens_after = sum(abcd.node(n).recovery.regenerations for n in "ABCD")
    assert regens_after > regens_before, "token was never destroyed"
    assert abcd.run_until_converged(10.0, expected=set("ABCD"))


def test_lose_token_in_flight_validates_args(abcd):
    with pytest.raises(ValueError):
        abcd.faults.lose_token_in_flight(timeout=0.0)
    with pytest.raises(ValueError):
        abcd.faults.lose_token_in_flight(poll=-1.0)


# ----------------------------------------------------------------------
# flapping NICs
# ----------------------------------------------------------------------
def test_flap_nic_recovers_and_converges():
    """A gray NIC flaps through a dual-segment cluster; the redundant
    segment carries the group through, and the NIC ends up."""
    c = make_cluster("ABCD", segments=2)
    c.start_all()
    addr = c.faults.flap_nic("B", segment_index=0, period=0.2, duration=1.0)
    c.run(0.01)
    assert c.topology.nic_up(addr) is False  # first toggle is down
    c.run(1.5)
    assert c.topology.nic_up(addr) is True  # forced up after duration
    assert c.run_until_converged(10.0, expected=set("ABCD"))


def test_flap_nic_validates_args(abcd):
    with pytest.raises(ValueError):
        abcd.faults.flap_nic("A", period=0.0)
    with pytest.raises(ValueError):
        abcd.faults.flap_nic("A", duration=-1.0)


# ----------------------------------------------------------------------
# forged duplicate tokens
# ----------------------------------------------------------------------
def test_forge_duplicate_token_plants_second_holder(abcd):
    deadline = abcd.loop.now + 2.0
    while abcd.loop.now < deadline and not abcd.token_holders():
        abcd.loop.step()
    assert len(abcd.token_holders()) == 1
    assert abcd.faults.forge_duplicate_token() is True
    assert len(abcd.token_holders()) == 2
    holders = [abcd.node(h) for h in abcd.token_holders()]
    assert all(h.state is NodeState.EATING for h in holders)


def test_forge_duplicate_token_needs_a_holder(abcd):
    deadline = abcd.loop.now + 2.0
    while abcd.loop.now < deadline and abcd.token_holders():
        abcd.loop.step()
    assert abcd.faults.forge_duplicate_token() is False  # token in flight


# ----------------------------------------------------------------------
# network adversity setters
# ----------------------------------------------------------------------
def test_duplication_delivers_twice_but_protocol_dedups(abcd):
    """Packet duplication doubles deliveries on the wire; transport and
    multicast dedup keep the application stream exactly-once."""
    monitor = InvariantMonitor(abcd, interval=0.001)
    monitor.start()
    abcd.faults.set_duplication(0.5)
    for i in range(10):
        abcd.node("ABCD"[i % 4]).multicast(f"m{i}")
    abcd.run(2.0)
    abcd.faults.clear_adversities()
    abcd.run(2.0)
    monitor.stop()
    assert abcd.network.packets_duplicated > 0
    for nid in "ABCD":
        keys = abcd.listener(nid).delivery_keys
        assert len(keys) == len(set(keys)), f"duplicate delivery at {nid}"
    monitor.assert_clean(max_double_token_time=0.5)


def test_burst_loss_set_and_clear(abcd):
    abcd.faults.set_burst_loss(0.05, 0.3, segment="net0")
    seg = abcd.topology.segment("net0")
    assert seg.burst is not None
    dropped_before = abcd.network.packets_dropped
    abcd.run(2.0)
    assert abcd.network.packets_dropped > dropped_before
    abcd.faults.clear_burst_loss(segment="net0")
    assert seg.burst is None
    assert abcd.run_until_converged(20.0, expected=set("ABCD"))


def test_delay_spikes_slow_but_do_not_break(abcd):
    abcd.faults.set_delay_spikes(0.2, 0.005)
    abcd.node("A").multicast("spiky")
    abcd.run(2.0)
    abcd.faults.set_delay_spikes(0.0, 0.0)
    assert abcd.run_until_converged(10.0, expected=set("ABCD"))
    assert all(abcd.listener(n).deliveries for n in "ABCD")


def test_clear_adversities_resets_segment(abcd):
    abcd.faults.set_duplication(0.3)
    abcd.faults.set_burst_loss(0.1, 0.5)
    abcd.faults.set_delay_spikes(0.1, 0.01)
    abcd.faults.clear_adversities()
    for seg in abcd.topology.segments():
        assert seg.duplicate == 0.0
        assert seg.burst is None
        assert seg.spike_prob == 0.0 and seg.spike_extra == 0.0


# ----------------------------------------------------------------------
# ack blackout (canned false-alarm factory)
# ----------------------------------------------------------------------
def test_ack_blackout_installs_and_self_removes(abcd):
    abcd.faults.ack_blackout("B", "A", duration=0.5)
    assert len(abcd.network._filters) == 1
    abcd.run(1.0)
    assert abcd.network._filters == {}  # removal was scheduled
    assert abcd.run_until_converged(20.0, expected=set("ABCD"))
