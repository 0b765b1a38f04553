"""Unit tests for the unreliable unicast datagram service."""

import pytest

from repro.net.datagram import DatagramNetwork
from repro.net.eventloop import EventLoop
from repro.net.topology import Topology, build_switched_cluster


def make_net(loss=0.0, latency=1e-3, jitter=0.0, seed=0):
    loop = EventLoop(seed=seed)
    topo = Topology()
    build_switched_cluster(
        topo, ["A", "B"], segments=1, loss=loss, latency=latency, jitter=jitter
    )
    net = DatagramNetwork(loop, topo)
    return loop, topo, net


def test_basic_delivery():
    loop, topo, net = make_net()
    got = []
    net.bind("B@net0", lambda p: got.append(p))
    net.send("A@net0", "B@net0", "hello", 5)
    loop.run_until_idle()
    assert len(got) == 1
    assert got[0].payload == "hello"
    assert got[0].src == "A@net0"


def test_delivery_delayed_by_latency():
    loop, topo, net = make_net(latency=0.25)
    times = []
    net.bind("B@net0", lambda p: times.append(loop.now))
    net.send("A@net0", "B@net0", "x", 1)
    loop.run_until_idle()
    assert times == [pytest.approx(0.25)]


def test_loss_drops_packets():
    loop, topo, net = make_net(loss=1.0)
    got = []
    net.bind("B@net0", lambda p: got.append(p))
    net.send("A@net0", "B@net0", "x", 1)
    loop.run_until_idle()
    assert got == []
    assert net.packets_dropped == 1


def test_partial_loss_statistics():
    loop, topo, net = make_net(loss=0.5, seed=7)
    got = []
    net.bind("B@net0", lambda p: got.append(p))
    for _ in range(1000):
        net.send("A@net0", "B@net0", "x", 1)
    loop.run_until_idle()
    # Binomial(1000, 0.5): far outside [400, 600] would indicate a bug.
    assert 400 < len(got) < 600


def test_sender_charged_even_on_drop():
    loop, topo, net = make_net(loss=1.0)
    net.send("A@net0", "B@net0", "x", 42)
    assert net.stats.for_node("A").packets_sent == 1
    assert net.stats.for_node("A").bytes_sent == 42


def test_receiver_charged_only_on_delivery():
    loop, topo, net = make_net()
    net.bind("B@net0", lambda p: None)
    net.send("A@net0", "B@net0", "x", 42)
    loop.run_until_idle()
    assert net.stats.for_node("B").packets_received == 1
    assert net.stats.for_node("B").bytes_received == 42


def test_unbound_destination_drops():
    loop, topo, net = make_net()
    net.send("A@net0", "B@net0", "x", 1)
    loop.run_until_idle()
    assert net.packets_dropped == 1
    assert net.packets_delivered == 0


def test_crash_while_in_flight_drops():
    """A packet must not arrive at a node that died mid-flight."""
    loop, topo, net = make_net(latency=0.1)
    got = []
    net.bind("B@net0", lambda p: got.append(p))
    net.send("A@net0", "B@net0", "x", 1)
    topo.set_node_up("B", False)
    loop.run_until_idle()
    assert got == []


def test_negative_size_rejected():
    loop, topo, net = make_net()
    with pytest.raises(ValueError):
        net.send("A@net0", "B@net0", "x", -1)


def test_jitter_within_bounds():
    loop, topo, net = make_net(latency=0.1, jitter=0.05, seed=3)
    times = []
    net.bind("B@net0", lambda p: times.append(loop.now))
    base = 0.0
    for i in range(100):
        net.send("A@net0", "B@net0", "x", 1)
    loop.run_until_idle()
    assert all(0.1 <= t < 0.15 + 1e-9 for t in times)
    assert len(set(times)) > 1  # jitter actually varies


def test_trace_hook_sees_sends_and_drops():
    loop, topo, net = make_net(loss=1.0)
    traced = []
    net.trace = lambda pkt, ok: traced.append(ok)
    net.send("A@net0", "B@net0", "x", 1)
    assert traced == [False]


def test_determinism_same_seed_same_outcome():
    outcomes = []
    for _ in range(2):
        loop, topo, net = make_net(loss=0.3, jitter=0.01, seed=555)
        got = []
        net.bind("B@net0", lambda p: got.append(loop.now))
        for _ in range(50):
            net.send("A@net0", "B@net0", "x", 1)
        loop.run_until_idle()
        outcomes.append(tuple(got))
    assert outcomes[0] == outcomes[1]


def test_a_packet_in_flight_is_a_plain_heap_entry():
    """An arrival carries no TimerHandle, yet orders, steps, peeks and
    bills exactly like the timer ``call_later`` would have made: same
    instant as a timer armed after the send, it fires first."""
    from tests.test_eventloop import StubHook

    loop, topo, net = make_net(latency=0.25)
    order = []
    net.bind("B@net0", lambda p: order.append(p.payload))
    net.send("A@net0", "B@net0", "first", 1)
    loop.call_later(0.25, order.append, "timer")
    net.send("A@net0", "B@net0", "second", 1)
    assert loop.peek_time() == pytest.approx(0.25)
    assert loop.step() is True
    assert order == ["first"]
    hook = loop.profile = StubHook()
    assert loop.run_until_idle() == 2
    assert order == ["first", "timer", "second"]
    assert [cb for cb, _, _ in hook.accounted] == [order.append, net._deliver]
    assert loop.peek_time() is None and loop.step() is False
