"""Unit tests for the Raincore Transport Service (paper §2.1)."""

import pytest

from repro.net.datagram import DatagramNetwork
from repro.net.eventloop import EventLoop
from repro.net.topology import Topology, build_switched_cluster
from repro.transport.messages import (
    AckFrame,
    BareFrame,
    DataFrame,
    TRANSPORT_HEADER,
    UDP_IP_HEADER,
    frame_size,
)
from repro.transport.multipath import SendStrategy, plan_routes
from repro.transport.reliable import ReliableUnicast, TransportConfig


def make_pair(segments=1, loss=0.0, seed=0, config=None, node_ids=("A", "B")):
    loop = EventLoop(seed=seed)
    topo = Topology()
    build_switched_cluster(topo, list(node_ids), segments=segments, loss=loss)
    net = DatagramNetwork(loop, topo)
    transports = {
        nid: ReliableUnicast(nid, loop, net, config) for nid in node_ids
    }
    for t in transports.values():
        t.start()
    return loop, topo, net, transports


# ----------------------------------------------------------------------
# frame model
# ----------------------------------------------------------------------
class _Sized:
    def wire_size(self):
        return 100


def test_data_frame_size_includes_headers():
    f = DataFrame("A", "B", 1, _Sized())
    assert frame_size(f) == UDP_IP_HEADER + TRANSPORT_HEADER + 100


def test_data_frame_size_bytes_payload():
    f = DataFrame("A", "B", 1, b"12345")
    assert frame_size(f) == UDP_IP_HEADER + TRANSPORT_HEADER + 5


def test_ack_frame_is_header_only():
    assert frame_size(AckFrame("A", "B", 1)) == UDP_IP_HEADER + TRANSPORT_HEADER


def test_bare_frame_size():
    f = BareFrame("A", "B", b"xyz")
    assert frame_size(f) == UDP_IP_HEADER + TRANSPORT_HEADER + 3


def test_unsized_payload_rejected():
    f = DataFrame("A", "B", 1, object())
    with pytest.raises(TypeError):
        f.payload_size()


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
def test_config_validation():
    for value in (0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="retx_timeout"):
            TransportConfig(retx_timeout=value)
    with pytest.raises(ValueError):
        TransportConfig(attempts_per_route=0)


def test_failure_detection_bound():
    cfg = TransportConfig(retx_timeout=0.05, attempts_per_route=3)
    assert cfg.failure_detection_bound(1) == pytest.approx(0.15)
    assert cfg.failure_detection_bound(2) == pytest.approx(0.30)
    par = TransportConfig(
        retx_timeout=0.05, attempts_per_route=3, strategy=SendStrategy.PARALLEL
    )
    assert par.failure_detection_bound(2) == pytest.approx(0.15)


# ----------------------------------------------------------------------
# multipath planning
# ----------------------------------------------------------------------
def test_plan_routes_matches_segments():
    loop, topo, net, _ = make_pair(segments=2)
    plan = plan_routes(topo, "A", "B")
    assert plan.pairs == (("A@net0", "B@net0"), ("A@net1", "B@net1"))


def test_plan_routes_empty_without_shared_segment():
    loop = EventLoop()
    topo = Topology()
    topo.add_segment(__import__("repro.net.topology", fromlist=["Segment"]).Segment("s1"))
    topo.add_segment(__import__("repro.net.topology", fromlist=["Segment"]).Segment("s2"))
    topo.add_node("A")
    topo.add_node("B")
    topo.attach("A", "a1", "s1")
    topo.attach("B", "b2", "s2")
    assert not plan_routes(topo, "A", "B")


# ----------------------------------------------------------------------
# reliable delivery
# ----------------------------------------------------------------------
def test_basic_acked_delivery():
    loop, topo, net, t = make_pair()
    got, results = [], []
    t["B"].set_receiver(lambda src, p: got.append((src, p)))
    t["A"].send("B", b"payload", on_result=results.append)
    loop.run_for(1.0)
    assert got == [("A", b"payload")]
    assert results == [True]


def test_retransmit_recovers_from_loss():
    loop, topo, net, t = make_pair(loss=0.6, seed=5)
    got, results = [], []
    t["B"].set_receiver(lambda src, p: got.append(p))
    cfg_bound = t["A"].config.failure_detection_bound()
    delivered = 0
    for i in range(50):
        t["A"].send("B", f"m{i}".encode(), on_result=results.append)
        loop.run_for(max(1.0, 2 * cfg_bound))
    # With 3 attempts at 60% loss, ~94% get through; far more than half.
    assert len(got) > 30
    assert len(results) == 50
    # A success report implies delivery; the converse does not hold — the
    # message may arrive while every ack is lost (the false-alarm case the
    # session layer's 911 protocol exists to heal).
    assert results.count(True) <= len(got)


def test_duplicates_suppressed_but_always_acked():
    """Lost acks cause retransmits; the receiver must deliver once."""
    loop, topo, net, t = make_pair()
    got = []
    t["B"].set_receiver(lambda src, p: got.append(p))
    # Force a duplicate by sending the same DataFrame twice at datagram level.
    frame = DataFrame("A", "B", 999, b"dup")
    net.send("A@net0", "B@net0", frame, frame_size(frame))
    net.send("A@net0", "B@net0", frame, frame_size(frame))
    loop.run_for(0.1)
    assert got == [b"dup"]


def test_failure_on_delivery_when_peer_down():
    loop, topo, net, t = make_pair()
    topo.set_node_up("B", False)
    results = []
    t["A"].send("B", b"x", on_result=results.append)
    loop.run_for(2.0)
    assert results == [False]
    assert t["A"].pending_count() == 0


def test_failure_detection_latency_within_bound():
    cfg = TransportConfig(retx_timeout=0.05, attempts_per_route=3)
    loop, topo, net, t = make_pair(config=cfg)
    topo.set_node_up("B", False)
    failed_at = []
    t["A"].send("B", b"x", on_result=lambda ok: failed_at.append(loop.now))
    loop.run_for(2.0)
    assert failed_at[0] <= cfg.failure_detection_bound(1) + 0.01


def test_no_route_fails_async():
    loop, topo, net, t = make_pair()
    # Detach B entirely by using an unknown destination node.
    with pytest.raises(KeyError):
        t["A"].send("Z", b"x")


def test_send_to_self_rejected():
    loop, topo, net, t = make_pair()
    with pytest.raises(ValueError):
        t["A"].send("A", b"x")


def test_send_requires_started_transport():
    loop, topo, net, t = make_pair()
    t["A"].stop()
    with pytest.raises(RuntimeError):
        t["A"].send("B", b"x")


def test_stop_abandons_pending_without_callbacks():
    loop, topo, net, t = make_pair()
    topo.set_node_up("B", False)
    results = []
    t["A"].send("B", b"x", on_result=results.append)
    t["A"].stop()
    loop.run_for(2.0)
    assert results == []


def test_cancel_send():
    loop, topo, net, t = make_pair()
    topo.set_node_up("B", False)
    results = []
    msg_id = t["A"].send("B", b"x", on_result=results.append)
    t["A"].cancel(msg_id)
    loop.run_for(2.0)
    assert results == []


# ----------------------------------------------------------------------
# redundant links (paper §2.1 item 2)
# ----------------------------------------------------------------------
def test_sequential_fails_over_to_second_link():
    loop, topo, net, t = make_pair(segments=2)
    topo.set_nic_up("B@net0", False)  # first link dead
    got, results = [], []
    t["B"].set_receiver(lambda src, p: got.append(p))
    t["A"].send("B", b"via-link-2", on_result=results.append)
    loop.run_for(2.0)
    assert got == [b"via-link-2"]
    assert results == [True]


def test_parallel_strategy_delivers_once_despite_duplicates():
    cfg = TransportConfig(strategy=SendStrategy.PARALLEL)
    loop, topo, net, t = make_pair(segments=2, config=cfg)
    got, results = [], []
    t["B"].set_receiver(lambda src, p: got.append(p))
    t["A"].send("B", b"x", on_result=results.append)
    loop.run_for(1.0)
    assert got == [b"x"]
    assert results == [True]


def test_failure_needs_all_links_down():
    loop, topo, net, t = make_pair(segments=2)
    topo.set_nic_up("B@net0", False)
    topo.set_nic_up("B@net1", False)
    results = []
    t["A"].send("B", b"x", on_result=results.append)
    loop.run_for(2.0)
    assert results == [False]


# ----------------------------------------------------------------------
# best-effort sends (BODYODOR path)
# ----------------------------------------------------------------------
def test_best_effort_delivery():
    loop, topo, net, t = make_pair()
    got = []
    t["B"].set_receiver(lambda src, p: got.append((src, p)))
    t["A"].send_best_effort("B", b"beacon")
    loop.run_for(0.1)
    assert got == [("A", b"beacon")]


def test_best_effort_single_packet_no_retx():
    loop, topo, net, t = make_pair(loss=1.0)
    t["A"].send_best_effort("B", b"beacon")
    loop.run_for(1.0)
    assert net.stats.for_node("A").packets_sent == 1  # exactly one, no retries
