"""Unit tests for topology, NICs, link faults and partitions."""

import pytest

from repro.net.topology import Segment, Topology, build_switched_cluster


@pytest.fixture
def topo():
    t = Topology()
    build_switched_cluster(t, ["A", "B", "C"], segments=2)
    return t


def test_builder_creates_addresses_per_segment(topo):
    assert topo.addresses_of("A") == ["A@net0", "A@net1"]
    assert topo.owner_of("B@net1") == "B"


def test_segment_membership(topo):
    seg = topo.segment("net0")
    assert seg.attached == {"A@net0", "B@net0", "C@net0"}


def test_can_deliver_same_segment(topo):
    assert topo.can_deliver("A@net0", "B@net0")


def test_cannot_deliver_across_segments(topo):
    assert not topo.can_deliver("A@net0", "B@net1")


def test_node_down_blocks_delivery_both_ways(topo):
    topo.set_node_up("B", False)
    assert not topo.can_deliver("A@net0", "B@net0")
    assert not topo.can_deliver("B@net0", "A@net0")
    topo.set_node_up("B", True)
    assert topo.can_deliver("A@net0", "B@net0")


def test_nic_down_blocks_only_that_nic(topo):
    topo.set_nic_up("B@net0", False)
    assert not topo.can_deliver("A@net0", "B@net0")
    assert topo.can_deliver("A@net1", "B@net1")  # redundant link survives


def test_blocked_pair_is_bidirectional(topo):
    topo.block_pair("A@net0", "B@net0")
    assert not topo.can_deliver("A@net0", "B@net0")
    assert not topo.can_deliver("B@net0", "A@net0")
    topo.unblock_pair("A@net0", "B@net0")
    assert topo.can_deliver("A@net0", "B@net0")


def test_block_node_pair_covers_all_nics(topo):
    topo.block_node_pair("A", "B")
    assert not topo.can_deliver("A@net0", "B@net0")
    assert not topo.can_deliver("A@net1", "B@net1")
    # Other pairs unaffected — the paper's single-link-failure scenario.
    assert topo.can_deliver("A@net0", "C@net0")
    assert topo.can_deliver("B@net0", "C@net0")


def test_partition_isolates_groups(topo):
    topo.partition([["A"], ["B", "C"]])
    assert not topo.can_deliver("A@net0", "B@net0")
    assert topo.can_deliver("B@net0", "C@net0")
    topo.heal_partition()
    assert topo.can_deliver("A@net0", "B@net0")


def test_partition_rejects_duplicate_nodes(topo):
    with pytest.raises(ValueError):
        topo.partition([["A", "B"], ["B", "C"]])


def test_partition_unknown_node(topo):
    with pytest.raises(KeyError):
        topo.partition([["Z"]])


def test_unknown_address_is_undeliverable(topo):
    assert not topo.can_deliver("A@net0", "nosuch")


def test_duplicate_node_rejected(topo):
    with pytest.raises(ValueError):
        topo.add_node("A")


def test_duplicate_address_rejected(topo):
    with pytest.raises(ValueError):
        topo.attach("A", "A@net0", "net0")


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment("s", loss=1.5)
    with pytest.raises(ValueError):
        Segment("s", latency=-1.0)
    for name in ("latency", "jitter", "spike_extra"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                Segment("s", **{name: value})


def test_path_params_returns_shared_segment(topo):
    seg = topo.path_params("A@net1", "C@net1")
    assert seg.name == "net1"


def test_path_params_raises_without_shared_segment(topo):
    with pytest.raises(KeyError):
        topo.path_params("A@net0", "C@net1")


def test_builder_requires_positive_segments():
    with pytest.raises(ValueError):
        build_switched_cluster(Topology(), ["A"], segments=0)
