"""Attach at departure: a visit's multicast pipeline is split at the hold.

The arrival half (receive, confirm/retire, deliver) runs when the token
arrives; the departure half (attach, deliver own) runs as the hold ends,
just before the forward.  So whatever a node queues while it holds the
token leaves with that token instead of waiting a lap.  These cases pin
the new timing on seeded simulated rings; the parent's arrival-time
attach, an attach after the merge initiation and a mid-hold leave that
skips the departure half each fail at least one of them.
"""

from __future__ import annotations

import itertools

import pytest

from repro.cluster.harness import RaincoreCluster
from repro.core.config import RaincoreConfig
from repro.core.multicast import MulticastService
from repro.core.session import RaincoreNode
from repro.core.states import NodeState

HOP = 0.005
EPS = HOP / 10


def _ring(node_ids: str = "ABCD", seed: int = 3) -> RaincoreCluster:
    cluster = RaincoreCluster(
        list(node_ids),
        seed=seed,
        config=RaincoreConfig.tuned(ring_size=len(node_ids), hop_interval=HOP),
    )
    cluster.start_all()
    cluster.run(0.5)
    return cluster


def _next_arrival(cluster: RaincoreCluster, nid: str) -> float:
    """Step until ``nid`` accepts the token afresh; return that instant."""
    node = cluster.node(nid)
    while node.is_eating:
        cluster.loop.step()
    while not node.is_eating:
        cluster.loop.step()
    return cluster.loop.now


def _completed(cluster: RaincoreCluster, key: tuple[str, int]) -> float:
    """The instant the last member delivered ``key``."""
    times = [
        d.at
        for nid in cluster.node_ids
        for d in cluster.listener(nid).deliveries
        if (d.origin, d.msg_no) == key
    ]
    assert len(times) == len(cluster.node_ids), (key, times)
    return max(times)


def test_op_queued_just_after_arrival_completes_with_one_queued_just_before():
    arrival = _next_arrival(_ring(), "A")  # where A's next visit falls
    cluster = _ring()
    node = cluster.node("A")
    cluster.loop.run_until(arrival - EPS)
    assert not node.is_eating
    early = node.multicast("early")
    assert _next_arrival(cluster, "A") == arrival
    cluster.loop.run_until(arrival + EPS)
    assert node.is_eating  # mid-hold
    late = node.multicast("late")
    cluster.run(1.0)
    assert _completed(cluster, late) == _completed(cluster, early)


def test_exclusive_section_multicast_rides_the_visit_that_ran_it():
    cluster = _ring()
    node = cluster.node("A")
    ran: list[float] = []
    keys: list[tuple[str, int]] = []

    def section() -> None:
        ran.append(cluster.loop.now)
        keys.append(node.multicast("from-section"))

    while node.is_eating:
        cluster.loop.step()
    node.run_exclusive(section)  # queued for the next visit
    arrival = _next_arrival(cluster, "A")
    assert ran == [arrival]
    next_arrival = _next_arrival(cluster, "A")
    cluster.run(1.0)
    assert _completed(cluster, keys[0]) < next_arrival


def test_leave_mid_hold_takes_the_queued_messages_along():
    cluster = _ring("ABC", seed=1)
    node = cluster.node("A")
    while node.is_eating:
        cluster.loop.step()
    for i in range(3):
        node.multicast(f"m{i}")  # queued while HUNGRY
    _next_arrival(cluster, "A")
    node.leave(drain=False)  # lands during the hold
    cluster.run(1.0)
    for nid in "BC":
        payloads = [d.payload for d in cluster.listener(nid).deliveries]
        assert payloads == ["m0", "m1", "m2"], (nid, payloads)


def _merge_under_load(seed: int = 1):
    """Heal an AB | CD split while every node multicasts once a millisecond.

    Returns the cluster, its probe stream, the mid-hold merges as
    ``(node, instant)`` and the merge initiations as ``(node, instant,
    ring the token left from)``.  Seed 1 has the TBM reach A mid-hold.
    """
    cluster = _ring(seed=seed)
    cluster.faults.partition(["A", "B"], ["C", "D"])
    cluster.run(4.0)
    events: list = []
    cluster.enable_probes().subscribe(events.extend)
    merged: list[tuple[str, float]] = []
    initiated: list[tuple[str, float, tuple[str, ...]]] = []
    for nid in cluster.node_ids:
        node = cluster.node(nid)

        def merge_now(node=node, inner=node._merge_now) -> None:
            merged.append((node.node_id, cluster.loop.now))
            inner()

        def maybe_initiate(token, node=node, inner=node.merge.maybe_initiate):
            ring = token.membership
            target = inner(token)
            if target is not None:
                initiated.append((node.node_id, cluster.loop.now, ring))
            return target

        node._merge_now = merge_now
        node.merge.maybe_initiate = maybe_initiate
    sent = itertools.count()
    stop = cluster.loop.now + 3.0

    def load() -> None:
        if cluster.loop.now < stop:
            for nid in cluster.node_ids:
                cluster.node(nid).multicast(f"{nid}-{next(sent)}")
            cluster.loop.call_later(0.001, load)

    load()
    cluster.faults.heal_partition()
    cluster.run(4.0)
    assert cluster.converged(set("ABCD"))
    return cluster, events, merged, initiated


def _attaches(events, node: str, start: float, end: float) -> list:
    return [
        e for e in events
        if e.kind == "mcast.attach" and e.node == node and start <= e.at <= end
    ]


def _covered(attaches) -> set:
    """The ``(origin, msg_no)`` of every message the attach runs cover."""
    return {
        (e.args[0], no)
        for e in attaches
        for no in range(e.args[1], e.args[1] + e.args[3])
    }


def _one_order(cluster: RaincoreCluster, keys: set) -> list:
    orders = {
        nid: [
            (d.origin, d.msg_no)
            for d in cluster.listener(nid).deliveries
            if (d.origin, d.msg_no) in keys
        ]
        for nid in cluster.node_ids
    }
    first = orders[cluster.node_ids[0]]
    assert all(order == first for order in orders.values()), orders
    return first


def test_merge_mid_hold_packs_carry_the_merged_audience():
    cluster, events, merged, _ = _merge_under_load()
    assert merged
    for nid, at in merged:
        attached = _attaches(events, nid, at, at + HOP)
        assert attached, f"{nid} attached nothing as it left the merge"
        assert {e.args[5] for e in attached} == {4}  # audience size
        keys = _covered(attached)
        assert sorted(_one_order(cluster, keys)) == sorted(keys)


def test_merge_initiator_attaches_to_the_group_the_token_leaves_from():
    cluster, events, _, initiated = _merge_under_load()
    assert initiated
    for nid, at, ring in initiated:
        attached = _attaches(events, nid, at, at)
        assert attached, (nid, at)
        assert {e.args[5] for e in attached} == {len(ring)}
        keys = _covered(attached)
        for member in cluster.node_ids:
            got = {
                (d.origin, d.msg_no) for d in cluster.listener(member).deliveries
            }
            assert (keys <= got) == (member in ring), member


# ----------------------------------------------------------------------
# seeded mutants: each one must be caught
# ----------------------------------------------------------------------
_on_token = MulticastService.on_token
_on_depart = MulticastService.on_depart
_depart_with_token = RaincoreNode._depart_with_token


def _attach_at_arrival(monkeypatch) -> None:
    """The parent: the whole pipeline at arrival, nothing at departure."""

    def on_token(self: MulticastService, token) -> None:
        _on_token(self, token)
        _on_depart(self, token)

    monkeypatch.setattr(MulticastService, "on_token", on_token)
    monkeypatch.setattr(MulticastService, "on_depart", lambda self, token: None)


def _attach_after_initiate(monkeypatch) -> None:
    """The production forward with the attach moved past the merge start."""

    def forward_token(self: RaincoreNode, epoch: int, due: float) -> None:
        if epoch != self._epoch or self.state is not NodeState.EATING:
            return
        token = self._live_token
        override = self.merge.maybe_initiate(token)
        self.multicast_service.on_depart(token)
        if override is not None:
            self._sync_membership(token)
            target = override
        else:
            target = token.next_after(self.node_id)
        self._send_token_to(target)
        late = self.loop.now - due
        if late > 0.0:
            hop = self.config.hop_interval
            self._hold_debt = late if late < hop else hop
        else:
            self._hold_debt = 0.0

    monkeypatch.setattr(RaincoreNode, "_forward_token", forward_token)


def _leave_skips_departure(monkeypatch) -> None:
    monkeypatch.setattr(
        RaincoreNode,
        "_depart_with_token",
        lambda self, mid_hold=False: _depart_with_token(self),
    )


MUTANTS = {
    "attach at arrival": _attach_at_arrival,
    "attach after merge.maybe_initiate": _attach_after_initiate,
    "departure half skipped in _depart_with_token": _leave_skips_departure,
}

CASES = (
    test_op_queued_just_after_arrival_completes_with_one_queued_just_before,
    test_exclusive_section_multicast_rides_the_visit_that_ran_it,
    test_leave_mid_hold_takes_the_queued_messages_along,
    test_merge_mid_hold_packs_carry_the_merged_audience,
    test_merge_initiator_attaches_to_the_group_the_token_leaves_from,
)


def caught() -> bool:
    """Whether any case above fails."""
    for case in CASES:
        try:
            case()
        except AssertionError:
            return True
    return False


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_seeded_mutant_is_killed(name, monkeypatch):
    MUTANTS[name](monkeypatch)
    assert caught()
