"""The token hold is a deadline with a carried debt — no wall clock here.

Two real ``RaincoreNode``\\ s (real transport, real ``UdpFabric`` codec) run
over a scripted scheduler whose ``now`` moves only when the script says so:
every timer can be made to fire ``late`` seconds after its deadline and
every visit to cost ``visit_cost`` seconds of clock, which is all a real
event loop does to the protocol.  Datagrams cross in no time, so what is
measured is each node's own hold and overhead and nothing else.
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RaincoreConfig
from repro.core.session import RaincoreNode
from repro.core.states import NodeState
from repro.runtime.udp import UdpFabric

NODES = ("A", "B")


class Visit:
    """One token visit as the script saw it: the clock when it began
    (``arrived``) and when its hold was armed (``armed``), the deadline the
    hold was armed with (``due``) and the clock when the forward ran."""

    def __init__(self, node, arrived, armed, due):
        self.node, self.arrived, self.armed, self.due = node, arrived, armed, due
        self.forwarded = None

    @property
    def hold(self):
        return self.due - self.arrived


class _Handle:
    def __init__(self, when, callback, args):
        self.when, self.callback, self.args = when, callback, args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class ScriptedLoop:
    """``now`` / ``call_at`` / ``call_later`` / ``rng`` with a scripted clock."""

    def __init__(self):
        self.now = 0.0
        self.rng = random.Random(0)
        self.late = 0.0  # every timer fires this long after its deadline
        self.stall_next_forward = 0.0  # one-shot extra lateness, forwards only
        self._timers = []  # (when, seq, handle), sorted
        self._seq = itertools.count()
        self.inbox = deque()  # (local address, datagram): crosses in no time
        self.arriving = {}  # node -> clock when its visit in progress began
        self.visits = []  # one Visit per hold armed, in arming order
        self.forwards = 0  # forward timers that have run

    def call_at(self, when, callback, *args, priority=0):
        handle = _Handle(when, callback, args)
        if getattr(callback, "__func__", None) is RaincoreNode._forward_token:
            node_id = callback.__self__.node_id
            handle.visit = Visit(node_id, self.arriving.pop(node_id), self.now, when)
            self.visits.append(handle.visit)
        bisect.insort(self._timers, (when, next(self._seq), handle))
        return handle

    def call_later(self, delay, callback, *args, priority=0):
        if not delay >= 0.0:  # EventLoop's contract; asyncio is laxer
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.call_at(self.now + delay, callback, *args)

    def step(self, fabric):
        if self.inbox:
            fabric._on_datagram(*self.inbox.popleft())
            return
        when, _, handle = self._timers.pop(0)
        if handle.cancelled:
            return
        # A deadline the clock has already passed runs on the loop's next
        # turn, which the script makes free.
        self.now = max(self.now, when + self.late)
        visit = getattr(handle, "visit", None)
        if visit is not None:
            self.now += self.stall_next_forward
            self.stall_next_forward = 0.0
            visit.forwarded = self.now
            self.forwards += 1
        handle.callback(*handle.args)


class _Loopback:
    """Endpoint whose ``sendto`` hands the datagram to the script's inbox."""

    def __init__(self, inbox):
        self.inbox = inbox

    def sendto(self, data, peer):
        self.inbox.append((f"{peer[0]}:{peer[1]}", data))

    def close(self):
        pass


class Ring:
    """A formed two-node ring on a :class:`ScriptedLoop`."""

    def __init__(self, hop, *, late=0.0, visit_cost=0.0):
        self.visit_cost = visit_cost
        loop = self.loop = ScriptedLoop()
        loop.late = late
        fabric = self.fabric = UdpFabric({nid: 1 + i for i, nid in enumerate(NODES)})
        for nid in NODES:
            fabric._endpoints[fabric.address_of(nid)] = _Loopback(loop.inbox)
        config = RaincoreConfig.tuned(ring_size=len(NODES), hop_interval=hop)
        self.nodes = {nid: RaincoreNode(nid, loop, fabric, config) for nid in NODES}
        for node in self.nodes.values():
            self._charge_visits(node)
        self.nodes["A"].start_new_group()
        self.nodes["B"].start_joining(["A"])
        up = (NodeState.HUNGRY, NodeState.EATING)
        for _ in range(10_000):
            if all(n.members == NODES and n.state in up for n in self.nodes.values()):
                break
            loop.step(fabric)
        else:  # pragma: no cover - formation is deterministic
            raise AssertionError("ring did not form")
        self.forget()

    def _charge_visits(self, node):
        """Spend ``visit_cost`` of clock inside the visit's multicast pass —
        after ``_process_visit`` has read the clock, before it arms the hold."""
        inner = node.multicast_service.on_token

        def on_token(token):
            self.loop.arriving[node.node_id] = self.loop.now
            self.loop.now += self.visit_cost
            inner(token)

        node.multicast_service.on_token = on_token

    def forget(self):
        """Drop the visits seen so far (a hold still pending goes with them)."""
        del self.loop.visits[:]

    def run(self, forwards):
        """Advance until ``forwards`` more forward timers have run."""
        target = self.loop.forwards + forwards
        while self.loop.forwards < target:
            self.loop.step(self.fabric)

    def visits(self, node_id):
        """``node_id``'s visits since :meth:`forget` whose forward has run."""
        return [
            v for v in self.loop.visits
            if v.node == node_id and v.forwarded is not None
        ]


@pytest.mark.parametrize("hop", [0.002, 0.005, 0.010])
def test_exact_clock_arms_the_very_float_call_later_would(hop):
    """The simulator-identity property, independent of the goldens: when
    timers fire on time and work costs no clock, 1,000 consecutive holds
    are armed at ``now + hop_interval`` bit for bit."""
    ring = Ring(hop)
    ring.run(1001)
    visits = ring.loop.visits
    assert len(visits) >= 1000
    assert all(v.armed == v.arrived and v.due == v.arrived + hop for v in visits)
    assert all(node._hold_debt == 0.0 for node in ring.nodes.values())


@settings(max_examples=40, deadline=None)
@given(
    late=st.floats(0.0, 1.0), visit_cost=st.floats(0.0, 1.0),
    hop=st.sampled_from([0.002, 0.005, 0.010]),
)
def test_late_timers_and_slow_visits_are_repaid_out_of_the_next_hold(
    late, visit_cost, hop
):
    late, visit_cost = late * hop, visit_cost * hop
    ring = Ring(hop, late=late, visit_cost=visit_cost)
    ring.run(2 * 200)
    for node_id in NODES:
        visits = ring.visits(node_id)
        assert len(visits) >= 199
        for v in visits:
            # A hold is never negative and never longer than one hop...
            assert -1e-12 <= v.hold <= hop + 1e-12
            # ...so a forward is never later than one hop plus one timer
            # lateness after the arrival.
            assert v.forwarded - v.arrived <= hop + late + 1e-12
        # Holds plus own overhead add up to the configured time, give or
        # take the one lateness the node had not yet seen at its first visit.
        spent = sum(v.forwarded - v.arrived for v in visits)
        assert abs(spent - len(visits) * hop) <= hop + 1e-9


def test_a_stall_is_forgiven_not_chased():
    """One forward fires 10 hops late: the stalled node's next hold is
    zero, the one after is a whole hop again — no burst of short holds."""
    hop = 0.002
    ring = Ring(hop)
    ring.run(10)
    other = ring.loop.visits[-1].node  # has just forwarded...
    stalled, = set(NODES) - {other}  # ...to the node whose forward will stall
    ring.forget()
    ring.loop.stall_next_forward = 10 * hop
    ring.run(9)
    first, *rest = ring.visits(stalled)
    assert first.forwarded - first.due == pytest.approx(10 * hop, abs=1e-12)
    assert [first.hold] + [v.hold for v in rest] == pytest.approx(
        [hop, 0.0, hop, hop, hop], abs=1e-12
    )
    assert [v.hold for v in ring.visits(other)] == pytest.approx([hop] * 4, abs=1e-12)


def test_crash_forgets_the_debt():
    hop = 0.002
    ring = Ring(hop, late=0.0007)
    ring.run(10)
    node = ring.nodes["B"]
    assert node._hold_debt == pytest.approx(0.0007, abs=1e-12)
    node.crash()
    ring.forget()
    node.start_new_group()  # a new incarnation: its first visit runs right here
    visit, = ring.loop.visits
    assert visit.node == "B" and visit.due == visit.arrived + hop


def test_the_simulator_never_stores_a_debt():
    """Virtual time runs a callback at exactly its ``when`` and does not
    move inside it, so on the simulator the debt stays the class's ``0.0``
    through formation, a crash and a rejoin — and a node keeps fewer than
    the 30 instance attributes at which CPython stops sharing ``__dict__``
    keys between instances (that cliff cost a tenth of the simulated hop
    rate when the debt was a 30th attribute; docs/FINDINGS.md §10)."""
    from tests.conftest import make_cluster

    cluster = make_cluster("ABCD")
    cluster.start_all()
    cluster.run(1.0)
    cluster.faults.crash_node("C")
    cluster.run(1.0)
    cluster.faults.recover_node("C")
    cluster.run(2.0)
    assert cluster.converged(expected=set("ABCD"))
    for node_id in "ABCD":
        attributes = vars(cluster.node(node_id))
        assert "_hold_debt" not in attributes
        assert len(attributes) < 30
