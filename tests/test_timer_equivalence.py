"""Lazy protocol deadlines against the parent's cancel-and-re-arm timers.

One hypothesis-drawn fault schedule — loss, duplication, jitter, crashes and
recoveries, partitions and heals, a destroyed token, multicast bursts — runs
on a cluster of production nodes (lazy HUNGRY deadline, one retransmit queue
per transport) and on a cluster of ``timer_reference`` nodes (a HUNGRY timer
cancelled and re-armed per hop, one retransmit timer per send).  Every
deadline fires at the same float either way, so everything the protocol
does must be the same: per-node delivery sequences, view histories, the
instants each node starts STARVING and regenerates a token, retransmit and
failure counts, and the multiset of probe events with their timestamps.
Only the loop's own bookkeeping (which handles exist, heap sequence numbers)
may differ — and with it the order in which two nodes' deadlines that fall
on the very same instant fire (a re-armed handle takes a later sequence
number), which is why cross-node observables are compared per node or as
multisets.  Three seeded mutants of the lazy rules must each be caught,
and an idle ring must schedule at most four callbacks per token hop.
"""

from __future__ import annotations

from collections import Counter, deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.harness import RaincoreCluster
from repro.core.config import RaincoreConfig
from repro.core.session import RaincoreNode
from repro.core.states import NodeState
from repro.core.token import Ordering
from repro.transport.messages import frame_size
from repro.transport.reliable import ReliableUnicast

from .timer_reference import ReferenceNode

pytestmark = pytest.mark.integration

NODES = "ABCDE"
HORIZON = 4.0


def run(schedule: dict, node_cls: type = RaincoreNode) -> dict:
    """Run ``schedule`` on a cluster built from ``node_cls``; the outcome."""
    ids = NODES[: schedule["size"]]
    with mock.patch("repro.cluster.harness.RaincoreNode", node_cls):
        cluster = RaincoreCluster(
            list(ids),
            seed=schedule["seed"],
            loss=schedule["loss"],
            jitter=schedule["jitter"],
        )
    bus = cluster.enable_probes()
    probes: list = []
    bus.subscribe(probes.extend)
    cluster.start_all()
    loop, faults = cluster.loop, cluster.faults
    sent = [0]

    def apply(op: tuple) -> None:
        kind, k = op[0], op[1]
        node_id = ids[k % len(ids)]
        node = cluster.node(node_id)
        if kind == "crash":
            if len(cluster.live_nodes()) > 1 and node.state is not NodeState.DOWN:
                faults.crash_node(node_id)
        elif kind == "recover":
            if node.state is NodeState.DOWN:
                faults.recover_node(node_id)
        elif kind == "partition":
            cut = 1 + k % (len(ids) - 1)
            faults.partition(list(ids[:cut]), list(ids[cut:]))
        elif kind == "heal":
            faults.heal_partition()
        elif kind == "lose_token":
            faults.lose_token()
        elif kind == "dup":
            faults.set_duplication(op[2])
        elif kind == "mcast":
            for _ in range(op[2]):
                if node.state is not NodeState.DOWN:
                    sent[0] += 1
                    ordering = Ordering.SAFE if sent[0] % 3 == 0 else Ordering.AGREED
                    node.multicast(f"{node_id}:{sent[0]}", 64, ordering)

    start = loop.now
    for at, op in sorted(schedule["ops"], key=lambda item: item[0]):
        loop.call_at(start + at, apply, op)
    cluster.run(HORIZON)

    events = [(e.at, e.node, e.kind, e.args) for e in probes]
    return {
        "deliveries": {
            n: [(d.origin, d.msg_no, d.payload) for d in cluster.listener(n).deliveries]
            for n in ids
        },
        "views": {
            n: [(v.view_id, v.members, v.at) for v in cluster.listener(n).views]
            for n in ids
        },
        "starving": {
            n: [at for at, node, kind, args in events
                if node == n and kind == "node.state" and args[1] == "starving"]
            for n in ids
        },
        "regenerations": {
            n: [(at, args) for at, node, kind, args in events
                if node == n and kind == "token.regen"]
            for n in ids
        },
        "retransmits": Counter(
            node for _, node, kind, args in events if kind == "transport.tx" and args[2] > 0
        ),
        "failures": Counter(node for _, node, kind, _ in events if kind == "transport.fail"),
        "probes": Counter(events),
    }


def divergence(schedule: dict) -> str | None:
    """The first observable on which production and reference differ."""
    got, want = run(schedule), run(schedule, ReferenceNode)
    for key in want:
        if got[key] != want[key]:
            return f"{key}: lazy timers {got[key]!r:.300} != reference {want[key]!r:.300}"
    return None


at = st.floats(0.0, HORIZON - 0.5, allow_nan=False)
ops = st.one_of(
    st.tuples(at, st.tuples(st.sampled_from(["crash", "recover"]), st.integers(0, 9))),
    st.tuples(at, st.tuples(st.just("partition"), st.integers(1, 9))),
    st.tuples(at, st.tuples(st.just("heal"), st.just(0))),
    st.tuples(at, st.tuples(st.just("lose_token"), st.just(0))),
    st.tuples(at, st.tuples(st.just("dup"), st.just(0), st.sampled_from([0.0, 0.05, 0.3]))),
    st.tuples(at, st.tuples(st.just("mcast"), st.integers(0, 9), st.integers(1, 8))),
)
schedules = st.fixed_dictionaries(
    {
        "size": st.integers(3, len(NODES)),
        "seed": st.integers(0, 2**16),
        "loss": st.sampled_from([0.0, 0.02, 0.1]),
        "jitter": st.sampled_from([0.0, 20e-6, 300e-6]),
        "ops": st.lists(ops, max_size=10),
    }
)


@settings(max_examples=40, deadline=None)
@given(schedules)
def test_any_fault_schedule_matches_the_reference_timers(schedule):
    assert divergence(schedule) is None


# ----------------------------------------------------------------------
# seeded mutants: each one must be caught
# ----------------------------------------------------------------------
#: Lossy enough to retransmit with several sends in flight; a lost token and
#: a crash make HUNGRY fire and 911 rounds fan out.
SCHEDULE = {
    "size": 5,
    "seed": 7,
    "loss": 0.1,
    "jitter": 20e-6,
    "ops": [
        (0.3, ("mcast", 0, 8)),
        (0.5, ("lose_token", 0)),
        (1.2, ("mcast", 2, 8)),
        (1.5, ("crash", 3)),
        (2.5, ("recover", 3)),
        (2.6, ("mcast", 4, 8)),
    ],
}


def fire_at_the_stale_deadline(monkeypatch):
    """The HUNGRY handle's own firing is taken as the deadline."""

    def on_hungry_timeout(self, epoch):
        if epoch != self._epoch:
            return
        self._hungry_timer = None
        if self._hungry_due is None:
            return
        self._hungry_due = None
        if self.state is NodeState.HUNGRY:
            self._gc_wakeup()
            self.recovery.on_hungry_timeout()

    monkeypatch.setattr(RaincoreNode, "_on_hungry_timeout", on_hungry_timeout)


def keep_acked_entries(monkeypatch):
    """Acked and cancelled entries stay in service: a due one is resent."""

    def on_retx_due(self):
        queue = self._retx
        while queue and queue[0][0] <= self.loop.now:
            _, msg_id, pending = queue.popleft()
            if self._exhausted(pending):
                self._finish(msg_id, False)
            else:
                self._transmit(pending, frame_size(pending.frame))
        self._retx_timer = (
            self.loop.call_at(queue[0][0], self._on_retx_due) if queue else None
        )

    monkeypatch.setattr(ReliableUnicast, "_on_retx_due", on_retx_due)


class _FrontQueue(deque):
    append = deque.appendleft


def requeue_at_the_front(monkeypatch):
    """A new deadline goes to the head of the queue instead of its tail."""
    init = ReliableUnicast.__init__

    def front_queued(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._retx = _FrontQueue()

    monkeypatch.setattr(ReliableUnicast, "__init__", front_queued)


def test_the_unmutated_schedule_agrees():
    assert divergence(SCHEDULE) is None


@pytest.mark.parametrize(
    "mutant", [fire_at_the_stale_deadline, keep_acked_entries, requeue_at_the_front]
)
def test_seeded_mutant_is_killed(mutant, monkeypatch):
    mutant(monkeypatch)
    assert divergence(SCHEDULE) is not None


# ----------------------------------------------------------------------
# the churn guard
# ----------------------------------------------------------------------
def test_an_idle_ring_schedules_at_most_four_callbacks_per_hop():
    """Token datagram, ack datagram and forward are three; the lazy HUNGRY
    and retransmit re-arms share the fourth.  Cancel-and-re-arm timers
    scheduled five per hop, two of them dead within the lap."""
    ids = list("ABCDEFGH")
    config = RaincoreConfig.tuned(ring_size=len(ids), hop_interval=0.005)
    cluster = RaincoreCluster(ids, seed=5, config=config)
    cluster.start_all()
    cluster.run(1.0)
    loop = cluster.loop
    scheduled = [0]

    def counted(schedule):
        def call(*args, **kwargs):
            scheduled[0] += 1
            return schedule(*args, **kwargs)

        return call

    loop.call_at = counted(loop.call_at)
    loop.call_later = counted(loop.call_later)
    first = max(n.local_copy_seq for n in cluster.live_nodes())
    cluster.run(4.0)
    hops = max(n.local_copy_seq for n in cluster.live_nodes()) - first
    assert hops > 700
    assert scheduled[0] <= 4 * hops, f"{scheduled[0] / hops:.2f} callbacks per hop"
