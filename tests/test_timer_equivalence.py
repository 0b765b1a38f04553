"""Lazy protocol deadlines against the cancel-and-re-arm timers they replace.

One hypothesis-drawn fault schedule — loss, duplication, jitter, crashes and
recoveries, partitions and heals, a destroyed token, multicast bursts — runs
on a cluster of production nodes (lazy HUNGRY deadline, one retransmit queue
per transport) and on a cluster of ``timer_reference`` nodes (a HUNGRY timer
cancelled and re-armed per hop, one retransmit timer per send).  Every
deadline fires at the same float either way, and — because a lazy deadline
reserves its loop ordering key when it is set and its handle is armed with
that key — at the same place among the events of its instant.  So everything
the protocol does must be the same: per-node delivery sequences, view
histories, the instants each node starts STARVING and regenerates a token,
retransmit and failure counts, and the whole probe stream in order.  Only
the loop's own bookkeeping (which handles exist) may differ.  Two zero-jitter
schedules, where deadlines of different nodes share an instant, are pinned;
three seeded mutants of the lazy rules must each be caught.  An idle ring
must push at most four heap entries and build at most two ``TimerHandle``s
per token hop.
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
from repro.net import datagram, eventloop
from repro.net.eventloop import TimerHandle
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
        "probes": events,
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


@pytest.mark.parametrize("seed", [3, 12])
def test_same_instant_deadlines_fire_in_the_reference_order(seed):
    """Zero jitter puts deadlines of different nodes on one instant.  A
    re-armed handle that took a fresh sequence number fired them out of
    order: on seed 12 all five nodes went STARVING at 1.51-1.59 s and D
    regenerated the token, where the reference timers recovered it; on
    seed 3 the retransmit queue's timer resent B's and A's frames in the
    wrong order (15 vs 14 and 12 vs 13 retransmits)."""
    schedule = {
        "size": 5,
        "seed": seed,
        "loss": 0.1,
        "jitter": 0.0,
        "ops": [(0.9375, ("lose_token", 0))],
    }
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

    def on_hungry_timeout(self, epoch, key):
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
        _, _, msg_id, pending = queue.popleft()
        if self._exhausted(pending):
            self._finish(msg_id, False)
        else:
            self._transmit(pending, frame_size(pending.frame))
        self._retx_timer = (
            self.loop.call_at_key(queue[0][0], queue[0][1], self._on_retx_due)
            if queue
            else None
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
    try:
        found = divergence(SCHEDULE)
    except ValueError as exc:  # the loop refused a deadline in the past
        found = str(exc)
    assert found is not None


# ----------------------------------------------------------------------
# the churn guard
# ----------------------------------------------------------------------
def test_an_idle_ring_schedules_at_most_four_callbacks_per_hop():
    """Token datagram, ack datagram and forward are three; the lazy HUNGRY
    and retransmit re-arms share the fourth.  Cancel-and-re-arm timers
    scheduled five per hop, two of them dead within the lap.  Every push
    onto the loop's heap is counted, handle or plain packet arrival, and
    only two per hop may build a ``TimerHandle``: the forward and the
    lazy re-arms (a handle per event made 3.65 per hop)."""
    ids = list("ABCDEFGH")
    config = RaincoreConfig.tuned(ring_size=len(ids), hop_interval=0.005)
    cluster = RaincoreCluster(ids, seed=5, config=config)
    cluster.start_all()
    cluster.run(1.0)
    loop = cluster.loop
    pushes = [0]
    handles = [0]

    push = eventloop.heappush

    def counted_push(heap, entry):
        pushes[0] += 1
        push(heap, entry)

    init = TimerHandle.__init__

    def counted_handle(self, *args):
        handles[0] += 1
        init(self, *args)

    queued = len(loop._heap)  # raincheck: disable=RC204 -- the guard counts what the heap held
    events = loop.events_processed
    first = max(n.local_copy_seq for n in cluster.live_nodes())
    with mock.patch.object(eventloop, "heappush", counted_push), mock.patch.object(
        datagram, "heappush", counted_push
    ), mock.patch.object(TimerHandle, "__init__", counted_handle):
        cluster.run(4.0)
    hops = max(n.local_copy_seq for n in cluster.live_nodes()) - first
    assert hops > 700
    # Not vacuous: every event dispatched was either queued already or
    # pushed while the counters watched.
    assert loop.events_processed - events <= queued + pushes[0]
    assert pushes[0] <= 4 * hops, f"{pushes[0] / hops:.2f} heap pushes per hop"
    assert handles[0] <= 2 * hops, f"{handles[0] / hops:.2f} TimerHandles per hop"
