"""Per-pack receipt bookkeeping and the pack-granular hold queue, against
two models.

One schedule — multicasts, token visits, member removals, group splits,
TBM merges, 911-style replays of an old local copy — is driven through
``repro.core`` (one receipt set per pack, one hold-queue entry per run),
through ``multicast_reference.ReferenceMulticast`` (one receipt set per
message) and through ``multicast_reference.ParentMulticast`` (production
with its per-message hold queue, drain and attach).  After every step
the tokens must agree on wire size, message count and every message's
audience, pending set and confirmation, in order (so retire points are
equal); at the end every node must have delivered the same sequence,
counted the same, and emitted the same ``mcast.*`` probes, argument for
argument and at the same time.  Production's delivery runs are expanded
to one deliver per message.  Its ``mcast.attach`` runs are held apart
from the other rows: expanded, they must cover exactly the models'
per-message attach rows (origin, msg_no, ordering, audience, gen, time),
in order, each run's ``size`` the sum of the sizes it covers.  A
production visit is its arrival half then its departure half, back to
back: with nothing queued between them that is the reference's one whole
visit.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RaincoreConfig
from repro.core.events import RecordingListener
from repro.core.membership import merge_rings
from repro.core.merge import MergeProtocol
from repro.core.multicast import DeferredPayload, MulticastService
from repro.core.token import Ordering, Token

from .multicast_reference import (
    ParentMulticast,
    ReferenceMulticast,
    ReferenceToken,
    reference_merge,
)

NODES = ("A", "B", "C", "D", "E")
HOP = 0.005


class _Probe:
    """Records ``mcast.*`` probes per message: a delivery run (``count``
    last) becomes one reference-shaped deliver per message.  Attach rows,
    per message or per pack, are kept apart in ``attaches``."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.events: list[tuple] = []
        self.attaches: list[tuple] = []

    def emit(self, node: str, kind: str, *args: object) -> None:
        if kind == "mcast.deliver" and len(args) == 4:
            origin, first, ordering, count = args
            self.events.extend(
                (self.clock.now, node, kind, (origin, no, ordering))
                for no in range(first, first + count)
            )
        elif kind == "mcast.attach":
            self.attaches.append((self.clock.now, node, args))
        elif kind.startswith("mcast."):
            self.events.append((self.clock.now, node, kind, args))


def attach_runs_cover(runs: list[tuple], rows: list[tuple]) -> str | None:
    """Where production's attach ``runs`` fail to cover the per-message
    attach ``rows`` exactly and in order, or None."""
    rows_left = iter(rows)
    for at, node, (origin, first, ordering, count, size, audience, gen) in runs:
        covered = [next(rows_left, None) for _ in range(count)]
        want = [
            (at, node, (origin, no, ordering, audience, gen))
            for no in range(first, first + count)
        ]
        got = [r and (r[0], r[1], r[2][:3] + r[2][4:]) for r in covered]
        if got != want:
            return f"attach run {origin}#{first}+{count} at {node} covers {covered}"
        if size != sum(r[2][3] for r in covered):
            return f"attach run {origin}#{first}+{count} size {size} != {covered}"
    extra = next(rows_left, None)
    return None if extra is None else f"attach row {extra} not covered"


def _production_state(token: Token) -> list[tuple]:
    return [
        (m.key(), p.audience, frozenset(p.pending), p.confirmed)
        for p in token.messages
        for m in p.unpack()
    ]


class _Group:
    """One token and whose turn it is."""

    def __init__(self, token, pos: int = 0) -> None:
        self.token = token
        self.pos = pos

    @property
    def holder(self) -> str:
        return self.token.membership[self.pos % len(self.token.membership)]


class _Restarting(RecordingListener):
    """Records, and restarts its node (resets the multicast service, as a
    restart does) from inside its ``at``-th delivery: mid-drain."""

    def __init__(self, at: int) -> None:
        super().__init__()
        self.at = at
        self.restart = lambda: None

    def on_deliver(self, delivery) -> None:
        super().on_deliver(delivery)
        if len(self.deliveries) == self.at:
            self.restart()


class World:
    """A ring (or several, after a split) stepped by hand, no network.

    ``service`` is the multicast model every node runs.  ``probes=False``
    runs every node without a probe bus; ``restart=(node, k)`` gives that
    node a listener that restarts it in its k-th delivery.
    """

    def __init__(
        self, service: type, ring: tuple, config: RaincoreConfig,
        probes: bool = True, restart: tuple[str, int] | None = None,
    ) -> None:
        production = self.production = service is not ReferenceMulticast
        self.clock = SimpleNamespace(now=0.0)
        self.probe = _Probe(self.clock)
        self.nodes = {
            nid: SimpleNamespace(
                node_id=nid,
                config=config,
                probe=self.probe if probes else None,
                listener=(
                    _Restarting(restart[1])
                    if restart is not None and restart[0] == nid
                    else RecordingListener()
                ),
                loop=self.clock,
                stats=SimpleNamespace(messages_multicast=0, messages_delivered=0),
                _next_gen=lambda: "merged.1",
            )
            for nid in ring
        }
        self.services = {nid: service(node) for nid, node in self.nodes.items()}
        for nid, node in self.nodes.items():
            if isinstance(node.listener, _Restarting):
                node.listener.restart = self.services[nid].reset
        token = (Token if production else ReferenceToken)(membership=ring, gen="g.1")
        self.groups = [_Group(token)]
        self.copies: dict[str, object] = {}
        self.sent = 0

    # -- observations ---------------------------------------------------
    def token_state(self) -> list[tuple]:
        return [
            (
                g.token.membership,
                g.token.wire_size(),
                g.token.message_count(),
                _production_state(g.token) if self.production else g.token.receipt_state(),
            )
            for g in self.groups
        ]

    def outcome(self) -> dict:
        return {
            "deliveries": {n: node.listener.deliveries for n, node in self.nodes.items()},
            "probes": self.probe.events,
            "attaches": self.probe.attaches,
            "stats": {n: vars(node.stats) for n, node in self.nodes.items()},
        }

    # -- steps ----------------------------------------------------------
    def _group(self, g: int) -> _Group:
        return self.groups[g % len(self.groups)]

    def mcast(self, n: int, safe: bool, size: int, deferred: bool) -> None:
        node = self.nodes[NODES[n % len(self.nodes)]]
        self.sent += 1
        payload: object = f"{node.node_id}:{self.sent}"
        if deferred:
            # Materialized at attach: observes how much this node has
            # delivered by then (its position in the total order).
            seen = node.listener.deliveries
            payload = DeferredPayload(lambda: (f"deferred@{len(seen)}", size + 7))
        self.services[node.node_id].multicast(
            payload, None if deferred else size,
            Ordering.SAFE if safe else Ordering.AGREED,
        )

    def visit(self, g: int) -> None:
        group = self._group(g)
        holder = group.holder
        self.clock.now += HOP
        service = self.services[holder]
        service.on_token(group.token)
        if self.production:
            service.on_depart(group.token)
        self.copies[holder] = group.token.snapshot()
        group.pos = (group.pos % len(group.token.membership)) + 1

    def remove(self, g: int, k: int) -> None:
        group = self._group(g)
        ring = group.token.membership
        if len(ring) < 2:
            return
        holder = group.holder
        victim = ring[k % len(ring)]
        group.token.remove_member(victim)
        self.services[victim].reset()
        ring = group.token.membership
        group.pos = ring.index(holder) if holder in ring else group.pos % len(ring)

    def replay(self, g: int, k: int) -> None:
        """911 regeneration: the token is rebuilt from an old local copy."""
        group = self._group(g)
        ring = group.token.membership
        node = ring[k % len(ring)]
        copy = self.copies.get(node)
        if copy is None:
            return
        token = copy.snapshot()
        for member in token.membership:
            if member not in ring:
                token.remove_member(member)
        group.token = token
        group.pos = token.membership.index(node)

    def split(self, g: int, k: int) -> None:
        """Partition: both sides carry on from the same in-flight token."""
        group = self._group(g)
        ring = group.token.membership
        if len(ring) < 2:
            return
        cut = 1 + k % (len(ring) - 1)
        other = group.token.snapshot()
        for member in ring[cut:]:
            group.token.remove_member(member)
        for member in ring[:cut]:
            other.remove_member(member)
        group.pos = 0
        self.groups.append(_Group(other))

    def merge(self, g: int) -> None:
        """The holder of group ``g`` sends its token TBM to the next group."""
        if len(self.groups) < 2:
            return
        sender = self.groups.pop(g % len(self.groups))
        target = self._group(g)
        tbm, own, joiner = sender.token, target.token, target.holder
        tbm.membership = tbm.membership + (joiner,)
        if self.production:
            protocol = MergeProtocol(self.nodes[joiner])
            protocol._held_tbm = tbm
            merged = protocol.merge_with_own(own)
        else:
            ring = merge_rings(tbm.membership, joiner, own.membership)
            merged = reference_merge(tbm, own, ring, self.nodes[joiner]._next_gen())
        target.token = merged
        target.pos = merged.membership.index(joiner)


MODELS = (ParentMulticast, ReferenceMulticast)


def run_both(ring: tuple, batch: int, cap: int, steps: list[tuple], **world) -> dict:
    """Drive ``steps`` through production and both models; demand they agree."""
    config = RaincoreConfig(max_batch_per_visit=batch, max_token_bytes=cap)
    worlds = [World(s, ring, config, **world) for s in (MulticastService, *MODELS)]
    settle = [("visit", g) for _ in range(6 * len(NODES)) for g in range(len(NODES))]
    for n, (op, *args) in enumerate(steps + settle):
        states = []
        for world in worlds:
            getattr(world, op)(*args)
            states.append(world.token_state())
        for model, state in zip(MODELS, states[1:]):
            assert states[0] == state, (
                f"tokens diverge from {model.__name__} after step {n}: {op}{tuple(args)}"
            )
    production, *models = (w.outcome() for w in worlds)
    for model, outcome in zip(MODELS, models):
        name = model.__name__
        assert production["deliveries"] == outcome["deliveries"], name
        assert production["probes"] == outcome["probes"], name
        assert production["stats"] == outcome["stats"], name
        gap = attach_runs_cover(production["attaches"], outcome["attaches"])
        assert gap is None, f"{name}: {gap}"
    return production


small = st.integers(0, 7)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("mcast"), small, st.booleans(), st.integers(0, 400), st.booleans()),
        st.tuples(st.just("visit"), small),
        st.tuples(st.just("visit"), small),
        st.tuples(st.just("visit"), small),
        st.tuples(st.just("remove"), small, small),
        st.tuples(st.just("replay"), small, small),
        st.tuples(st.just("split"), small, small),
        st.tuples(st.just("merge"), small),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, len(NODES)),
    st.sampled_from([1, 3, 64]),
    st.sampled_from([1024, 2048, 60_000]),
    STEPS,
)
def test_any_schedule_matches_reference(size, batch, cap, steps):
    run_both(NODES[:size], batch, cap, [tuple(s) for s in steps])


def burst(n, count, safe=False, size=50):
    return [("mcast", n, safe, size, False)] * count


def lap(times=1, g=0, ring=len(NODES)):
    return [("visit", g)] * (ring * times)


SCENARIOS = {
    "interleaved agreed and safe from several origins": (
        NODES, 64, 60_000,
        burst(0, 3) + burst(0, 2, safe=True) + burst(0, 2) + burst(1, 4, safe=True)
        + burst(2, 5) + lap(1) + burst(3, 2, safe=True) + burst(0, 1) + lap(3),
    ),
    "originator removed mid-round": (
        NODES, 64, 60_000,
        burst(0, 4) + burst(0, 2, safe=True) + [("visit", 0), ("visit", 0), ("remove", 0, 0)]
        + lap(3, ring=4),
    ),
    "last pending member removed": (
        NODES, 64, 60_000,
        burst(0, 3) + burst(0, 1, safe=True) + [("visit", 0)] * 4 + [("remove", 0, 4)]
        + lap(3, ring=4),
    ),
    "split then merge with overlapping in-flight messages": (
        NODES, 64, 60_000,
        burst(0, 3) + burst(1, 2, safe=True) + [("visit", 0), ("visit", 0), ("split", 0, 1)]
        + burst(0, 2) + burst(3, 2) + [("visit", 0), ("visit", 1), ("visit", 1)]
        + [("merge", 0)] + lap(4),
    ),
    "911 replay of an old snapshot": (
        NODES, 64, 60_000,
        burst(0, 3) + burst(2, 2, safe=True) + lap(1) + burst(1, 2)
        + [("visit", 0), ("visit", 0), ("visit", 0), ("replay", 0, 0)] + lap(4),
    ),
    "singleton ring": (
        NODES[:1], 64, 60_000,
        burst(0, 2) + burst(0, 2, safe=True) + burst(0, 1) + [("visit", 0)] * 4,
    ),
    "byte-cap stall": (
        NODES[:3], 64, 1024,
        burst(0, 6, size=300) + burst(1, 3, size=400) + burst(0, 1, size=2000) + lap(8, ring=3),
    ),
    "batch cap": (
        NODES[:3], 3, 60_000,
        burst(0, 8) + burst(1, 5, safe=True) + lap(6, ring=3),
    ),
    "deferred payload in mid-batch": (
        NODES[:3], 64, 60_000,
        burst(1, 2) + [("visit", 0), ("visit", 0)] + burst(2, 2)
        + [("mcast", 2, False, 10, True)] + burst(2, 2) + [("mcast", 2, True, 10, True)]
        + lap(4, ring=3),
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_named_scenario_matches_reference(name):
    outcome = run_both(*SCENARIOS[name])
    assert any(outcome["deliveries"].values()), "vacuous scenario: nothing delivered"


#: SAFE packs from several origins interleaved with AGREED ones, so drains
#: stop at a waiting SAFE message and later resume past it.
DRAIN_STEPS = (
    burst(0, 3) + burst(0, 2, safe=True) + burst(1, 3) + burst(2, 2, safe=True)
    + burst(3, 4) + lap(1) + burst(1, 2, safe=True) + burst(4, 3) + burst(0, 2)
    + lap(1) + burst(2, 3) + burst(3, 1, safe=True) + lap(4)
)


@pytest.mark.parametrize("probes", [True, False], ids=["probes-on", "probes-off"])
@pytest.mark.parametrize(
    "restart",
    # B and A restart inside a drain with nothing waiting, D inside one
    # that stops at a waiting SAFE message.
    [None, ("B", 8), ("A", 12), ("D", 9)],
    ids=["no-restart", "B@8", "A@12", "D@9"],
)
def test_drain_matches_reference(probes, restart):
    """The drain with and without a probe bus, SAFE messages interleaved,
    and a listener restarting its node mid-drain: the same deliveries, and
    ``messages_delivered`` counts exactly the deliveries that happened."""
    outcome = run_both(NODES, 64, 60_000, DRAIN_STEPS, probes=probes, restart=restart)
    deliveries, stats = outcome["deliveries"], outcome["stats"]
    for node in NODES:
        assert stats[node]["messages_delivered"] == len(deliveries[node]), node
    assert bool(outcome["probes"]) is probes
    assert bool(outcome["attaches"]) is probes
    counts = {node: len(d) for node, d in deliveries.items()}
    if restart is None:
        assert len(set(counts.values())) == 1, counts
    else:
        # The restart emptied a hold queue mid-drain: that node lost the
        # rest of what it held, and the drain stopped there.
        restarted = counts.pop(restart[0])
        assert len(set(counts.values())) == 1 and restarted < min(counts.values())
