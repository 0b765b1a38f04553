"""Per-pack receipt bookkeeping against the per-message reference.

One schedule — multicasts, token visits, member removals, group splits,
TBM merges, 911-style replays of an old local copy — is driven through
``repro.core`` (one receipt set per pack) and through
``multicast_reference`` (one per message).  After every step the tokens
must agree on wire size, message count and every message's audience,
pending set and confirmation, in order (so retire points are equal); at
the end every node must have delivered the same sequence and emitted the
same ``mcast.*`` probes, argument for argument.
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

from .multicast_reference import ReferenceMulticast, ReferenceToken, reference_merge

NODES = ("A", "B", "C", "D", "E")
HOP = 0.005


class _Probe:
    def __init__(self) -> None:
        self.events: list[tuple] = []

    def emit(self, node: str, kind: str, *args: object) -> None:
        if kind.startswith("mcast."):
            self.events.append((node, kind, args))


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


class World:
    """A ring (or several, after a split) stepped by hand, no network."""

    def __init__(self, production: bool, ring: tuple, config: RaincoreConfig) -> None:
        self.production = production
        self.probe = _Probe()
        self.clock = SimpleNamespace(now=0.0)
        self.nodes = {
            nid: SimpleNamespace(
                node_id=nid,
                config=config,
                probe=self.probe,
                listener=RecordingListener(),
                loop=self.clock,
                stats=SimpleNamespace(messages_multicast=0, messages_delivered=0),
                _next_gen=lambda: "merged.1",
            )
            for nid in ring
        }
        service = MulticastService if production else ReferenceMulticast
        self.services = {nid: service(node) for nid, node in self.nodes.items()}
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
        self.services[holder].on_token(group.token)
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


def run_both(ring: tuple, batch: int, cap: int, steps: list[tuple]) -> dict:
    config = RaincoreConfig(max_batch_per_visit=batch, max_token_bytes=cap)
    worlds = [World(True, ring, config), World(False, ring, config)]
    settle = [("visit", g) for _ in range(6 * len(NODES)) for g in range(len(NODES))]
    for n, (op, *args) in enumerate(steps + settle):
        states = []
        for world in worlds:
            getattr(world, op)(*args)
            states.append(world.token_state())
        assert states[0] == states[1], f"tokens diverge after step {n}: {op}{tuple(args)}"
    production, reference = (w.outcome() for w in worlds)
    assert production["deliveries"] == reference["deliveries"]
    assert production["probes"] == reference["probes"]
    assert production["stats"] == reference["stats"]
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
