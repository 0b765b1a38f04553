"""Duplicate suppression by per-origin spans of seen ``msg_no``s.

``MulticastService`` remembers each origin's seen ``msg_no``s as sorted,
disjoint, half-open spans.  A pack that starts at or past the last span's
end and is a run of consecutive numbers is fresh as a whole (the fast
path); any other pack is checked and inserted message by message.  Either
way the result must be exactly that of a plain ``set``: random sequences
of runs, gapped runs, non-consecutive packs, duplicates and replays are
held to a set model after every pack, below the cap and (with a small cap)
at it, where the lowest span goes first.  A long loaded ring must end with
one span per origin.  Four seeded mutants of the span rules must each be
caught.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.harness import RaincoreCluster
from repro.core import multicast
from repro.core.config import RaincoreConfig
from repro.core.events import SessionListener
from repro.core.multicast import MulticastService
from repro.core.token import Rider, Token

from .test_whitebox import drain, make_msg, make_node

ORIGINS = "BCD"


# ----------------------------------------------------------------------
# driving one node, and the set model it must agree with
# ----------------------------------------------------------------------
def pack_of(origin: str, nos: list[int]):
    """A pack addressed to node A carrying ``nos`` from ``origin``."""
    riders = tuple(Rider(origin, no, f"{origin}#{no}", 10) for no in nos[1:])
    return make_msg(origin, nos[0], "ABC", pending={"A"}, riders=riders)


def hold(node, origin: str, nos: list[int]) -> list[tuple[str, int]]:
    """Receive one pack through the receive pass; what the drain delivers."""
    token = Token(membership=("A", "B", "C"))
    token.messages.append(pack_of(origin, nos))
    node.multicast_service._receive_pass(token)
    return drain(node)


def as_spans(nos: set[int]) -> list[int]:
    """The canonical flat span list of a set of msg_nos."""
    spans: list[int] = []
    for no in sorted(nos):
        if spans and spans[-1] == no:
            spans[-1] = no + 1
        else:
            spans += (no, no + 1)
    return spans


def resolve(op: tuple, model: dict[str, set[int]], history: list) -> tuple[str, list[int]]:
    """An op as ``(origin, msg_nos)``; ``next`` and ``replay`` read the past."""
    kind = op[0]
    if kind == "next":  # the origin's next run, after a gap of ``op[2]``
        _, origin, gap, n = op
        start = max(model[origin], default=0) + 1 + gap
        return origin, list(range(start, start + n))
    if kind == "run":  # a run anywhere
        _, origin, start, n = op
        return origin, list(range(start, start + n))
    if kind == "any":  # any numbers, duplicates and disorder included
        return op[1], list(op[2])
    if history:  # replay an earlier pack
        return history[op[1] % len(history)]
    return ORIGINS[0], [1]


def divergence(ops: list[tuple], cap: int | None = None) -> str | None:
    """Drive ``ops`` into one node; the first way it differs from a set.

    With ``cap``, at most that many spans are kept per origin and the model
    forgets its lowest spans after each pack, as production must.
    """
    loop, net, node = make_node("A", ("B", "C"))
    seen = node.multicast_service._seen
    model: dict[str, set[int]] = {o: set() for o in ORIGINS}
    history: list[tuple[str, list[int]]] = []
    for step, op in enumerate(ops):
        origin, nos = resolve(op, model, history)
        history.append((origin, nos))
        want = []
        for no in nos:
            if no not in model[origin]:
                model[origin].add(no)
                want.append((origin, no))
        if cap is not None:
            spans = as_spans(model[origin])
            for lo, hi in zip(spans[: -2 * cap : 2], spans[1 : -2 * cap : 2]):
                model[origin].difference_update(range(lo, hi))
        got = hold(node, origin, nos)
        if got != want:
            return f"step {step} {origin}{nos}: delivered {got}, a set says {want}"
        for o in ORIGINS:
            spans = seen.get(o, [])
            if spans != as_spans(model[o]):
                return f"step {step}: {o} spans {spans}, a set says {as_spans(model[o])}"
    return None


ops = st.lists(
    st.one_of(
        st.tuples(st.just("next"), st.sampled_from(ORIGINS), st.sampled_from([0, 0, 0, 1, 3]),
                  st.integers(1, 6)),
        st.tuples(st.just("run"), st.sampled_from(ORIGINS), st.integers(1, 40), st.integers(1, 6)),
        st.tuples(st.just("any"), st.sampled_from(ORIGINS),
                  st.lists(st.integers(1, 40), min_size=1, max_size=6)),
        st.tuples(st.just("replay"), st.integers(0, 1000)),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(ops)
def test_spans_are_a_set(program):
    """Below the cap (at most 40 packs of numbers <= 300), spans are a set."""
    assert divergence(program) is None


@settings(max_examples=200, deadline=None)
@given(ops)
def test_spans_at_a_small_cap_forget_the_lowest_first(program):
    with mock.patch.object(multicast, "SEEN_SPANS", 3):
        assert divergence(program, cap=3) is None


def test_the_lowest_span_is_evicted_first():
    loop, net, node = make_node("A", ("B", "C"))
    seen = node.multicast_service._seen
    with mock.patch.object(multicast, "SEEN_SPANS", 3):
        for no in (1, 3, 5):
            hold(node, "B", [no])
        assert seen["B"] == [1, 2, 3, 4, 5, 6]
        assert hold(node, "B", [7, 8]) == [("B", 7), ("B", 8)]  # fast path
        assert seen["B"] == [3, 4, 5, 6, 7, 9]
        # B#1 was forgotten, so it is delivered again; B#3 is remembered.
        assert hold(node, "B", [1, 3]) == [("B", 1)]
        assert seen["B"] == [3, 4, 5, 6, 7, 9]  # B#1's own span went first
        assert hold(node, "B", [4]) == [("B", 4)]  # joins 3..5: two spans
        assert seen["B"] == [3, 6, 7, 9]


def test_traffic_takes_the_fast_path():
    """Not vacuous: an origin's next runs, gap or no gap, never reach the
    per-message path, and a replay always does."""
    loop, net, node = make_node("A", ("B", "C"))
    with mock.patch.object(multicast, "_add_seen", wraps=multicast._add_seen) as slow:
        for nos in ([1, 2, 3], [4, 5, 6, 7, 8], [10, 11]):
            assert hold(node, "B", nos) == [("B", no) for no in nos]
        assert slow.call_count == 0
        assert node.multicast_service._seen["B"] == [1, 9, 10, 12]
        assert hold(node, "B", [2, 3]) == []
        assert slow.call_count == 2


# ----------------------------------------------------------------------
# bounded state on a long loaded ring
# ----------------------------------------------------------------------
class InOrder(SessionListener):
    """Counts deliveries and checks each origin's arrive in msg_no order."""

    def __init__(self) -> None:
        self.delivered = 0
        self.last: dict[str, int] = {}

    def on_deliver(self, delivery) -> None:
        assert delivery.msg_no == self.last.get(delivery.origin, 0) + 1, delivery
        self.last[delivery.origin] = delivery.msg_no
        self.delivered += 1


def loaded_ring(total: int, seed: int = 1) -> list:
    """An 8-node ring at hop 5 ms taking ``total`` 200 B multicasts at
    4000/s round-robin (the ledger's ``sim_ring_mcast`` load); its nodes."""
    ring = [f"n{i}" for i in range(8)]
    cfg = RaincoreConfig.tuned(ring_size=8, hop_interval=0.005)
    cluster = RaincoreCluster(ring, seed=seed, config=cfg)
    nodes = [cluster.node(n) for n in ring]
    for node in nodes:
        node.listener = InOrder()
    cluster.start_all()
    payload = b"x" * 200
    for i in range(0, total, 1000):
        for k in range(i, min(total, i + 1000)):
            nodes[k % 8].multicast(payload)
        cluster.run(0.25)
    cluster.run(2.0)
    return nodes


def test_a_long_loaded_ring_keeps_one_span_per_origin():
    total = 100_000
    nodes = loaded_ring(total)
    per_origin = total // 8
    for node in nodes:
        assert node.listener.delivered == total
        seen = node.multicast_service._seen
        assert seen == {o.node_id: [1, per_origin + 1] for o in nodes}, node.node_id


# ----------------------------------------------------------------------
# seeded mutants: each one must be caught
# ----------------------------------------------------------------------
def mutated_hold(inclusive_end=False, fast_for_any=False, coalesce=True, evict_lowest=True):
    """The production ``_hold_pack`` with one span rule swappable."""

    def add_seen(spans: list[int], no: int) -> bool:
        i = bisect_right(spans, no)
        if i & 1 or (inclusive_end and i > 0 and spans[i - 1] == no):
            return False
        lower = coalesce and i > 0 and spans[i - 1] == no
        upper = coalesce and i < len(spans) and spans[i] == no + 1
        if lower and upper:
            del spans[i - 1 : i + 1]
        elif lower:
            spans[i - 1] = no + 1
        elif upper:
            spans[i] = no
        else:
            spans[i:i] = (no, no + 1)
        return True

    def hold_pack(self: MulticastService, pack, waiting: bool) -> None:
        origin, first, msgs = pack.origin, pack.msg_no, pack.unpack()
        spans = self._seen.setdefault(origin, [])
        if (not spans or first >= spans[-1]) and (fast_for_any or multicast._is_run(msgs, first)):
            end = first + len(msgs)
            if coalesce and spans and spans[-1] == first:
                spans[-1] = end
            else:
                spans += (first, end)
            runs = [msgs]
        else:
            runs = multicast._runs([m for m in msgs if add_seen(spans, m.msg_no)])
        cap = 2 * multicast.SEEN_SPANS
        if len(spans) > cap:
            if evict_lowest:
                del spans[: len(spans) - cap]
            else:
                del spans[cap:]
        self._hold.extend(runs)
        if waiting:
            self._waiting.update((origin, run[0].msg_no) for run in runs)

    return hold_pack


MUTANTS = {
    "a span end is treated as inclusive": mutated_hold(inclusive_end=True),
    "the fast path takes a non-consecutive pack": mutated_hold(fast_for_any=True),
    "adjacent spans are not coalesced": mutated_hold(coalesce=False),
    "eviction drops the highest span": mutated_hold(evict_lowest=False),
}


def corpus() -> list[list[tuple]]:
    """Seeded op programs, drawn the way the property tests draw them."""
    rng = random.Random(20)

    def op() -> tuple:
        origin = rng.choice(ORIGINS)
        kind = rng.choice(("next", "next", "run", "any", "replay"))
        if kind == "next":
            return (kind, origin, rng.choice((0, 0, 0, 1, 3)), rng.randint(1, 6))
        if kind == "run":
            return (kind, origin, rng.randint(1, 40), rng.randint(1, 6))
        if kind == "any":
            return (kind, origin, [rng.randint(1, 40) for _ in range(rng.randint(1, 6))])
        return (kind, rng.randint(0, 1000))

    return [[op() for _ in range(rng.randint(1, 40))] for _ in range(60)]


def caught() -> list[str]:
    """Every divergence the seeded programs (below and at a small cap) and
    a short loaded ring report."""
    programs = corpus()
    found = [d for d in map(divergence, programs) if d is not None]
    with mock.patch.object(multicast, "SEEN_SPANS", 3):
        found += [d for d in (divergence(p, cap=3) for p in programs) if d is not None]
    nodes = loaded_ring(4000)
    found += [
        f"{n.node_id} keeps {s}" for n in nodes
        for s in n.multicast_service._seen.values() if len(s) != 2
    ]
    return found


def test_the_unmutated_mirror_agrees(monkeypatch):
    monkeypatch.setattr(MulticastService, "_hold_pack", mutated_hold())
    assert caught() == []


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_seeded_mutant_is_killed(name, monkeypatch):
    monkeypatch.setattr(MulticastService, "_hold_pack", MUTANTS[name])
    assert caught()
