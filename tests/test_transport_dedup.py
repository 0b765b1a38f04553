"""Per-peer duplicate suppression: a floor, spans above it, and a restart rule.

``ReliableUnicast._is_duplicate`` remembers each peer as a floor plus the
spans of ids seen above it, and takes an id ``RESTART_HORIZON`` below the
highest seen as a restarted sender.  It must answer exactly as the
4,096-id set + FIFO window it replaced (``transport_dedup_reference``) on
what one peer's frames look like: a sender numbering 1, 2, 3, ...; frames
it addressed elsewhere or gave up on (gaps that never fill); lost frames
whose retransmission arrives late and duplicated ones, both within a few
frames (``MAX_REORDER``); and restarts from 1 after short lives and long
ones.

The two differ only where the window misjudges a restarted peer, because
it forgets frames in arrival order and the floor forgets ids in number
order:

* lives within a few frames of the horizon (a life just over 4,096 ids
  with a gap among them): the floor hears the restarted peer a few frames
  sooner;
* a gap in a short life that the next life fills: the window keeps that
  id as one of its newest, so when the peer restarts again it drops that
  frame of the new life, which the floor hears
  (``test_a_gap_filled_by_a_later_life_is_not_held_against_the_next``).

So lives here keep ``MARGIN`` away from the horizon and only long lives
have gaps.  Three seeded mutants of the rule must each be caught, and a
peer's state must stay O(1) after 20,000 frames.
"""

from __future__ import annotations

import inspect
import random
import textwrap
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport import reliable
from repro.transport.reliable import RESTART_HORIZON, ReliableUnicast

from .test_transport import make_pair
from .transport_dedup_reference import WINDOW, WindowDedup

#: How far from the horizon a life's length stays (see the docstring).
MARGIN = 64
#: How many frames a late (retransmitted or duplicated) frame may trail.
MAX_REORDER = 8
#: Most frames of one life that never arrive.
MAX_GAPS = 16


def life(rng: random.Random, n: int, reorder: int, gaps: int, dup_rate: float) -> list[int]:
    """One life's frames ``1..n`` in the order they reach the peer."""
    missing = set(rng.sample(range(1, n + 1), min(gaps, n)))
    arrivals = []
    for no in range(1, n + 1):
        if no in missing:
            continue
        copies = 1 + (rng.random() < dup_rate) + (rng.random() < dup_rate / 4)
        for _ in range(copies):
            arrivals.append((no + rng.randint(0, reorder), rng.random(), no))
    arrivals.sort()
    return [no for _, _, no in arrivals]


def stream(seed: int, lives: list[tuple[bool, int, int]], reorder: int, dup_rate: float) -> list[int]:
    """Lives one after another, each ``(long, extra, gaps)``: a short life
    sends ``1 + extra`` frames, all of which arrive; a long one
    ``RESTART_HORIZON + MARGIN + extra``, ``gaps`` of which never do."""
    rng = random.Random(seed)
    out: list[int] = []
    for long, extra, gaps in lives:
        if long:
            out += life(rng, RESTART_HORIZON + MARGIN + extra, reorder, gaps, dup_rate)
        else:
            out += life(rng, 1 + extra, reorder, 0, dup_rate)
    return out


def disagreement(frames: list[int], is_duplicate) -> tuple | None:
    """The first frame on which ``is_duplicate`` and the window differ."""
    window = WindowDedup()
    for i, no in enumerate(frames):
        want = window.is_duplicate("A", no)
        got = is_duplicate("A", no)
        if got != want:
            return (i, no, got, want)
    return None


def production():
    _, _, _, transports = make_pair()
    return transports["B"]._is_duplicate


def test_the_horizon_is_the_old_window():
    assert RESTART_HORIZON == WINDOW


lives = st.lists(
    st.tuples(st.booleans(), st.integers(0, RESTART_HORIZON - MARGIN - 1), st.integers(0, MAX_GAPS)),
    min_size=1,
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lives=lives,
    reorder=st.integers(0, MAX_REORDER),
    dup_rate=st.sampled_from([0.0, 0.05, 0.3]),
)
def test_any_peer_stream_matches_the_window(seed, lives, reorder, dup_rate):
    assert disagreement(stream(seed, lives, reorder, dup_rate), production()) is None


def test_a_peer_restarted_early_is_ignored_until_its_ids_pass_the_old_ones():
    frames = list(range(1, 101)) + list(range(1, 151))
    dup = production()
    heard = [no for no in frames if not dup("A", no)]
    assert heard == list(range(1, 151))
    assert disagreement(frames, production()) is None


def test_a_peer_restarted_after_the_horizon_is_heard_at_once():
    frames = list(range(1, RESTART_HORIZON + 2)) + list(range(1, 11))
    dup = production()
    heard = [no for no in frames if not dup("A", no)]
    assert heard == list(range(1, RESTART_HORIZON + 2)) + list(range(1, 11))
    assert disagreement(frames, production()) is None


def test_a_gap_filled_by_a_later_life_is_not_held_against_the_next():
    """Frame 30 of a 163-frame life never arrives; the peer restarts, and
    its next life (long) sends 30 again; it restarts once more.  The window
    still holds 30 among its newest ids and drops the third life's frame
    30.  The floor hears every frame of every life."""
    first = [no for no in range(1, 164) if no != 30]
    second = list(range(1, RESTART_HORIZON + MARGIN + 1))
    third = list(range(1, 41))
    window, dup = WindowDedup(), production()
    window_heard = [no for no in first + second + third if not window.is_duplicate("A", no)]
    heard = [no for no in first + second + third if not dup("A", no)]
    fresh_second = [30] + list(range(164, RESTART_HORIZON + MARGIN + 1))
    assert heard == first + fresh_second + third
    assert window_heard == first + fresh_second + [no for no in third if no != 30]


# ----------------------------------------------------------------------
# seeded mutants: each one must be caught
# ----------------------------------------------------------------------
#: A long life with reorder and duplicates, a restart, a short life, and a
#: second restart onto it.
STREAMS = [
    stream(1, [(True, 100, 4), (False, 300, 2), (True, 0, 0)], 4, 0.3),
    stream(2, [(False, 2000, 8), (True, 2000, 8)], 8, 0.05),
]


def mutant(old: str, new: str):
    """``_is_duplicate`` with one source line changed."""
    source = textwrap.dedent(inspect.getsource(ReliableUnicast._is_duplicate))
    assert source.count(old) == 1, old
    namespace = dict(vars(reliable))
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace["_is_duplicate"]


MUTANTS = {
    # The floor itself is taken as fresh: the latest frame's duplicate is heard.
    "lt_at_the_floor": ("elif msg_id <= floor:", "elif msg_id < floor:"),
    # A frame past a gap raises the floor over it: the late frame is lost.
    "gaps_not_tracked": (
        "    if not add_seen(above, msg_id):",
        "    floor = max(floor, msg_id - 1)\n    if not add_seen(above, msg_id):",
    ),
    # No restart rule: a restarted peer is silenced for its whole old life.
    "no_restart_rule": ("if msg_id <= high - RESTART_HORIZON:", "if False:"),
}


def test_the_unmutated_filter_agrees():
    for frames in STREAMS:
        assert disagreement(frames, production()) is None


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_seeded_mutant_is_killed(name):
    fn = mutant(*MUTANTS[name])
    found = []
    for frames in STREAMS:
        _, _, _, transports = make_pair()
        found.append(disagreement(frames, types.MethodType(fn, transports["B"])))
    assert any(found), name


# ----------------------------------------------------------------------
# bounded state
# ----------------------------------------------------------------------
def test_a_peer_costs_one_int_after_20k_frames():
    """20,000 frames over a jittered link, 500 at a time (so they overtake
    each other): every payload heard once, and the peer's whole receive
    state is its floor (the window held 4,096 ids)."""
    loop, _, _, transports = make_pair()
    heard = []
    transports["B"].set_receiver(lambda src, payload: heard.append(payload))
    for batch in range(40):
        for i in range(500):
            transports["A"].send("B", str(batch * 500 + i))
        loop.run_for(1.0)
    assert sorted(map(int, heard)) == list(range(20_000))
    assert transports["B"]._seen == {"A": [20_000, []]}
