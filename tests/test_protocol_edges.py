"""Edge-case tests for subtle protocol semantics.

These pin behaviours that are easy to silently regress: the stale-token
guard, the uniform total order across mixed ordering levels, queued
multicasts across membership states, and seq-number bookkeeping.
"""

import pytest

from repro.core.token import Ordering, Token
from tests.conftest import make_cluster

pytestmark = pytest.mark.integration


# ----------------------------------------------------------------------
# stale-token guard
# ----------------------------------------------------------------------
def test_stale_token_is_ignored(abcd):
    """A replayed token with an old seq must be dropped, not processed."""
    node = abcd.node("B")
    # Wait for B to hold the token, then capture a copy.
    for _ in range(2000):
        abcd.run(0.001)
        if node.has_token:
            break
    assert node.has_token
    stale = node._live_token.snapshot()
    abcd.run(0.5)  # the ring moves on, seqs advance
    seq_before = node._last_seen_seq
    views_before = len(abcd.listener("B").views)
    node._accept_token(stale)  # replay the old token
    assert node._last_seen_seq == seq_before
    assert len(abcd.listener("B").views) == views_before
    abcd.run(1.0)
    assert abcd.converged()


def test_token_for_nonmember_is_ignored(abcd):
    """A token that does not list the receiver must be dropped (the node
    was removed while the token was in flight; it will 911 back in)."""
    node = abcd.node("C")
    foreign = Token(seq=10_000, membership=("A", "B", "D"))
    node._accept_token(foreign)
    assert not node.has_token
    assert node._last_seen_seq < 10_000


# ----------------------------------------------------------------------
# uniform total order across ordering levels
# ----------------------------------------------------------------------
def test_agreed_after_safe_waits_for_confirmation(abcd):
    """An AGREED message attached after a SAFE one (same origin, same
    visit) must not overtake it anywhere — the hold-queue blocks the
    deliverable suffix until the SAFE head confirms (Totem-style)."""
    abcd.node("A").multicast("safe-first", ordering=Ordering.SAFE)
    abcd.node("A").multicast("agreed-second", ordering=Ordering.AGREED)
    abcd.run(3.0)
    for nid in "ABCD":
        payloads = [d.payload for d in abcd.listener(nid).deliveries]
        assert payloads == ["safe-first", "agreed-second"], (nid, payloads)


def test_safe_delivery_times_not_before_receipt_round(abcd):
    """No node delivers a SAFE message before every member has received
    it: all delivery timestamps lie after the token completed one full
    round past the attach."""
    abcd.run(0.2)
    abcd.node("B").multicast("s", ordering=Ordering.SAFE)
    abcd.run(3.0)
    ats = [abcd.listener(nid).deliveries[0].at for nid in "ABCD"]
    spread = max(ats) - min(ats)
    # Phase-2 deliveries happen within one traversal of each other.
    assert spread <= 4 * abcd.config.hop_interval + 0.01


# ----------------------------------------------------------------------
# queued multicasts across membership states
# ----------------------------------------------------------------------
def test_multicast_queued_while_joining_is_sent_after_join():
    c = make_cluster("AB")
    c.node("A").start_new_group()
    c.run_until_converged(2.0, expected={"A"})
    c.node("B").start_joining(["A"])
    # Send immediately, before B has ever held the token.
    c.node("B").multicast("early-bird")
    c.run(3.0)
    assert "early-bird" in [d.payload for d in c.listener("A").deliveries]


def test_outbox_dropped_on_crash_restart(abcd):
    node = abcd.node("D")
    # Queue a message, then crash before the token can pick it up.
    node.multicast("never-sent")
    abcd.faults.crash_node("D")
    abcd.run_until_converged(3.0, expected={"A", "B", "C"})
    abcd.faults.recover_node("D")
    abcd.run_until_converged(5.0, expected=set("ABCD"))
    abcd.run(2.0)
    for nid in "ABC":
        assert "never-sent" not in [
            d.payload for d in abcd.listener(nid).deliveries
        ]


def test_leave_flushes_nothing_but_ring_survives(abcd):
    """A leaving node's unflushed outbox dies with it; the ring and other
    traffic continue."""
    abcd.node("B").multicast("b-before-leave")
    abcd.run(1.0)
    abcd.node("B").leave()
    abcd.run_until_converged(3.0, expected={"A", "C", "D"})
    abcd.node("A").multicast("a-after-leave")
    abcd.run(1.0)
    a_payloads = [d.payload for d in abcd.listener("A").deliveries]
    assert "b-before-leave" in a_payloads
    assert "a-after-leave" in a_payloads


# ----------------------------------------------------------------------
# sequence-number bookkeeping
# ----------------------------------------------------------------------
def test_local_copy_seq_unique_among_non_holders(abcd):
    """Forward-time local copies have pairwise distinct seqs among all
    nodes not currently holding the token.  (The holder's view of the live
    token legitimately shares its predecessor's forward seq — they describe
    the same hop — which is exactly why the 911 grant rule carries a
    node-id tie-break.)"""
    for _ in range(100):
        abcd.run(0.005)
        seqs = [
            abcd.node(nid).local_copy_seq
            for nid in "ABCD"
            if not abcd.node(nid).has_token
        ]
        seqs = [s for s in seqs if s >= 0]
        assert len(seqs) == len(set(seqs)), seqs


def test_view_id_monotonic_per_listener(abcd):
    abcd.faults.crash_node("B")
    abcd.run(3.0)
    abcd.faults.recover_node("B")
    abcd.run(5.0)
    for nid in "ACD":
        vids = [v.view_id for v in abcd.listener(nid).views]
        assert vids == sorted(vids)


def test_message_retirement_under_continuous_load(abcd):
    """The token must not accumulate messages under steady multicast."""
    for i in range(50):
        abcd.node("ABCD"[i % 4]).multicast(f"m{i}")
        abcd.run(0.02)
    abcd.run(2.0)
    copy = abcd.node("A").local_copy
    assert copy is not None
    assert len(copy.messages) == 0
