"""Unit tests for the TOKEN data structure."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.token import (
    MSG_HEADER,
    Ordering,
    PiggybackedMessage,
    Rider,
    TOKEN_HEADER,
    Token,
)


def make_token(members="ABCD", seq=0):
    return Token(seq=seq, membership=tuple(members))


def test_group_id_is_lowest_member():
    assert make_token("CBDA").group_id == "A"
    assert make_token("DB").group_id == "B"


def test_group_id_requires_members():
    with pytest.raises(ValueError):
        Token().group_id


def test_next_after_wraps():
    t = make_token("ABC")
    assert t.next_after("A") == "B"
    assert t.next_after("C") == "A"


def test_remove_member_preserves_ring_order():
    t = make_token("ABCD")
    t.remove_member("B")
    assert t.membership == ("A", "C", "D")


def test_remove_member_bumps_view_id():
    t = make_token("AB")
    v = t.view_id
    t.remove_member("B")
    assert t.view_id == v + 1


def test_remove_absent_member_is_noop():
    t = make_token("AB")
    v = t.view_id
    t.remove_member("Z")
    assert t.membership == ("A", "B")
    assert t.view_id == v


def test_remove_member_prunes_pending_sets():
    t = make_token("ABC")
    msg = PiggybackedMessage("A", 1, "x", 1, pending={"B", "C"})
    t.messages.append(msg)
    t.remove_member("B")
    assert msg.pending == {"C"}


def test_insert_after_places_joiner():
    """The paper's ACBD example: C adds B right after itself."""
    t = make_token("ACD")
    t.insert_after("C", "B")
    assert t.membership == ("A", "C", "B", "D")


def test_insert_after_existing_member_is_noop():
    t = make_token("AB")
    t.insert_after("A", "B")
    assert t.membership == ("A", "B")


def test_insert_after_unknown_anchor():
    t = make_token("AB")
    with pytest.raises(ValueError):
        t.insert_after("Z", "C")


def test_insert_at_ring_end_wraps_correctly():
    t = make_token("AB")
    t.insert_after("B", "C")
    assert t.membership == ("A", "B", "C")
    assert t.next_after("C") == "A"


def test_wire_size_model():
    t = make_token("AB")
    base = TOKEN_HEADER + 2 * 8
    assert t.wire_size() == base
    t.messages.append(PiggybackedMessage("A", 1, b"xxxx", 4))
    assert t.wire_size() == base + MSG_HEADER + 4


def test_copy_is_independent():
    t = make_token("ABC")
    msg = PiggybackedMessage("A", 1, "x", 1, pending={"B", "C"})
    t.messages.append(msg)
    c = t.snapshot()
    c.remove_member("B")
    c.messages[0].pending.discard("C")
    assert t.membership == ("A", "B", "C")
    assert msg.pending == {"B", "C"}


def test_copy_preserves_message_identity_fields():
    t = make_token("AB")
    riders = (Rider("A", 8, "r", 2, Ordering.SAFE),)
    msg = PiggybackedMessage(
        "A", 7, "payload", 9, ordering=Ordering.SAFE,
        audience=frozenset("AB"), pending={"B"}, confirmed=True, riders=riders,
    )
    t.messages.append(msg)
    c = t.snapshot().messages[0]
    assert c == msg and c is not msg
    assert c.key() == ("A", 7)
    assert c.ordering is Ordering.SAFE
    assert c.confirmed is True
    assert c.audience == frozenset("AB")
    assert [m.key() for m in c.unpack()] == [("A", 7), ("A", 8)]


# ----------------------------------------------------------------------
# incremental wire-size / message-count cache and independent snapshots
# ----------------------------------------------------------------------
def msg(origin, no, size, riders=0, **kw):
    """A pack: message ``no`` followed by ``riders`` more from ``origin``."""
    tail = tuple(
        Rider(origin, no + i, b"x" * (size + i), size + i) for i in range(1, riders + 1)
    )
    return PiggybackedMessage(origin, no, b"x" * size, size, riders=tail, **kw)


def recount(token):
    return sum(len(p.unpack()) for p in token.messages)


def assert_cache_honest(token):
    assert token.wire_size() == token.recompute_wire_size()
    assert token.message_count() == recount(token)


def test_incremental_wire_size_tracks_recompute():
    t = make_token("ABCD")
    assert_cache_honest(t)
    for i in range(5):
        t.attach_message(msg("A", 10 * i, 10 * (i + 1), riders=i))
        assert_cache_honest(t)
    assert t.message_count() == 15
    # Retire a subset: the retired packs' bytes are subtracted.
    t.retire_messages(t.messages[1::2], t.messages[::2])
    assert_cache_honest(t)
    assert t.message_count() == 9
    t.remove_member("B")
    assert_cache_honest(t)
    t.attach_message(msg("C", 9, 7))
    assert_cache_honest(t)
    t.retire_messages(list(t.messages), [])
    assert_cache_honest(t)
    assert t.wire_size() == TOKEN_HEADER + 3 * 8 and t.message_count() == 0


def test_wire_size_survives_direct_list_mutation():
    # Tests and adversarial scenarios may bypass attach_message; the cache
    # must degrade to a recompute, never return a stale value.
    t = make_token("AB")
    t.attach_message(msg("A", 1, 8))
    assert_cache_honest(t)
    t.messages.append(msg("B", 1, 100, riders=2))
    assert_cache_honest(t)
    # ... also when the next edit goes through the incremental paths.
    t.messages.append(msg("B", 4, 5))
    t.retire_messages([t.messages[0]], t.messages[1:])
    assert_cache_honest(t)
    t.messages = [msg("A", 2, 3)]
    t.attach_message(msg("A", 3, 3, riders=1))
    assert_cache_honest(t)
    assert t.trace_context()[3] == 3


def test_wire_size_cache_after_snapshot_chain():
    t = make_token("ABC")
    t.attach_message(msg("A", 1, 50, riders=2))
    s = t.snapshot()
    s.attach_message(msg("B", 1, 20))
    assert_cache_honest(s)
    assert_cache_honest(t)
    s2 = s.snapshot()
    s2.remove_member("B")
    assert_cache_honest(s2)
    assert (t.message_count(), s.message_count(), s2.message_count()) == (3, 4, 4)


def receipt_state(token):
    return [
        (p.key(), sorted(p.pending), p.confirmed, [r.key() for r in p.riders])
        for p in token.messages
    ]


def test_snapshot_is_independent_of_live_token():
    """Receive, retire, removal and attach on either token never show in
    the other: every pack's receipt state is copied, nothing is aliased."""
    t = make_token("ABC")
    t.attach_message(msg("A", 1, 4, riders=2, pending={"B", "C"}))
    t.attach_message(msg("A", 4, 4, pending={"B", "C"}, ordering=Ordering.SAFE))
    snap = t.snapshot()
    before = receipt_state(snap)
    assert before == receipt_state(t)
    # A receipt step, a SAFE confirmation and re-arm, a member removal ...
    t.messages[0].pending.discard("B")
    t.messages[1].confirmed = True
    t.messages[1].pending = {"A", "B", "C"}
    t.remove_member("C")
    # ... a retire and an attach on the live token:
    t.retire_messages([t.messages[0]], t.messages[1:])
    t.attach_message(msg("A", 5, 4))
    assert receipt_state(snap) == before
    assert snap.membership == ("A", "B", "C")
    assert snap.message_count() == 4 and t.message_count() == 2
    assert_cache_honest(snap)
    assert_cache_honest(t)
    # And the other way round: editing the snapshot leaves the live token.
    live = receipt_state(t)
    snap.remove_member("B")
    snap.messages[1].pending.clear()
    snap.retire_messages([snap.messages[1]], snap.messages[:1])
    snap.attach_message(msg("B", 1, 9, riders=1))
    assert receipt_state(t) == live
    assert t.membership == ("A", "B")


EDITS = st.lists(
    st.tuples(
        st.sampled_from(["attach", "retire", "append", "remove", "snapshot"]),
        st.integers(0, 5),  # riders / member index
        st.integers(0, 255),  # size / retire mask
    ),
    max_size=30,
)


@given(EDITS)
def test_wire_and_count_caches_match_ground_truth_after_every_edit(edits):
    """Incremental attach, retire-by-subtraction, direct list edits,
    removals and snapshots in any order: ``recompute_wire_size()`` and a
    recount are the ground truth after every one."""
    t = make_token("ABCDEF")
    for n, (edit, k, x) in enumerate(edits):
        if edit == "attach":
            t.attach_message(msg("A", 10 * n, x, riders=k))
        elif edit == "retire":
            keep = [bool(x >> (i % 8) & 1) for i in range(len(t.messages))]
            t.retire_messages(
                [p for p, kept in zip(t.messages, keep) if not kept],
                [p for p, kept in zip(t.messages, keep) if kept],
            )
        elif edit == "append":
            t.messages.append(msg("B", 10 * n, x, riders=k))
        elif edit == "remove":
            t.remove_member("ABCDEF"[k])
        else:
            t = t.snapshot()
        assert_cache_honest(t)
