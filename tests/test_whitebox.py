"""White-box unit tests of protocol internals.

Integration tests validate end-to-end behaviour; these pin the exact
mechanics of the trickiest code paths — the multicast visit passes, the
911 grant matrix, and merge arithmetic — against hand-built states, so a
regression points at the precise rule that broke.
"""

import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import repro
from repro.core.config import RaincoreConfig
from repro.core.events import RecordingListener
from repro.core.states import NodeState
from repro.core.token import Ordering, PiggybackedMessage, Rider, Token
from repro.core.wire import NineOneOne, NineOneOneReply, ReplyVerdict
from repro.net.datagram import DatagramNetwork
from repro.net.eventloop import EventLoop
from repro.net.topology import Topology, build_switched_cluster
from repro.core.session import RaincoreNode


def make_node(node_id="A", peers=("B", "C")):
    loop = EventLoop(seed=0)
    topo = Topology()
    build_switched_cluster(topo, [node_id, *peers])
    net = DatagramNetwork(loop, topo)
    node = RaincoreNode(node_id, loop, net, RaincoreConfig())
    return loop, net, node


def make_msg(origin, msg_no, audience, **kw):
    aud = frozenset(audience)
    return PiggybackedMessage(
        origin,
        msg_no,
        kw.pop("payload", f"{origin}#{msg_no}"),
        kw.pop("size", 10),
        audience=aud,
        pending=set(kw.pop("pending", aud)),
        **kw,
    )


def drain(node):
    """What one ``_drain_deliverable()`` hands the listener, as identities."""
    node.listener = recorder = RecordingListener()
    node.multicast_service._drain_deliverable()
    return recorder.delivery_keys


# ----------------------------------------------------------------------
# multicast visit passes
# ----------------------------------------------------------------------
class TestReceivePass:
    def test_agreed_first_sight_held_deliverable(self):
        loop, net, node = make_node()
        svc = node.multicast_service
        token = Token(membership=("A", "B"))
        token.messages.append(make_msg("B", 1, ("A", "B"), pending={"A"}))
        svc._receive_pass(token)
        assert len(svc._hold) == 1
        assert token.messages[0].pending == set()
        assert drain(node) == [("B", 1)]
        assert not svc._hold

    def test_safe_first_sight_held_blocked(self):
        loop, net, node = make_node()
        svc = node.multicast_service
        token = Token(membership=("A", "B"))
        token.messages.append(
            make_msg("B", 1, ("A", "B"), pending={"A"}, ordering=Ordering.SAFE)
        )
        svc._receive_pass(token)
        assert len(svc._hold) == 1
        assert drain(node) == []  # SAFE is blocked until confirmed
        assert len(svc._hold) == 1

    def test_safe_blocks_agreed_behind_it(self):
        loop, net, node = make_node()
        svc = node.multicast_service
        safe = make_msg("B", 1, ("A", "B"), pending={"A"}, ordering=Ordering.SAFE)
        token = Token(membership=("A", "B"))
        token.messages.append(safe)
        token.messages.append(make_msg("B", 2, ("A", "B"), pending={"A"}))
        svc._receive_pass(token)
        assert drain(node) == []  # the AGREED message waits its turn
        safe.confirmed = True
        svc._receive_pass(token)
        assert drain(node) == [("B", 1), ("B", 2)]

    def test_safe_confirmed_marks_existing_hold(self):
        loop, net, node = make_node()
        svc = node.multicast_service
        msg = make_msg("B", 1, ("A", "B"), pending={"A"}, ordering=Ordering.SAFE)
        token = Token(membership=("A", "B"))
        token.messages.append(msg)
        svc._receive_pass(token)  # phase 1: held, blocked
        assert drain(node) == []
        msg.confirmed = True
        msg.pending = {"A", "B"}
        svc._receive_pass(token)  # phase 2: unblocks the same hold entry
        assert len(svc._hold) == 1
        assert "A" not in msg.pending
        assert drain(node) == [("B", 1)]

    def test_pack_is_received_and_held_as_one(self):
        loop, net, node = make_node()
        svc = node.multicast_service
        pack = make_msg(
            "B", 1, ("A", "B"), pending={"A"},
            riders=(Rider("B", 2, "B#2", 10), Rider("B", 3, "B#3", 10)),
        )
        token = Token(membership=("A", "B"))
        token.messages.append(pack)
        assert token.message_count() == 3
        svc._receive_pass(token)
        assert pack.pending == set()
        assert drain(node) == [("B", 1), ("B", 2), ("B", 3)]
        svc._retire_pass(token)
        assert token.messages == [] and token.message_count() == 0

    def test_duplicate_uid_not_held_twice(self):
        loop, net, node = make_node()
        svc = node.multicast_service
        msg = make_msg("B", 1, ("A", "B"), pending={"A"})
        token = Token(membership=("A", "B"))
        token.messages.append(msg)
        svc._receive_pass(token)
        msg.pending.add("A")  # simulate a regenerated-token replay
        svc._receive_pass(token)
        assert len(svc._hold) == 1


FRESH_INTERPRETER_TOKEN = """
import pickle, sys
from repro.core.token import PiggybackedMessage, Token
origin = sys.argv[1]
token = Token(seq=3, membership=("A", "B", "C"), gen=origin + ".1")
token.attach_message(PiggybackedMessage(
    origin, 1, "first-from-" + origin, 10,
    audience=frozenset("ABC"), pending={"A", "B", "C"} - {origin}))
sys.stdout.buffer.write(pickle.dumps(token))
"""


def token_from_fresh_interpreter(origin):
    """What ``UdpFabric`` would hand us from another worker process: its
    first multicast, pickled where every process-local counter starts over."""
    src = str(pathlib.Path(repro.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", FRESH_INTERPRETER_TOKEN, origin],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, check=True, timeout=60,
    )
    return pickle.loads(out.stdout)


def test_first_messages_of_other_processes_are_not_duplicates():
    """Duplicate suppression is keyed on the wire identity: B's and C's
    first messages, each numbered from 1 by its own process, are both held
    and delivered by a node that has already multicast its own first."""
    loop, net, node = make_node()
    svc = node.multicast_service
    svc.multicast("mine", size=4)
    svc._attach_pass(Token(membership=("A", "B", "C")))
    svc._receive_pass(token_from_fresh_interpreter("B"))
    svc._receive_pass(token_from_fresh_interpreter("C"))
    assert drain(node) == [("A", 1), ("B", 1), ("C", 1)]


class TestRetirePass:
    def test_agreed_retires_when_pending_empty(self):
        loop, net, node = make_node()
        svc = node.multicast_service
        token = Token(membership=("A", "B"))
        token.messages.append(make_msg("B", 1, ("A", "B"), pending=()))
        svc._retire_pass(token)
        assert token.messages == []

    def test_safe_confirms_then_retires_next_round(self):
        loop, net, node = make_node()
        svc = node.multicast_service
        msg = make_msg("B", 1, ("B",), pending=(), ordering=Ordering.SAFE)
        token = Token(membership=("A", "B"))
        token.messages.append(msg)
        svc._retire_pass(token)  # round 1: confirm, re-arm pending
        assert msg.confirmed
        assert token.messages == [msg]
        assert msg.pending == {"B"}  # audience ∩ membership
        msg.pending.clear()
        svc._retire_pass(token)  # round 2: retire
        assert token.messages == []

    def test_safe_with_departed_audience_retires_immediately(self):
        loop, net, node = make_node()
        svc = node.multicast_service
        msg = make_msg("X", 1, ("X", "Y"), pending=(), ordering=Ordering.SAFE)
        token = Token(membership=("A", "B"))  # X and Y are gone
        token.messages.append(msg)
        svc._retire_pass(token)
        assert token.messages == []


class TestAttachPass:
    def test_attach_sets_audience_and_pending(self):
        loop, net, node = make_node()
        node.state = NodeState.EATING  # bypass lifecycle for the unit test
        svc = node.multicast_service
        svc.multicast("payload", size=5)
        token = Token(membership=("A", "B", "C"))
        svc._attach_pass(token)
        msg = token.messages[0]
        assert msg.audience == frozenset("ABC")
        assert msg.pending == {"B", "C"}  # self excluded: delivered at attach
        assert drain(node) == [("A", 1)]

    def test_attach_packs_a_run_and_splits_on_ordering_switch(self):
        loop, net, node = make_node()
        node.state = NodeState.EATING
        svc = node.multicast_service
        for ordering in (Ordering.AGREED, Ordering.AGREED, Ordering.SAFE, Ordering.AGREED):
            svc.multicast("p", size=5, ordering=ordering)
        token = Token(membership=("A", "B", "C"))
        svc._attach_pass(token)
        assert [(p.msg_no, p.ordering, [r.msg_no for r in p.riders])
                for p in token.messages] == [
            (1, Ordering.AGREED, [2]), (3, Ordering.SAFE, []), (4, Ordering.AGREED, [])]
        assert token.message_count() == 4
        assert token.wire_size() == token.recompute_wire_size()
        # The SAFE message holds back what was attached after it.
        assert drain(node) == [("A", 1), ("A", 2)]


# ----------------------------------------------------------------------
# 911 grant matrix (paper §2.3 + DESIGN.md §6.1)
# ----------------------------------------------------------------------
class TestGrantRules:
    def grab_reply(self, node, net, loop, msg):
        replies = []
        orig_send = node.transport.send

        def capture(dst, payload, on_result=None):
            if isinstance(payload, NineOneOneReply):
                replies.append(payload)
            return orig_send(dst, payload, on_result=on_result)

        node.transport.send = capture
        node.recovery.handle_911(msg)
        return replies[0]

    def setup_member(self, copy_seq):
        loop, net, node = make_node()
        node.transport.start()
        node.state = NodeState.HUNGRY
        node._members = ("A", "B", "C")
        node._local_copy = Token(seq=copy_seq, membership=("A", "B", "C"))
        return loop, net, node

    def test_nonmember_gets_join_pending(self):
        loop, net, node = self.setup_member(10)
        node._members = ("A", "B")  # C exists on the network, not in the group
        reply = self.grab_reply(node, net, loop, NineOneOne("C", -1, 1))
        assert reply.verdict is ReplyVerdict.JOIN_PENDING
        assert "C" in node.recovery.pending_joins

    def test_holder_denies(self):
        loop, net, node = self.setup_member(10)
        node.state = NodeState.EATING
        node._live_token = Token(seq=11, membership=("A", "B", "C"))
        reply = self.grab_reply(node, net, loop, NineOneOne("B", 99, 1))
        assert reply.verdict is ReplyVerdict.DENY_HAVE_TOKEN

    def test_newer_copy_denies(self):
        loop, net, node = self.setup_member(10)
        reply = self.grab_reply(node, net, loop, NineOneOne("B", 9, 1))
        assert reply.verdict is ReplyVerdict.DENY_NEWER_COPY

    def test_older_copy_grants(self):
        loop, net, node = self.setup_member(10)
        reply = self.grab_reply(node, net, loop, NineOneOne("B", 11, 1))
        assert reply.verdict is ReplyVerdict.GRANT

    def test_equal_seq_tie_breaks_by_node_id(self):
        # A (lower id) denies B on a tie; B would grant A.
        loop, net, node = self.setup_member(10)
        reply = self.grab_reply(node, net, loop, NineOneOne("B", 10, 1))
        assert reply.verdict is ReplyVerdict.DENY_NEWER_COPY
        loop2, net2, node_b = make_node("B", peers=("A", "C"))
        node_b.transport.start()
        node_b.state = NodeState.HUNGRY
        node_b._members = ("A", "B", "C")
        node_b._local_copy = Token(seq=10, membership=("A", "B", "C"))
        reply = TestGrantRules().grab_reply(node_b, net2, loop2, NineOneOne("A", 10, 1))
        assert reply.verdict is ReplyVerdict.GRANT


# ----------------------------------------------------------------------
# merge arithmetic
# ----------------------------------------------------------------------
class TestMergeMechanics:
    def test_merge_with_own_combines_everything(self):
        loop, net, node = make_node("D", peers=("A", "B", "E", "F"))
        node._members = ("D", "E", "F")
        tbm = Token(seq=40, membership=("A", "B", "D"), tbm=True, view_id=7)
        tbm.messages.append(make_msg("A", 1, ("A", "B"), pending={"B"}))
        own = Token(seq=90, membership=("D", "E", "F"), view_id=3)
        own.messages.append(make_msg("E", 1, ("D", "E", "F"), pending={"F"}))
        node.merge._held_tbm = tbm
        merged = node.merge.merge_with_own(own)
        assert merged.seq == 91  # max + 1
        assert merged.view_id == 8
        assert not merged.tbm
        assert sorted(merged.membership) == ["A", "B", "D", "E", "F"]
        # D's own ring members spliced right after D.
        idx = merged.membership.index("D")
        assert merged.membership[idx + 1: idx + 3] == ("E", "F")
        assert len(merged.messages) == 2
        # Pending sets pruned to the merged membership only.
        assert merged.messages[0].pending == {"B"}
        assert merged.messages[1].pending == {"F"}

    def test_merge_requires_held_tbm(self):
        loop, net, node = make_node()
        with pytest.raises(RuntimeError):
            node.merge.merge_with_own(Token(seq=1, membership=("A",)))

    def test_second_tbm_ignored_while_holding_one(self):
        loop, net, node = make_node()
        first = Token(seq=5, membership=("A", "X"), tbm=True)
        second = Token(seq=9, membership=("A", "Y"), tbm=True)
        node.merge.handle_tbm(first)
        node.merge.handle_tbm(second)
        assert node.merge._held_tbm is first
