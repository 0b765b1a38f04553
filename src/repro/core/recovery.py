"""The 911 token-recovery and join protocol — paper §2.3.

One message type serves three purposes, and the unification is the point:

* **Token regeneration** — a STARVING node asks every member of its local
  membership for the right to regenerate the TOKEN from its local copy,
  carrying the copy's sequence number.  Any node holding the token, or
  holding a *more recent* copy, denies.  Unanimous grant over reachable
  members means the requester's copy is the newest surviving state, so it —
  and only it — regenerates.  Local copies made at distinct hops have
  distinct sequence numbers; the one legitimate collision — a holder that
  lost the token shares its predecessor's forward seq — is resolved by the
  node-id tie-break in the grant rule, so no two requesters can both win.
* **Join** — a 911 from a node that is *not* in the receiver's membership is
  a join request: the receiver adds the sender to the token's ring right
  after itself on its next visit and forwards the token to the newcomer.
* **Self-healing** — a member removed by a failure-detector false alarm or a
  broken link starves, sends a 911, is treated as a joiner, and re-enters
  the ring at a position that bypasses the broken link (the paper's
  ABCD → ACD → ACBD example).

Design decision DESIGN.md §6.1: the 911 is fanned out to every member of the
requester's local membership (the paper requires approval "by all the live
nodes"); failure-on-delivery counts a peer as dead and excludes it from both
the vote and the regenerated membership.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from repro.core.states import NodeState
from repro.core.token import derive_ancestry
from repro.core.wire import NineOneOne, NineOneOneReply, ReplyVerdict

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.session import RaincoreNode
    from repro.core.token import Token

__all__ = ["RecoveryProtocol"]

#: Extra seq margin for regenerated tokens so any straggler token from the
#: lost epoch is rejected by the strictly-greater acceptance guard.
REGEN_SEQ_MARGIN = 1


class RecoveryProtocol:
    """Per-node 911 state machine (starving rounds, joins, regeneration)."""

    def __init__(self, node: "RaincoreNode") -> None:
        self.node = node
        # Join requests received from non-members, applied at next token.
        self.pending_joins: list[str] = []
        # Outgoing starving round.
        self._round_ids = itertools.count(1)
        self._active_round: int | None = None
        self._awaiting: set[str] = set()
        self._dead_this_round: set[str] = set()
        self._grants_this_round = 0
        self._join_pending_this_round = 0
        self._round_timer = None
        # Outgoing join attempt.
        self._join_contacts: list[str] = []
        self._join_attempt = 0
        self._join_timer = None
        # Counters for tests/benchmarks.
        self.regenerations = 0
        self.rounds_started = 0
        self.rounds_denied = 0

    # ------------------------------------------------------------------
    # STARVING: token-loss recovery
    # ------------------------------------------------------------------
    def on_hungry_timeout(self) -> None:
        """HUNGRY timer expired: suspect token loss, start a 911 round."""
        node = self.node
        if node.state is not NodeState.HUNGRY:
            return
        node._transition(NodeState.STARVING)
        self._start_round()

    def _start_round(self) -> None:
        node = self.node
        if node.state is not NodeState.STARVING:
            return
        peers = [m for m in node.members if m != node.node_id]
        self.rounds_started += 1
        if not peers:
            # Alone in our view: nobody to ask; regenerate immediately.
            self._regenerate()
            return
        round_id = next(self._round_ids)
        self._active_round = round_id
        self._awaiting = set(peers)
        self._dead_this_round = set()
        self._grants_this_round = 0
        self._join_pending_this_round = 0
        probe = node.probe
        if probe is not None:
            probe.emit(
                node.node_id, "recovery.round", round_id, node.local_copy_seq, len(peers)
            )
        msg = NineOneOne(node.node_id, node.local_copy_seq, round_id)
        for peer in peers:
            node.transport.send(
                peer,
                msg,
                on_result=lambda ok, p=peer, r=round_id: self._on_send_result(
                    p, r, ok
                ),
            )
        # Safety net: a peer may ack the 911 but die before replying.
        self._round_timer = node.loop.call_later(
            node.config.starving_backoff, self._on_round_timeout, round_id
        )

    def _on_send_result(self, peer: str, round_id: int, ok: bool) -> None:
        if round_id != self._active_round:
            return
        if not ok:
            # Failure-on-delivery: the peer is dead from our local view;
            # it neither votes nor appears in a regenerated membership.
            self.node._gc_wakeup()
            self._dead_this_round.add(peer)
            self._awaiting.discard(peer)
            self._check_complete()

    def handle_reply(self, reply: NineOneOneReply) -> None:
        if reply.round_id != self._active_round:
            return
        if self.node.state is not NodeState.STARVING:
            self._abort_round()
            return
        if reply.verdict is ReplyVerdict.GRANT:
            self._grants_this_round += 1
            self._awaiting.discard(reply.sender)
            self._check_complete()
            return
        if reply.verdict is ReplyVerdict.JOIN_PENDING:
            # The replier does not consider us a member.  That is only
            # decisive if *everyone* says so (we really were removed —
            # false alarm or link failure; wait to be re-admitted).  With
            # divergent views after partition tangles, a single stale
            # replier must not veto the members who do recognize us:
            # treat it as an abstention and exclude the replier from the
            # membership we would regenerate.
            self._dead_this_round.add(reply.sender)
            self._awaiting.discard(reply.sender)
            self._join_pending_this_round += 1
            self._check_complete()
            return
        # DENY_HAVE_TOKEN / DENY_NEWER_COPY: the token is alive (or a better
        # candidate exists); go back to waiting for it.
        probe = self.node.probe
        if probe is not None:
            probe.emit(self.node.node_id, "recovery.denied", reply.round_id)
        self._abort_round()
        self.rounds_denied += 1
        self.node._transition(NodeState.HUNGRY)
        self.node._arm_hungry_timer()

    def _on_round_timeout(self, round_id: int) -> None:
        if round_id != self._active_round:
            return
        self.node._gc_wakeup()
        # Unresponsive peers (acked but never replied) are treated as dead,
        # exactly like failure-on-delivery.
        self._dead_this_round.update(self._awaiting)
        self._awaiting = set()
        self._check_complete()

    def _check_complete(self) -> None:
        if self._active_round is None or self._awaiting:
            return
        self._abort_round()
        if self._grants_this_round == 0 and self._join_pending_this_round > 0:
            # Unanimous "you are not one of us": we really were removed;
            # the repliers queued us as a joiner — wait for the token.
            self.rounds_denied += 1
            self.node._transition(NodeState.JOINING)
            self._arm_join_timer()
            return
        self._regenerate()

    def _abort_round(self) -> None:
        self._active_round = None
        if self._awaiting:
            self._awaiting = set()
        if self._round_timer is not None:
            self._round_timer.cancel()
            self._round_timer = None

    def _regenerate(self) -> None:
        """Unanimously granted: rebuild the token from our local copy."""
        node = self.node
        if node.state is not NodeState.STARVING:
            return
        copy = node.local_copy
        if copy is None:
            # Never held a token (fresh bootstrap race); form our own group.
            node._bootstrap_token()
            return
        token = copy.snapshot()
        for dead in self._dead_this_round:
            token.remove_member(dead)
        if not token.has_member(node.node_id):  # pragma: no cover - defensive
            token.membership = (node.node_id,) + token.membership
        token.seq = copy.seq + REGEN_SEQ_MARGIN
        token.tbm = False
        # The regenerated token starts a new lineage descending from the
        # copy's: the parent gen heads the ancestry chain, so every member
        # bound to the old lineage accepts this token as its continuation
        # (and a survivor of the old token, should it still circulate, is
        # diverted by the lineage guard instead of racing us).
        parent = token.gen
        token.ancestry = derive_ancestry(copy)
        token.gen = node._next_gen()
        probe = node.probe
        if probe is not None:
            probe.emit(node.node_id, "token.regen", token.gen, parent, token.seq)
        self.regenerations += 1
        node._accept_token(token)

    # ------------------------------------------------------------------
    # incoming 911s
    # ------------------------------------------------------------------
    def handle_911(self, msg: NineOneOne) -> None:
        node = self.node
        if msg.sender not in node.members:
            # Join request (new node, wrongly-removed node, or node behind a
            # broken link).  Queue it; the token visit applies it.  A
            # quarantined sender still gets JOIN_PENDING (so it keeps
            # politely knocking) but is not queued until the backoff lifts.
            if (
                msg.sender not in self.pending_joins
                and msg.sender not in node.quarantined
            ):
                self.pending_joins.append(msg.sender)
            verdict = ReplyVerdict.JOIN_PENDING
        elif node.is_eating:
            verdict = ReplyVerdict.DENY_HAVE_TOKEN
        else:
            my_seq = node.local_copy_seq
            if my_seq > msg.last_seq or (
                my_seq == msg.last_seq and node.node_id < msg.sender
            ):
                # Tie-break on node id makes the winner unique even in the
                # (theoretically impossible) equal-seq case.
                verdict = ReplyVerdict.DENY_NEWER_COPY
            else:
                verdict = ReplyVerdict.GRANT
        reply = NineOneOneReply(node.node_id, msg.round_id, verdict, node.local_copy_seq)
        node.transport.send(msg.sender, reply)

    # ------------------------------------------------------------------
    # joining a group
    # ------------------------------------------------------------------
    def start_join(self, contacts: list[str]) -> None:
        """Ask ``contacts`` (tried round-robin) to admit us to their group."""
        if not contacts:
            raise ValueError("need at least one contact to join")
        self._join_contacts = list(contacts)
        self._join_attempt = 0
        self._send_join_911()

    def _send_join_911(self) -> None:
        node = self.node
        if node.state is not NodeState.JOINING:
            return
        contact = self._join_contacts[self._join_attempt % len(self._join_contacts)]
        self._join_attempt += 1
        round_id = next(self._round_ids)
        probe = node.probe
        if probe is not None:
            probe.emit(node.node_id, "recovery.join", contact, self._join_attempt)
        msg = NineOneOne(node.node_id, node.local_copy_seq, round_id)
        node.transport.send(contact, msg)
        self._arm_join_timer()

    def _arm_join_timer(self) -> None:
        node = self.node
        if self._join_timer is not None:
            self._join_timer.cancel()
        self._join_timer = node.loop.call_later(
            node.config.join_retry, self._on_join_timeout
        )

    def _on_join_timeout(self) -> None:
        node = self.node
        if node.state is not NodeState.JOINING:
            return
        node._gc_wakeup()
        if not self._join_contacts:
            # We got here via JOIN_PENDING (we were a member and were
            # removed): keep knocking at our former peers.
            self._join_contacts = [m for m in node.members if m != node.node_id]
            if not self._join_contacts:
                node._transition(NodeState.STARVING)
                self._start_round()
                return
        # Escalation: if repeated knocking has gone nowhere and we still
        # hold a token copy, the neighbourhood may be wedged (everyone
        # JOINING at everyone after a partition tangle).  The node with
        # the newest copy must break the deadlock by attempting a proper
        # 911 regeneration round.
        if (
            node.local_copy is not None
            and self._join_attempt >= max(4, 2 * len(self._join_contacts))
        ):
            self._join_attempt = 0
            node._transition(NodeState.STARVING)
            self._start_round()
            return
        self._send_join_911()

    # ------------------------------------------------------------------
    # token-visit hook
    # ------------------------------------------------------------------
    def on_token(self, token: "Token") -> None:
        """Apply queued join requests: insert joiners right after us.

        The forwarding step then naturally hands the token to the first
        joiner — the paper's "It then sends the TOKEN to the new node."
        """
        me = self.node.node_id
        if self.pending_joins:
            for joiner in self.pending_joins:
                if joiner != me and not token.has_member(joiner):
                    token.insert_after(me, joiner)
            self.pending_joins.clear()
        # Quarantine eviction: a peer the resync ladder gave up on is
        # removed from the ring here, on the same visit joins apply.
        quarantined = self.node.quarantined
        if quarantined:
            for peer in sorted(quarantined):
                if peer != me and token.has_member(peer):
                    token.remove_member(peer)

    def cancel_timers(self) -> None:
        """Token arrived or node shut down: stop all recovery activity."""
        if self._active_round is not None or self._round_timer is not None:
            self._abort_round()  # (nothing awaits replies outside a round)
        if self._join_timer is not None:
            self._join_timer.cancel()
            self._join_timer = None
