"""The Raincore Distributed Session Service node — paper §2.

:class:`RaincoreNode` is the per-node protocol engine.  It owns the token
state machine (HUNGRY/EATING/STARVING, paper §2.2) and composes the
sub-protocols:

* :class:`~repro.core.multicast.MulticastService` — reliable atomic
  multicast with agreed/safe ordering (§2.6);
* :class:`~repro.core.mutex.MutexService` — token-based mutual exclusion
  (§2.7);
* :class:`~repro.core.recovery.RecoveryProtocol` — the 911 token-recovery
  and join protocol (§2.3);
* :class:`~repro.core.merge.MergeProtocol` — split-brain discovery and
  group merge (§2.4);
* :class:`~repro.core.resources.ResourceMonitor` — critical-resource
  self-shutdown (§2.4).

Token acceptance guard
----------------------
Two layers, checked in order:

1. **Lineage continuity.**  Every node remembers the lineage id (``gen``)
   of the last token it accepted.  A non-TBM token is only *ours* if it
   continues that lineage — same ``gen``, or our binding appears in the
   token's bounded :attr:`~repro.core.token.Token.ancestry` chain (a 911
   regeneration or a merge minted a descendant).  Any other token belongs
   to a different live group that merely believes we are a member — the
   signature of a 911 regeneration racing the token it presumed lost.
   Processing both streams would interleave their agreed orders, so the
   foreign token is **diverted**: we remove ourselves from its ring and
   forward it to its next member.  Both forks then partition cleanly into
   disjoint groups, and the BODYODOR/TBM merge machinery (plus the data
   layer's resync ladder) reconciles them.
2. **Sequence freshness.**  A same-lineage token is ignored unless its
   sequence number is strictly greater than the last one seen.  Together
   with the rule that every send increments the sequence number, this
   makes duplicate tokens (created by an ack lost on an otherwise-
   successful forward, i.e. a failure-detector false alarm) die at the
   first node that already saw the newer branch — the mechanism behind
   the paper's token-uniqueness argument.

Task-switch accounting convention (paper §1, §4.1)
--------------------------------------------------
One task switch is charged per wakeup of the group-communication task: every
received session-layer message and every GC timer expiry.  The token *hold*
is not charged separately — the arrival wakeup covers the whole
process-hold-forward sequence, matching the paper's count of **L** task
switches per second for a token doing L roundtrips per second.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable

from repro.core.config import RaincoreConfig
from repro.core.events import SessionListener, ViewChange
from repro.core.merge import MergeProtocol
from repro.core.multicast import MulticastService
from repro.core.mutex import MutexService
from repro.core.recovery import RecoveryProtocol
from repro.core.resources import ResourceMonitor
from repro.core.states import NodeState
from repro.core.token import Ordering, Token
from repro.core.opengroup import OpenGroupAck, OpenGroupMessage
from repro.core.wire import BodyOdor, NineOneOne, NineOneOneReply
from repro.net.datagram import DatagramNetwork
from repro.net.eventloop import EventLoop, TimerHandle
from repro.transport.reliable import ReliableUnicast

__all__ = ["QUARANTINE_BACKOFF", "RaincoreNode"]

#: Seconds a quarantined peer is refused re-admission (its 911 joins and
#: BODYODOR merge beacons are ignored) before the quarantine lifts.
QUARANTINE_BACKOFF = 5.0


class RaincoreNode:
    """One member (or prospective member) of a Raincore group.

    Typical use::

        node = RaincoreNode("A", loop, network)
        node.start_new_group()          # first node bootstraps the group
        ...
        other = RaincoreNode("B", loop, network)
        other.start_joining(["A"])      # everyone else joins via a 911

        node.multicast(b"state update")            # agreed ordering
        node.multicast(b"commit", ordering=Ordering.SAFE)
        node.run_exclusive(lambda: ...)            # master-lock section
    """

    # Slotted: one node is touched on every hop, and a slotted instance
    # reads each field at a fixed offset instead of through a per-instance
    # dict (whose shared keys CPython gives up on at 30 attributes, a cliff
    # that once cost the simulator a tenth of its hop rate; FINDINGS §10).
    # ``__dict__`` stays, empty, for per-instance method wrappers (the
    # benchmark ledger wraps ``multicast`` on the node it watches).
    __slots__ = (
        "__dict__",
        "node_id",
        "loop",
        "network",
        "config",
        "listener",
        "stats",
        "probe",
        "transport",
        "multicast_service",
        "mutex",
        "recovery",
        "merge",
        "monitor",
        "state",
        "shutdown_reason",
        "quarantined",
        "_gen_seq",
        "_live_token",
        "_local_copy",
        "_last_seen_seq",
        "_lineage",
        "_members",
        "_announced_view",
        "_hungry_timer",
        "_hungry_due",
        "_hungry_key",
        "_forward_timer",
        "_hold_debt",
        "_epoch",
        "_leaving",
        "_drain_before_leave",
        "_open_group_seen",
    )

    def __init__(
        self,
        node_id: str,
        loop: EventLoop,
        network: DatagramNetwork,
        config: RaincoreConfig | None = None,
        listener: SessionListener | None = None,
    ) -> None:
        self.node_id = node_id
        self.loop = loop
        self.network = network
        self.config = config if config is not None else RaincoreConfig()
        self.listener = listener if listener is not None else SessionListener()
        self.stats = network.stats.for_node(node_id)
        # Optional probe bus (repro.obs); None keeps every hot path at one
        # attribute load + None test.  Wired by ClusterHarness.enable_probes.
        self.probe = None
        # Per-node token-lineage counter for gen ids ("A.1", "A.2", ...).
        self._gen_seq = 0

        self.transport = ReliableUnicast(node_id, loop, network, self.config.transport)
        self.transport.set_receiver(self._receive)

        self.multicast_service = MulticastService(self)
        self.mutex = MutexService(self)
        self.recovery = RecoveryProtocol(self)
        self.merge = MergeProtocol(self)
        self.monitor = ResourceMonitor(self)

        self.state: NodeState = NodeState.DOWN
        self._live_token: Token | None = None
        self._local_copy: Token | None = None
        self._last_seen_seq: int = -1
        # Lineage binding: gen of the last accepted token (None until the
        # first acceptance).  See "Token acceptance guard" above.
        self._lineage: str | None = None
        self._members: tuple[str, ...] = ()
        self._announced_view: tuple[str, ...] | None = None
        # The HUNGRY deadline is lazy (see _arm_hungry_timer): the deadline
        # itself, its loop ordering key, and the one handle that may be
        # armed on its behalf.
        self._hungry_due: float | None = None
        self._hungry_key = -1
        self._hungry_timer: TimerHandle | None = None
        self._forward_timer: TimerHandle | None = None
        # How late this node's own clock and work made its last forward,
        # repaid out of its next hold so a real ring keeps its configured
        # rate.  Always 0.0 in the simulator.
        self._hold_debt = 0.0
        self._epoch = 0  # bumped on crash/shutdown to invalidate stale timers
        self._leaving = False
        self._drain_before_leave = False
        self._open_group_seen: set[tuple[str, int]] = set()
        self.shutdown_reason: str | None = None
        # Peers quarantined from the view (peer id -> structured reason).
        # Quarantined peers are evicted on the next token visit and their
        # 911 joins / BODYODOR merges are ignored until the backoff lifts
        # (bounded-state resync degradation ladder, docs/RESYNC.md).
        self.quarantined: dict[str, str] = {}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def members(self) -> tuple[str, ...]:
        """Last known group membership (ring order)."""
        return self._members

    @property
    def is_member(self) -> bool:
        return self.node_id in self._members and self.state not in (
            NodeState.DOWN,
            NodeState.JOINING,
        )

    @property
    def is_eating(self) -> bool:
        return self.state is NodeState.EATING

    @property
    def group_id(self) -> str:
        """Lowest member id — the group identity used by the merge protocol."""
        if not self._members:
            return self.node_id
        return min(self._members)

    @property
    def local_copy(self) -> Token | None:
        """This node's local copy of the token (made at each forward)."""
        if self._live_token is not None:
            return self._live_token
        return self._local_copy

    @property
    def local_copy_seq(self) -> int:
        copy = self.local_copy
        return copy.seq if copy is not None else -1

    @property
    def has_token(self) -> bool:
        return self._live_token is not None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start_new_group(self) -> None:
        """Bootstrap a new singleton group with this node as only member."""
        if self.state is not NodeState.DOWN:
            raise RuntimeError(f"{self.node_id}: already started ({self.state})")
        self._reset_session_state()
        self.transport.start()
        self.merge.start()
        self.monitor.start()
        self._transition(NodeState.JOINING)
        self._bootstrap_token()

    def start_joining(self, contacts: list[str]) -> None:
        """Join an existing group by sending a 911 to one of ``contacts``."""
        if self.state is not NodeState.DOWN:
            raise RuntimeError(f"{self.node_id}: already started ({self.state})")
        self._reset_session_state()
        self.transport.start()
        self.merge.start()
        self.monitor.start()
        self._transition(NodeState.JOINING)
        self.recovery.start_join(contacts)

    def _reset_session_state(self) -> None:
        self._live_token = None
        self._local_copy = None
        self._last_seen_seq = -1
        self._lineage = None
        self._members = ()
        self._announced_view = None
        self._leaving = False
        self._drain_before_leave = False
        self.shutdown_reason = None
        # A restart is a new incarnation: drop work queued by the old one —
        # including grudges (lift timers for the old entries become no-ops).
        self.quarantined.clear()
        self.multicast_service.reset()
        self.mutex._queue.clear()

    def _next_gen(self) -> str:
        """Mint the next token-lineage id created by this node.

        Deterministic by construction (node id + local counter), so it is
        safe to carry on the wire and in exported probe streams.
        """
        self._gen_seq += 1
        return f"{self.node_id}.{self._gen_seq}"

    def _gc_wakeup(self) -> None:
        """Charge a GC task wakeup and probe it when it is a fresh batch."""
        if self.stats.gc_wakeup(self.loop.now):
            probe = self.probe
            if probe is not None:
                probe.emit(self.node_id, "core.wakeup")

    def _bootstrap_token(self) -> None:
        """Create the group's first token (also the fresh-bootstrap 911 path)."""
        token = Token(
            seq=0, membership=(self.node_id,), view_id=0, gen=self._next_gen()
        )
        probe = self.probe
        if probe is not None:
            probe.emit(self.node_id, "token.bootstrap", token.gen)
        self._accept_token(token)

    def shutdown(self, reason: str = "shutdown") -> None:
        """Graceful-ish local stop: cease all protocol activity.

        Peers detect us through failure-on-delivery on the next token pass.
        Used for critical-resource self-shutdown (paper §2.4) and by fault
        injection.
        """
        if self.state is NodeState.DOWN:
            return
        self.shutdown_reason = reason
        self._teardown()
        probe = self.probe
        if probe is not None:
            probe.emit(self.node_id, "node.shutdown", reason)
        self.listener.on_shutdown(reason)

    def crash(self) -> None:
        """Fail-stop without any notification — fault injection."""
        if self.state is NodeState.DOWN:
            return
        self.shutdown_reason = "crash"
        self._teardown()

    def _teardown(self) -> None:
        self._epoch += 1
        self._hold_debt = 0.0
        self.transport.stop()
        self.merge.stop()
        self.monitor.stop()
        self.recovery.cancel_timers()
        self._hungry_due = None
        self._cancel_timer("_hungry_timer")
        self._cancel_timer("_forward_timer")
        self._live_token = None
        self._transition(NodeState.DOWN)

    def leave(self, drain: bool = False) -> None:
        """Voluntarily leave the group: on the next token visit, remove
        ourselves from the ring, forward the token, and shut down.

        With ``drain=True`` departure waits until every queued multicast
        has been attached to the token (a graceful flush): once attached,
        messages complete delivery on their own because the pending sets
        never include the departed originator.
        """
        self._leaving = True
        self._drain_before_leave = drain
        if self.is_eating:
            if drain and self.multicast_service.outbox_depth() > 0:
                return  # this visit's departure (or a later one's) flushes
            self._depart_with_token(mid_hold=True)

    # ------------------------------------------------------------------
    # public service API
    # ------------------------------------------------------------------
    def multicast(
        self,
        payload: object,
        size: int | None = None,
        ordering: Ordering = Ordering.AGREED,
    ) -> tuple[str, int]:
        """Reliably multicast ``payload`` to the group (paper §2.6).

        Returns the multicast id ``(origin, msg_no)``.  The message rides
        the token from when it next leaves this node: the end of the
        current hold if this node holds it now.
        """
        if self.state is NodeState.DOWN:
            raise RuntimeError(f"{self.node_id}: node is down")
        return self.multicast_service.multicast(payload, size, ordering)

    def run_exclusive(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` under the group master-lock (paper §2.7)."""
        if self.state is NodeState.DOWN:
            raise RuntimeError(f"{self.node_id}: node is down")
        self.mutex.run_exclusive(fn)

    def set_eligible(self, node_ids: Iterable[str]) -> None:
        """Configure the Eligible Membership for discovery (paper §2.4)."""
        self.merge.set_eligible(node_ids)

    def quarantine_peer(self, peer: str, reason: str) -> None:
        """Quarantine ``peer`` from the view with a structured ``reason``.

        Called by the resync degradation ladder when a peer repeatedly
        fails state transfer: the peer is removed from the ring on this
        node's next token visit, and its 911 joins and BODYODOR merge
        beacons are ignored until :data:`QUARANTINE_BACKOFF` elapses.
        Quarantining beats the alternative — a peer that can never resync
        re-entering the view forever, stalling convergence and bloating
        every member's retransmit and catch-up state.
        """
        if peer == self.node_id or peer in self.quarantined:
            return
        self.quarantined[peer] = reason
        probe = self.probe
        if probe is not None:
            probe.emit(self.node_id, "resync.quarantine", peer, reason, True)
        self.loop.call_later(QUARANTINE_BACKOFF, self._lift_quarantine, peer)

    def _lift_quarantine(self, peer: str) -> None:
        if self.quarantined.pop(peer, None) is None:
            return
        self._gc_wakeup()
        probe = self.probe
        if probe is not None:
            probe.emit(self.node_id, "resync.quarantine", peer, "", False)

    # ------------------------------------------------------------------
    # state machine
    # ------------------------------------------------------------------
    def _transition(self, new: NodeState) -> None:
        old = self.state
        if old is new:
            return
        if new not in old.successors:
            raise AssertionError(
                f"{self.node_id}: illegal transition {old.value} -> {new.value}"
            )
        self.state = new
        probe = self.probe
        if probe is not None:
            probe.emit(self.node_id, "node.state", old.label, new.label)
        self.listener.on_state_change(old, new)

    def _arm_hungry_timer(self) -> None:
        """Start (or restart) the HUNGRY deadline: ``hungry_timeout`` from now.

        Lazy: the deadline is a float and the loop ordering key reserved
        now, and at most one handle is armed for it.  A handle armed for an
        older deadline re-arms itself at the current one, with its key;
        accepting the token clears the deadline and leaves the handle to
        fire as a no-op.  So a token that keeps coming back costs no heap
        entry per hop, and STARVING still begins at exactly the instant, and
        in exactly the order among same-instant events, that a
        cancel-and-re-arm timer would have fired.
        """
        loop = self.loop
        due = self._hungry_due = loop.now + self.config.hungry_timeout
        key = self._hungry_key = loop.reserve_key()
        if self._hungry_timer is None:
            self._hungry_timer = loop.call_at_key(
                due, key, self._on_hungry_timeout, self._epoch, key
            )

    def _cancel_timer(self, attr: str) -> None:
        timer = getattr(self, attr)
        if timer is not None:
            timer.cancel()
            setattr(self, attr, None)

    def _on_hungry_timeout(self, epoch: int, key: int) -> None:
        if epoch != self._epoch:
            return
        self._hungry_timer = None
        due = self._hungry_due
        if due is None:
            return  # the token came back; nothing to wait for
        if key != self._hungry_key:
            # The deadline moved on since this handle was armed.
            key = self._hungry_key
            self._hungry_timer = self.loop.call_at_key(
                due, key, self._on_hungry_timeout, epoch, key
            )
            return
        self._hungry_due = None
        if self.state is not NodeState.HUNGRY:
            return
        self._gc_wakeup()
        self.recovery.on_hungry_timeout()

    # ------------------------------------------------------------------
    # receive dispatch
    # ------------------------------------------------------------------
    def _receive(self, src_node: str, payload: object) -> None:
        """Transport delivered a session-layer message: one GC wakeup."""
        if self.state is NodeState.DOWN:
            return
        self._gc_wakeup()
        if isinstance(payload, Token):
            self._accept_token(payload, from_node=src_node)
        elif isinstance(payload, NineOneOne):
            self.recovery.handle_911(payload)
        elif isinstance(payload, NineOneOneReply):
            self.recovery.handle_reply(payload)
        elif isinstance(payload, BodyOdor):
            self.merge.handle_bodyodor(payload)
        elif isinstance(payload, OpenGroupMessage):
            self._handle_open_group(payload)
        # Unknown payloads are dropped, as the session layer of a router
        # must tolerate garbage.

    def _handle_open_group(self, msg: OpenGroupMessage) -> None:
        """Open group communication (paper §2.6): an outside node asked us
        to forward its message to the whole group.

        Per-contact dedup makes a retried injection at *this* member
        idempotent; a client that fails over to a different contact after a
        lost acceptance gets at-least-once semantics (documented in
        :mod:`repro.core.opengroup`).
        """
        if not self.is_member:
            return  # no ack: the client will try another contact
        key = (msg.client, msg.client_msg_no)
        if key not in self._open_group_seen:
            self._open_group_seen.add(key)
            ordering = Ordering.SAFE if msg.safe else Ordering.AGREED
            self.multicast(msg.payload, size=msg.size, ordering=ordering)
        self.transport.send(msg.client, OpenGroupAck(self.node_id, msg.client_msg_no))

    # ------------------------------------------------------------------
    # token handling
    # ------------------------------------------------------------------
    def _accept_token(self, token: Token, from_node: str | None = None) -> None:
        if self.state is NodeState.DOWN:
            return
        if token.tbm and not token.has_member(self.node_id):
            # Defensive: a TBM token must name us; otherwise ignore.
            return
        if token.tbm:
            # A second TBM while one is held is dropped; the second
            # initiator's group starves and recovers via the 911 protocol.
            self.merge.handle_tbm(token)
            return
        lineage = self._lineage
        if (
            lineage is not None
            and self.state is not NodeState.JOINING
            and token.gen != lineage
            and lineage not in token.ancestry
        ):
            # Not a continuation of the lineage we follow: a concurrent
            # fork (911 regen racing the live token) or a straggler from a
            # dead one.  Either way, delivering from two token streams
            # would break agreed ordering — route it around ourselves
            # instead.  (A JOINING node has no stream to protect: it
            # accepts whichever group admits it.)
            self._divert_foreign_token(token, from_node)
            return
        if token.seq <= self._last_seen_seq:
            # Stale duplicate of our own lineage (healed false alarm).
            # The drop is deliberately SILENT: the stale branch of a false
            # alarm must die here.  (Tokens from *other* lineages never
            # reach this guard — the lineage check above diverts them.)
            probe = self.probe
            if probe is not None:
                probe.emit(
                    self.node_id,
                    "token.stale",
                    from_node if from_node is not None else "local",
                    token.gen,
                    token.seq,
                )
            return
        if not token.has_member(self.node_id):
            # We were removed while the token was in flight; we will starve
            # and rejoin via the 911 protocol (paper §2.3).
            return
        self._last_seen_seq = token.seq
        self._live_token = token
        self._lineage = token.gen
        probe = self.probe
        if probe is not None:
            probe.emit(
                self.node_id,
                "token.accept",
                from_node if from_node is not None else "local",
                token.gen,
                token.seq,
                token.message_count(),
            )
        self.recovery.cancel_timers()
        self._hungry_due = None
        self._transition(NodeState.EATING)

        if self.merge.holding_tbm:
            # Our own token has arrived while we hold a TBM token: merge
            # the two groups now (paper §2.4).
            self._live_token = self.merge.merge_with_own(token)
            self._last_seen_seq = self._live_token.seq
            self._lineage = self._live_token.gen

        if self._leaving:
            if (
                self._drain_before_leave
                and self.multicast_service.outbox_depth() > 0
            ):
                # Graceful drain: keep attaching (bounded per visit by the
                # batch/byte budgets) and leave once the outbox is empty.
                self._process_visit()
                return
            self._depart_with_token()
            return

        self._process_visit()

    def _divert_foreign_token(self, token: Token, from_node: str | None) -> None:
        """Route a foreign-lineage token around ourselves (see the module
        docstring's acceptance guard, layer 1).

        We are bound to a different live lineage, so we must not process —
        or silently swallow — this one.  If its ring names us, we remove
        ourselves (pruning us from its messages' pending sets, the same
        bookkeeping as a failure-detector removal) and pass it to our ring
        successor, so the foreign group keeps its token and simply shrinks
        by one.  A foreign token that does not name us is dropped; its
        group recovers through its own HUNGRY timeout and 911 round.
        """
        probe = self.probe
        if probe is not None:
            probe.emit(
                self.node_id,
                "token.foreign",
                from_node if from_node is not None else "local",
                token.gen,
                token.seq,
            )
        if not token.has_member(self.node_id):
            return
        successor = token.next_after(self.node_id)
        if successor == self.node_id:
            return  # their ring was only us: the fork dissolves here
        token.remove_member(self.node_id)
        token.seq += 1
        self.transport.send(successor, token)

    def _merge_now(self) -> None:
        """Called by the merge protocol when a TBM arrives while EATING."""
        if self._live_token is None:  # pragma: no cover - defensive
            return
        self._live_token = self.merge.merge_with_own(self._live_token)
        self._last_seen_seq = self._live_token.seq
        self._lineage = self._live_token.gen
        self._sync_membership(self._live_token)

    def _process_visit(self) -> None:
        """The arrival side of one token visit, up to arming the hold.

        The multicast pipeline is split at the hold: receive,
        confirm/retire and deliver run here; attach and deliver-own run
        as the hold ends, in :meth:`_forward_token`.
        """
        loop = self.loop
        arrived = loop.now  # before any visit work: the hold is a deadline
        token = self._live_token
        assert token is not None
        self._sync_membership(token)
        self.recovery.on_token(token)  # apply queued joins
        self.multicast_service.on_token(token)
        self.mutex.on_token()
        self._sync_membership(token)  # joins may have changed the view
        # Hold the token until one hop interval after its arrival, less
        # what the last forward ran late, then forward (paper §2.2: "passed
        # at a regular time interval").  The visit's own work comes out of
        # the hold, and a deadline already past fires on the loop's next
        # turn.  In the simulator the debt is always 0.0 and ``due`` is the
        # very float ``call_later(hop_interval)`` would compute.  The hold
        # belongs to the arrival wakeup — no extra task switch is charged.
        timer = self._forward_timer
        if timer is not None:
            timer.cancel()
        due = arrived + self.config.hop_interval - self._hold_debt
        self._forward_timer = loop.call_at(
            due, self._forward_token, self._epoch, due
        )

    def _sync_membership(self, token: Token) -> None:
        self._members = token.membership
        if self._announced_view != token.membership:
            self._announced_view = token.membership
            probe = self.probe
            if probe is not None:
                probe.emit(
                    self.node_id, "view.change", token.view_id, token.membership
                )
            self.listener.on_view_change(
                ViewChange(token.view_id, token.membership, self.loop.now)
            )

    def _forward_token(self, epoch: int, due: float) -> None:
        if epoch != self._epoch or self.state is not NodeState.EATING:
            return
        self._forward_timer = None  # this handle, firing: nothing to cancel
        token = self._live_token
        if token is None:  # pragma: no cover - defensive
            return
        # The visit's departure half: whatever was queued up to now, the
        # hold included, leaves with this token.  It attaches before a
        # merge is initiated, so a pack's audience is the group the token
        # leaves from.
        self.multicast_service.on_depart(token)
        override = self.merge.maybe_initiate(token)
        if override is not None:
            self._sync_membership(token)  # merge target was added to ring
            target = override
        else:
            target = token.next_after(self.node_id)
        self._send_token_to(target)
        # Timer lateness plus the cost of the send just made, by our own
        # clock alone; never more than one hop, so a stall is forgiven
        # rather than chased with a burst of short holds.  (Compared, not
        # min/max-ed: the simulator runs this 40k times a second.)
        late = self.loop.now - due
        if late > 0.0:
            hop = self.config.hop_interval
            self._hold_debt = late if late < hop else hop
        else:
            self._hold_debt = 0.0

    def _send_token_to(self, target: str) -> None:
        token = self._live_token
        assert token is not None
        if target == self.node_id:
            # Singleton ring: the token "circulates" on this node alone.
            token.seq += 1
            self._local_copy = token.snapshot()
            self._live_token = None
            self._transition(NodeState.HUNGRY)
            self._arm_hungry_timer()
            self.loop.call_later(0.0, self._accept_token, self._local_copy.snapshot())
            return
        token.seq += 1
        sent = token  # the object travels; our snapshot is independent of it
        self._local_copy = token.snapshot()
        self._live_token = None
        self._transition(NodeState.HUNGRY)
        self._arm_hungry_timer()
        seq = sent.seq
        probe = self.probe
        if probe is not None:
            # Forwarding the token *is* arming the failure detector: the
            # transport's failure-on-delivery on this send is what detects
            # a dead neighbour (paper §2.2).
            probe.emit(self.node_id, "fd.arm", target, seq)
        self.transport.send(
            target, sent, on_result=partial(self._on_forward_result, target, seq)
        )

    def _on_forward_result(self, target: str, seq: int, ok: bool) -> None:
        if ok or self.state is NodeState.DOWN:
            return
        probe = self.probe
        if self._last_seen_seq >= seq:
            # We have seen a newer token since; the ring moved on without
            # our help (e.g. the "failed" forward actually arrived).
            if probe is not None:
                probe.emit(self.node_id, "fd.false_alarm", target, seq)
            return
        # Failure-on-delivery: aggressive failure detection (paper §2.2).
        # Remove the dead neighbour and pass the token to the next healthy
        # node, resuming from our local copy of exactly what we sent.
        self._gc_wakeup()
        if probe is not None:
            probe.emit(self.node_id, "fd.fire", target, seq)
        copy = self._local_copy
        if copy is None:  # pragma: no cover - defensive
            return
        token = copy.snapshot()
        token.remove_member(target)
        # If the failed neighbour was a merge target, the merge is off.
        token.tbm = False
        if not token.has_member(self.node_id):  # pragma: no cover - defensive
            return
        # Re-accept our own repaired token: seq equals what we sent, which
        # passes the strictly-greater guard because _last_seen_seq still
        # holds the seq at which we *received* it.
        self._accept_token(token)

    def _depart_with_token(self, mid_hold: bool = False) -> None:
        """Voluntary leave while EATING: hand the ring over and stop.

        ``mid_hold``: the leave lands during a visit's hold, after its
        arrival half, so the departure half runs first and the outbox
        leaves with the token.  A leave taken at acceptance has no visit
        and attaches nothing.
        """
        token = self._live_token
        assert token is not None
        if mid_hold:
            self.multicast_service.on_depart(token)
        successor = token.next_after(self.node_id)
        token.remove_member(self.node_id)
        if successor == self.node_id or not token.membership:
            # We were the last member; the group dissolves with us.
            self._teardown()
            return
        token.seq += 1
        self.transport.send(successor, token)
        self._live_token = None
        # Leave the epoch teardown to run after the send is queued.
        self._teardown()
