"""Replicated-state-machine base: op ordering, snapshots, anti-entropy,
bounded-state resync.

Every Data Service replica (shared dictionary, NAT table, …) follows the
same discipline:

* **ops** ride the agreed-ordered multicast and are applied identically by
  every *synced* replica; each applied op is also appended to a segmented,
  hash-chained, prunable log (:mod:`repro.data.resync`) whose retained
  window serves certified delta catch-up;
* an **unsynced** replica (a joiner, or a member that never received its
  state transfer before a partition) buffers ops and periodically
  multicasts a ``SyncRequest`` carrying its certified position
  ``(seq, digest)``.  Synced members answer along the **degradation
  ladder** (docs/RESYNC.md):

  1. position certifies inside the retained window → a
     :class:`~repro.data.resync.ResyncDelta` (the missing tail, O(window));
  2. position out of window or divergent → a
     :class:`~repro.data.resync.ResyncSnapshot` (continuation-point state
     transfer, O(state)) installed by *every* member, which also
     reconciles split-brain histories;
  3. repeated fallbacks with no certified ack in between → the peer is
     **quarantined** from the view with a structured reason
     (:meth:`RaincoreNode.quarantine_peer`) instead of stalling the ring.
     A ``resync_window_bytes`` of 0 disables the window and quarantines
     immediately — the documented degenerate boundary.

* on every view **growth**, the lowest-id *surviving* member — lowest id
  among nodes present in both the old and new view, i.e. one that
  witnessed the order the joiners missed — becomes the resync coordinator
  for the joiners.  It defers the (pre-resync-era unconditional) full
  snapshot behind a short timer and watches :class:`ResyncAck` positions:
  a joiner that certifies in-window is served a delta instead, so a short
  partition rejoin costs O(window) messages, not O(history).  If a joiner
  never certifies (fresh node, divergent merge side) the timer falls back
  to the snapshot.  On a divergent ack (split-brain merge), the member
  that is the minimum id of the merged view reconciles everyone with a
  snapshot — preserving the lower-group-id-wins rule, since the group id
  *is* the minimum member id;
* every synced member multicasts a :class:`ResyncAck` when a segment
  seals, on view growth and after installing state.  Acks ride the agreed
  order, so every replica sees every ack at the same stream position and
  prunes deterministically once all live view members acknowledge a
  segment;
* a **restart is amnesia**: a node that went DOWN and starts again must
  not trust its pre-crash replica — state *and* log — and re-enters the
  unsynced protocol (:meth:`ReplicaBase.forget`);
* **anti-entropy** (the part a first implementation gets wrong): an
  unsynced member cannot rely on growth events alone — it periodically
  multicasts a ``SyncRequest`` until synced, and every synced member
  answers.  If *nobody* answers (the whole group is unsynced — possible
  when a partition stranded everyone before their state transfer), the
  lowest-id member declares its local state authoritative after a few
  fruitless requests and snapshots it; the group deterministically adopts
  that state.  Without this rule an unsynced minimum-id member deadlocks
  the whole group's reconciliation (found by randomized fuzzing; see
  docs/FINDINGS.md §4).

Subclasses declare three class attributes and implement three hooks:

* ``SERVICE``, a unique name that namespaces the resync messages;
* ``OP``, the op type: a delivery of exactly this type is an op.  An op
  carries its modelled wire ``size`` and its chain ``identity``
  (:func:`~repro.data.resync.chain_identity` at that size), computed once
  when it is built, so no replica re-derives them per delivery;
* ``SNAPSHOT``, the state-transfer payload type;
* :meth:`_apply_op`, :meth:`_snapshot_payload`, :meth:`_install_snapshot`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.events import Delivery, SessionListener, ViewChange, ensure_composite
from repro.core.multicast import DeferredPayload
from repro.core.session import RaincoreNode
from repro.core.states import NodeState
from repro.data.resync import (
    GENESIS_DIGEST,
    ContinuationPoint,
    ResyncAck,
    ResyncDelta,
    ResyncSnapshot,
    SegmentedLog,
)
from repro.transport.messages import stream_message

__all__ = ["QUARANTINE_AFTER", "ReplicaBase", "SyncRequest"]

#: Fruitless sync requests before a minimum-id member self-declares.
SELF_DECLARE_AFTER = 3

#: Consecutive failed resyncs (continuation-point snapshot fallbacks with no
#: certified ack in between) a peer is allowed before it is quarantined.
QUARANTINE_AFTER = 3

#: Growth-snapshot deferral, in units of ``join_retry``: long enough for a
#: joiner's first SyncRequest (one ``join_retry`` after its view change) or
#: a merge peer's growth ack to arrive and be served a certified delta;
#: short enough that the fallback snapshot still lands well inside the
#: convergence budgets the pre-resync protocol met.
GROWTH_DEFER_RETRIES = 3.0


@stream_message
@dataclass(frozen=True)
class SyncRequest:
    """An unsynced replica asking the group for catch-up.

    ``service`` namespaces the request so multiple replica services on one
    group do not answer each other's requests.  ``seq``/``digest`` carry
    the requester's certified position: answerers use them to pick the
    rung of the degradation ladder (delta / snapshot / quarantine).
    """

    service: str
    requester: str
    seq: int = 0
    digest: str = GENESIS_DIGEST

    def wire_size(self) -> int:
        return 24 + len(self.service) + len(self.digest)


#: The stream messages of the resync protocol (every one has a ``service``).
_RESYNC_KINDS = frozenset({ResyncAck, ResyncSnapshot, ResyncDelta, SyncRequest})


class ReplicaBase(SessionListener):
    """Common machinery for group-replicated state machines."""

    #: Subclasses set a unique name (namespaces snapshots/sync requests).
    SERVICE: str = ""
    #: Subclasses set the op type (instances carry ``size`` and ``identity``).
    OP: type | None = None
    #: Subclasses set the snapshot payload type.
    SNAPSHOT: type | None = None

    def __init__(self, node: RaincoreNode) -> None:
        if not self.SERVICE:
            raise TypeError("subclass must set SERVICE")
        if self.OP is None or self.SNAPSHOT is None:
            raise TypeError("subclass must set OP and SNAPSHOT")
        self.node = node
        ensure_composite(node).add(self)
        self._synced: bool | None = None
        self._buffer: list[Any] = []
        self._last_view: tuple[str, ...] = ()
        self._sync_requests_sent = 0
        self._sync_timer = None
        # Bounded-state resync (docs/RESYNC.md).
        self._log = SegmentedLog(node.config.resync_segment_ops)
        self._applied_seq = 0
        self._acked: dict[str, tuple[int, str]] = {}
        self._strikes: dict[str, int] = {}
        self._pending_growth: set[str] = set()
        self._growth_timer = None

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def _apply_op(self, op: Any) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _snapshot_payload(self) -> Any:  # pragma: no cover - abstract
        """Return the full-state snapshot object (materialized at attach)."""
        raise NotImplementedError

    def _install_snapshot(self, snap: Any) -> None:  # pragma: no cover
        raise NotImplementedError

    # ------------------------------------------------------------------
    @property
    def synced(self) -> bool:
        """False while this replica still awaits its state transfer."""
        return bool(self._synced)

    @property
    def applied_seq(self) -> int:
        """Ops applied to this replica (its position in the total order)."""
        return self._applied_seq

    @property
    def continuation(self) -> ContinuationPoint:
        """The log's current certified continuation point."""
        return self._log.cont

    def buffered_bytes(self) -> int:
        """Retained resync-window bytes (the budgeted quantity)."""
        return self._log.buffered_bytes()

    def forget(self) -> None:
        """Full amnesia: drop state trust, the op log and the chain.

        Used by the restart path (a crashed process lost its in-memory
        replica *and* its log) and by tests that model corruption.  The
        subclass's own state is left in place — it stays locally readable
        but the next snapshot or delta overwrites/extends it wholesale
        only after re-certification from genesis.
        """
        self._synced = False
        self._buffer.clear()
        self._sync_requests_sent = 0
        self._cancel_sync_timer()
        self._log = SegmentedLog(self.node.config.resync_segment_ops)
        self._applied_seq = 0
        self._acked.clear()
        self._strikes.clear()
        self._clear_growth()

    # ------------------------------------------------------------------
    # replicated stream
    # ------------------------------------------------------------------
    def on_deliver(self, delivery: Delivery) -> None:
        payload = delivery.payload
        # One type test routes an op, most of the stream.  A second sends
        # away whatever is no resync message either (a lock op, another
        # service's op) before any ``isinstance`` arm is walked.
        kind = type(payload)
        if kind is self.OP:
            if self._synced:
                self._apply_and_log(payload)
            else:
                self._buffer.append(payload)
            return
        if kind not in _RESYNC_KINDS or payload.service != self.SERVICE:
            return
        if isinstance(payload, ResyncAck):
            self._handle_ack(payload)
        elif isinstance(payload, ResyncSnapshot):
            self._handle_snapshot(payload)
        elif isinstance(payload, ResyncDelta):
            self._handle_delta(payload)
        elif isinstance(payload, SyncRequest):
            self._handle_sync_request(payload)

    def _apply_and_log(self, op: Any) -> None:
        """Apply one op and log it under the size and identity it carries;
        ack the position when the append seals a segment, and hold the
        retained window to its budget."""
        self._apply_op(op)
        self._applied_seq += 1
        log = self._log
        if log.append(op, op.size, op.identity)[1]:
            self._multicast_ack()
        node = self.node
        if log.nbytes > node.config.resync_window_bytes:
            self._enforce_budget()
        if node.probe is not None:
            self._emit_buffer_level()

    # ------------------------------------------------------------------
    # state transfer: snapshots and deltas
    # ------------------------------------------------------------------
    def _handle_snapshot(self, snap: ResyncSnapshot) -> None:
        if not isinstance(snap.inner, self.SNAPSHOT):
            return  # wrong payload type for this service: drop, don't crash
        probe = self.node.probe
        if probe is not None:
            probe.emit(
                self.node.node_id,
                "state.install",
                self.SERVICE,
                not self._synced,
            )
        self._install_snapshot(snap.inner)
        self._applied_seq = snap.applied_seq
        self._log.adopt(snap.applied_seq, snap.digest)
        if not self._synced:
            self._synced = True
            # Buffered ops are ordered before this snapshot: contained
            # in it or reconciled away by design.  Never replay.
            self._buffer.clear()
            self._cancel_sync_timer()
        # The snapshot is a fresh common base for the whole group: growth
        # reconciliation is settled and past failures are forgiven.
        self._clear_growth()
        self._strikes.clear()
        self._emit_buffer_level()
        self._multicast_ack()

    def _handle_delta(self, delta: ResyncDelta) -> None:
        if delta.target != self.node.node_id:
            return
        certified = self._log.digest_at(delta.from_seq)
        if certified != delta.from_digest:
            # We cannot certify the delta's base position: our history has
            # genuinely diverged from the answerer's (e.g. the group
            # ordered new ops between a merge and this delta's attach, and
            # we applied them onto the prefix we had).  A synced replica
            # must not keep extending a forked chain — re-enter the
            # unsynced protocol; the ladder answers our certified-position
            # SyncRequest with a reconciling snapshot.
            if self._synced:
                self._synced = False
                self._arm_sync_timer()
            return
        # The base certifies, but we may have moved past it since the
        # answerer observed our position (live ops ordered between our
        # merge ack and this delta's attach get delivered to us first —
        # we cannot tell op #55 from op #51 on the live stream).  Verify
        # the overlap: every delta entry at a position we already applied
        # must match our own chain digest there.  A match means a stale
        # duplicate prefix (another answerer, or live traffic the delta
        # also covers); a mismatch means we applied *different* ops onto
        # the shared base — a silent fork, not a duplicate.
        for entry in delta.entries:
            if entry.seq > self._applied_seq:
                break
            if self._log.digest_at(entry.seq) != entry.digest:
                if self._synced:
                    self._synced = False
                    self._arm_sync_timer()
                return
        tail = [e for e in delta.entries if e.seq > self._applied_seq]
        if not tail and self._synced:
            return  # fully covered already — nothing to reconcile
        # Certified at or behind our head with a matching overlap: take
        # the missing tail — empty when an unsynced joiner asks an idle
        # group, which is current the moment its base certifies.
        # Synced-but-behind targets take it too: a
        # merged-back member whose history is a strict prefix of the
        # group's (it wrote nothing while away) is synced — it was its
        # own singleton group — yet missing every op it was partitioned
        # from.
        for entry in tail:
            self._apply_op(entry.payload)
            self._applied_seq += 1
            self._log.append(entry.payload, entry.size)
        self._enforce_budget()
        if tail and self._log.head_digest != tail[-1].digest:
            # Base and overlap certified, but the tail we just chained does
            # not end where the answerer's did: it was reordered, cut in
            # the middle or built on a different op.  The chain makes this
            # one comparison cover every entry.  We hold a fork; do not
            # ack it — re-ask, and the ladder reconciles with a snapshot.
            self._synced = False
            self._arm_sync_timer()
            return
        self._synced = True
        self._buffer.clear()
        self._cancel_sync_timer()
        self._clear_growth()
        self._emit_buffer_level()
        self._multicast_ack()

    def _handle_sync_request(self, req: SyncRequest) -> None:
        if req.requester == self.node.node_id or not self._synced:
            return
        self._serve_peer(req.requester, req.seq, req.digest)

    def _serve_peer(self, peer: str, seq: int, digest: str) -> None:
        """One rung of the degradation ladder for one lagging peer."""
        node = self.node
        if node.config.resync_window_bytes == 0:
            # Window disabled: every resync is out-of-window by definition.
            self._pending_growth.discard(peer)
            node.quarantine_peer(peer, "resync-window-disabled")
            return
        certified = self._log.digest_at(seq)
        if certified is not None and certified == digest:
            self._strikes.pop(peer, None)
            self._pending_growth.discard(peer)
            if not self._pending_growth:
                self._cancel_growth_timer()
            self._multicast_delta(peer, seq, digest)
            return
        # Out of window, or a divergent history (split-brain survivor).
        strikes = self._strikes.get(peer, 0) + 1
        self._strikes[peer] = strikes
        if strikes > QUARANTINE_AFTER:
            self._pending_growth.discard(peer)
            node.quarantine_peer(peer, "resync-failed-repeatedly")
            return
        probe = node.probe
        if probe is not None:
            probe.emit(
                node.node_id,
                "resync.snapshot_fallback",
                self.SERVICE,
                peer,
                seq,
                self._log.cont.upto_seq,
            )
        self._multicast_snapshot()

    def _multicast_delta(self, peer: str, from_seq: int, from_digest: str) -> None:
        """Queue a certified delta for ``peer`` (materialized at attach).

        At attach time this node has applied every op ordered before the
        delta, so ``entries_after(from_seq)`` is exactly what the target
        is missing.  If the window shrank past ``from_seq`` meanwhile
        (forced prune), the factory degrades to a snapshot.
        """

        def materialize() -> tuple[ResyncDelta | ResyncSnapshot, int]:
            if self._log.digest_at(from_seq) == from_digest:
                entries = tuple(self._log.entries_after(from_seq))
                delta = ResyncDelta(
                    self.SERVICE, peer, from_seq, from_digest, entries
                )
                probe = self.node.probe
                if probe is not None:
                    probe.emit(
                        self.node.node_id,
                        "resync.delta",
                        self.SERVICE,
                        peer,
                        from_seq,
                        len(entries),
                        delta.wire_size(),
                    )
                return delta, delta.wire_size()
            snap = self._materialize_snapshot()
            return snap, snap.wire_size()

        self.node.multicast(DeferredPayload(materialize))

    def _materialize_snapshot(self) -> ResyncSnapshot:
        inner = self._snapshot_payload()
        return ResyncSnapshot(
            self.SERVICE, inner, self._applied_seq, self._log.head_digest
        )

    def _multicast_snapshot(self) -> None:
        def materialize() -> tuple[ResyncSnapshot, int]:
            snap = self._materialize_snapshot()
            return snap, snap.wire_size()

        probe = self.node.probe
        if probe is not None:
            probe.emit(self.node.node_id, "state.snapshot", self.SERVICE)
        self.node.multicast(DeferredPayload(materialize))

    # ------------------------------------------------------------------
    # acks and pruning (the "log burning")
    # ------------------------------------------------------------------
    def _multicast_ack(self) -> None:
        self.node.multicast(
            ResyncAck(
                self.SERVICE,
                self.node.node_id,
                self._applied_seq,
                self._log.head_digest,
            )
        )

    def _handle_ack(self, ack: ResyncAck) -> None:
        sender = ack.sender
        previous = self._acked.get(sender)
        if previous is None or ack.seq >= previous[0]:
            self._acked[sender] = (ack.seq, ack.digest)
        if sender != self.node.node_id and self._synced:
            if sender in self._pending_growth:
                self._reconcile_growth_ack(ack)
            if sender in self._strikes:
                certified = self._log.digest_at(ack.seq)
                if certified is not None and certified == ack.digest:
                    # A certified position is proof of successful resync.
                    del self._strikes[sender]
        self._maybe_prune()

    def _reconcile_growth_ack(self, ack: ResyncAck) -> None:
        """The growth coordinator saw a joiner's position: pick a rung."""
        certified = self._log.digest_at(ack.seq)
        if certified is not None and certified == ack.digest:
            if ack.seq < self._applied_seq:
                self._serve_peer(ack.sender, ack.seq, ack.digest)
            else:
                self._pending_growth.discard(ack.sender)
                if not self._pending_growth:
                    self._cancel_growth_timer()
            return
        # Divergent or out-of-window joiner (typically the other side of a
        # healed split-brain).  The minimum id of the merged view owns the
        # reconciling snapshot — the group id *is* the min member id, so
        # this preserves lower-group-id-wins.  Everyone else defers (their
        # growth timer stays armed as the safety net).
        members = self.node.members
        if members and min(members) == self.node.node_id:
            self._serve_peer(ack.sender, ack.seq, ack.digest)

    def _maybe_prune(self) -> None:
        """Cooperative prune: drop segments every live member acked past.

        Runs at ack delivery — the same stream position on every replica —
        so same-seed runs prune byte-identically.  The floor is the lowest
        ack among the members; one member at or below the horizon already
        settles that nothing burns (the usual case: all but the last ack
        of a round), so the scan stops there.
        """
        members = self.node.members
        if not members or not self._synced:
            return
        acked = self._acked
        horizon = self._log.cont.upto_seq
        floor = 0
        for member in members:
            ack = acked.get(member)
            if ack is None or ack[0] <= horizon:
                return
            if not floor or ack[0] < floor:
                floor = ack[0]
        dropped, freed = self._log.prune_to(floor)
        if dropped:
            self._emit_prune(dropped, freed, forced=False)
            self._emit_buffer_level()

    def _enforce_budget(self) -> None:
        dropped, freed = self._log.force_prune(self.node.config.resync_window_bytes)
        if dropped:
            self._emit_prune(dropped, freed, forced=True)

    def _emit_prune(self, segments: int, freed: int, forced: bool) -> None:
        probe = self.node.probe
        if probe is not None:
            probe.emit(
                self.node.node_id,
                "resync.prune",
                self.SERVICE,
                self._log.cont.upto_seq,
                segments,
                freed,
                forced,
            )

    def _emit_buffer_level(self) -> None:
        probe = self.node.probe
        if probe is not None:
            probe.emit(
                self.node.node_id,
                "resync.buffer",
                "replica:" + self.SERVICE,
                self._log.buffered_bytes(),
                self.node.config.resync_window_bytes,
            )

    # ------------------------------------------------------------------
    # lifecycle: a restart is amnesia
    # ------------------------------------------------------------------
    def on_state_change(self, old: NodeState, new: NodeState) -> None:
        if new is NodeState.DOWN:
            # Crash/shutdown: a timer left armed here would fire on the
            # dead node and try to multicast.
            self._cancel_sync_timer()
            self._clear_growth()
            return
        if old is not NodeState.DOWN or new is not NodeState.JOINING:
            return
        # The node is starting (or restarting).  A real crashed process
        # lost its replica — state machine and log; trusting the pre-crash
        # `_synced` flag silently serves — and extends — stale state after
        # rejoin.  Re-enter the unsynced protocol; the local state stays
        # readable but the next snapshot or certified delta overwrites it
        # wholesale.  A founding singleton is re-synced immediately by the
        # first view change.
        self.forget()
        self._last_view = ()

    # ------------------------------------------------------------------
    # membership handling
    # ------------------------------------------------------------------
    def on_view_change(self, view: ViewChange) -> None:
        if self.node.node_id not in view.members:
            # We were dropped from the view (departure, eviction, stale
            # back-to-back view churn): a sync timer left armed here would
            # fire after we are gone and multicast into the wrong group.
            self._last_view = view.members
            self._cancel_sync_timer()
            self._clear_growth()
            return
        previous = self._last_view
        self._last_view = view.members
        for peer in list(self._pending_growth):
            if peer not in view.members:
                self._pending_growth.discard(peer)
        if self._synced is None:
            # Founding singleton: trivially synced (the group IS us).
            self._synced = len(view.members) == 1
        if not self._synced and len(view.members) == 1:
            # We became a singleton group: our local state is, by
            # definition, the whole group's state now.
            self._synced = True
            self._buffer.clear()
            self._cancel_sync_timer()
        if not self._synced:
            self._arm_sync_timer()
            return
        added = set(view.members) - set(previous)
        if not added or previous == ():
            return
        # Advertise our certified position: the growth coordinator (and a
        # merged-in peer's own coordinator) serves certified deltas from
        # these acks instead of unconditional full snapshots.
        self._multicast_ack()
        # Resync coordination falls to the lowest-id *survivor* of the
        # previous view — it witnessed the order the joiners missed.
        # min(members) may be a stale rejoiner whose own view diff is empty.
        survivors = set(previous) & set(view.members)
        sender = min(survivors) if survivors else min(view.members)
        if self.node.node_id != sender:
            return
        self._pending_growth.update(added)
        self._arm_growth_timer()

    # ------------------------------------------------------------------
    # growth coordination
    # ------------------------------------------------------------------
    def _arm_growth_timer(self) -> None:
        self._cancel_growth_timer()
        self._growth_timer = self.node.loop.call_later(
            GROWTH_DEFER_RETRIES * self.node.config.join_retry,
            self._growth_tick,
        )

    def _cancel_growth_timer(self) -> None:
        if self._growth_timer is not None:
            self._growth_timer.cancel()
            self._growth_timer = None

    def _clear_growth(self) -> None:
        self._pending_growth.clear()
        self._cancel_growth_timer()

    def _growth_tick(self) -> None:
        """Deferral expired with unresolved joiners: snapshot fallback."""
        self._growth_timer = None
        if (
            not self._synced
            or not self._pending_growth
            or not self.node.is_member
        ):
            return
        # A pending peer that acked *ahead* of us knows strictly more than
        # we do: we have nothing to teach it, and snapshotting our own
        # state would overwrite the longer history with our stale one (the
        # merged-back-singleton trap).  Its catch-up flows the other way —
        # the majority's coordinator serves *us*.  Fresh joiners acked at 0
        # (or never acked) and stay eligible.
        pending = [
            peer
            for peer in sorted(self._pending_growth)
            if self._acked.get(peer, (0, ""))[0] <= self._applied_seq
        ]
        self._pending_growth.clear()
        if not pending:
            return
        probe = self.node.probe
        if probe is not None:
            for peer in pending:
                acked = self._acked.get(peer, (0, ""))[0]
                probe.emit(
                    self.node.node_id,
                    "resync.snapshot_fallback",
                    self.SERVICE,
                    peer,
                    acked,
                    self._log.cont.upto_seq,
                )
        self._multicast_snapshot()

    # ------------------------------------------------------------------
    # anti-entropy for unsynced replicas
    # ------------------------------------------------------------------
    def _arm_sync_timer(self) -> None:
        if self._sync_timer is not None:
            return
        # The first request goes out quickly (a joiner's common case: the
        # coordinator is waiting for our position); retries back off.
        retries = 1.0 if self._sync_requests_sent == 0 else 2.0
        self._sync_timer = self.node.loop.call_later(
            retries * self.node.config.join_retry, self._sync_tick
        )

    def _cancel_sync_timer(self) -> None:
        if self._sync_timer is not None:
            self._sync_timer.cancel()
            self._sync_timer = None
        self._sync_requests_sent = 0

    def _sync_tick(self) -> None:
        from repro.core.states import NodeState

        self._sync_timer = None
        if self.node.state is NodeState.DOWN:
            return  # a restart's first view change re-arms us
        if self._synced or not self.node.is_member:
            if not self._synced:
                self._arm_sync_timer()  # not even a member yet; keep waiting
            return
        members = self.node.members
        if (
            self._sync_requests_sent >= SELF_DECLARE_AFTER
            and members
            and min(members) == self.node.node_id
        ):
            # Nobody in the group could answer: the whole group is
            # unsynced.  As its minimum-id member, declare our local state
            # authoritative and publish it — deterministic and terminal.
            self._synced = True
            self._buffer.clear()
            self._sync_requests_sent = 0
            self._multicast_snapshot()
            return
        self._sync_requests_sent += 1
        probe = self.node.probe
        if probe is not None:
            probe.emit(self.node.node_id, "state.sync_request", self.SERVICE)
        self.node.multicast(
            SyncRequest(
                self.SERVICE,
                self.node.node_id,
                self._applied_seq,
                self._log.head_digest,
            )
        )
        self._arm_sync_timer()
