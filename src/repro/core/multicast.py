"""Reliable atomic multicast over the token — paper §2.6.

    "The token ring protocol also serves as a 'locomotive' for the reliable
    multicast transport.  In other words, reliable multicast is achieved by
    piggybacking the messages to the token, while the token traverses the
    ring."

Semantics implemented here (see DESIGN.md §6.2 for the bookkeeping scheme):

* **Atomicity** — every *pack* (the run of same-ordering messages one node
  attaches at one visit) tracks the audience members that have not yet
  received it; membership removals prune the set, so a message is
  received by every *surviving* audience member or (if the whole audience
  is gone) by none beyond those already reached.
* **Agreed ordering** (free) — all nodes deliver all messages in token
  attach order.  To keep the order uniform even when AGREED and SAFE
  messages interleave, each node buffers received messages in a local hold
  queue in token order and delivers only a deliverable *prefix*: an AGREED
  message behind a not-yet-confirmed SAFE message waits for it (the same
  discipline Totem uses).
* **Safe ordering** (one extra token round, paper §2.6) — a SAFE pack is
  received by every audience member during its first round; the node that
  observes the receipt set empty marks it CONFIRMED and re-arms the set,
  and members deliver during the second round.

The hold queue holds the message objects themselves; beside it one set
names the held SAFE messages still waiting for confirmation, so the common
all-AGREED visit moves a pack into the queue with one ``extend`` and drains
it without a per-message flag.

Duplicate suppression by the wire identity ``(origin, msg_no)`` makes
delivery idempotent across 911 token regeneration, which may legitimately
replay a recent token state.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.core.events import Delivery
from repro.core.token import MSG_HEADER, Ordering, PiggybackedMessage, Rider, Token

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.session import RaincoreNode

__all__ = ["MulticastService", "DeferredPayload"]

#: Default modelled payload size when the payload has no length (bytes).
DEFAULT_PAYLOAD_SIZE = 64

#: Bound on remembered message identities for duplicate suppression.
SEEN_WINDOW = 65536


class DeferredPayload:
    """A payload materialized at token-attach time.

    The attach point *is* the message's position in the group's total
    order, and by then this node has delivered every message ordered before
    it.  A factory evaluated at attach therefore captures state consistent
    with the message's position — which is exactly what replicated-state
    snapshots (the Data Service's join-time state transfer) need.

    ``factory`` returns ``(payload, size_in_bytes)``.
    """

    __slots__ = ("factory",)

    def __init__(self, factory: Callable[[], tuple[object, int]]) -> None:
        self.factory = factory


class MulticastService:
    """Per-node multicast send queue, receipt tracking and ordered delivery."""

    def __init__(self, node: "RaincoreNode") -> None:
        self.node = node
        self._msg_no = itertools.count(1)
        self._outbox: deque[Rider] = deque()
        self._hold: deque[Rider] = deque()
        #: Identities of held SAFE messages not yet confirmed; the hold
        #: queue drains up to the first message named here.
        self._waiting: set[tuple[str, int]] = set()
        #: Duplicate-suppression window: origin -> msg_nos seen, evicted a
        #: pack at a time in arrival order once more than SEEN_WINDOW.  The
        #: inner dicts are used as sets: a CPython dict keeps int keys at
        #: 30-50 bytes each, where a set quadruples as it grows and swings
        #: between 30 and 105 — eight origins' worth decides peak RSS.
        self._seen: dict[str, dict[int, None]] = {}
        self._seen_fifo: deque[tuple[dict[int, None], list[int]]] = deque()
        self._seen_n = 0

    # ------------------------------------------------------------------
    # public API (called by the application through RaincoreNode)
    # ------------------------------------------------------------------
    def multicast(
        self,
        payload: object,
        size: int | None = None,
        ordering: Ordering = Ordering.AGREED,
    ) -> tuple[str, int]:
        """Queue ``payload`` for reliable multicast to the group.

        The message is attached to the token on this node's next visit.
        Returns the multicast identity ``(origin, msg_no)``.  ``size`` is
        the modelled wire size in bytes; defaults to ``len(payload)`` for
        sized payloads, else ``DEFAULT_PAYLOAD_SIZE``.
        """
        if size is None:
            try:
                size = len(payload)  # type: ignore[arg-type]
            except TypeError:
                size = DEFAULT_PAYLOAD_SIZE
        if size < 0:
            raise ValueError("size must be non-negative")
        node = self.node
        msg_no = next(self._msg_no)
        self._outbox.append(Rider(node.node_id, msg_no, payload, size, ordering))
        node.stats.messages_multicast += 1
        return (node.node_id, msg_no)

    def outbox_depth(self) -> int:
        """Messages queued locally, not yet attached to the token."""
        return len(self._outbox)

    def reset(self) -> None:
        """Drop queued and held messages (node restart).

        The duplicate-suppression window is kept: a rejoining incarnation
        must still ignore replays of messages it received before the crash.
        """
        self._outbox.clear()
        self._hold.clear()
        self._waiting.clear()

    # ------------------------------------------------------------------
    # token-visit pipeline (called by RaincoreNode while EATING)
    # ------------------------------------------------------------------
    def on_token(self, token: Token) -> None:
        """Process one token visit: receive, confirm/retire, deliver, attach.

        Draining *before* the attach pass guarantees that a message attached
        this visit is ordered after — and its :class:`DeferredPayload`
        factory observes — every delivery that precedes it in the total
        order.  A second drain delivers this node's own fresh messages.
        An idle visit (empty token, empty hold queue, empty outbox) does
        nothing.
        """
        if token.messages:
            self._receive_pass(token)
            self._retire_pass(token)
        if self._hold:
            self._drain_deliverable()
        if self._outbox:
            self._attach_pass(token)
            self._drain_deliverable()

    def _receive_pass(self, token: Token) -> None:
        me = self.node.node_id
        for pack in token.messages:
            pending = pack.pending
            if me not in pending:
                # Not (or no longer) addressed to us this phase; but a SAFE
                # pack we already hold may have become confirmed.
                if pack.confirmed:
                    self._release(pack)
                continue
            pending.discard(me)
            if pack.confirmed:
                # SAFE phase 2: everyone has received it; deliverable now.
                self._hold_pack(pack, waiting=False)
                self._release(pack)
            else:
                # Phase 1 receipt (AGREED: also the delivery phase).
                self._hold_pack(pack, waiting=pack.ordering is Ordering.SAFE)

    def _retire_pass(self, token: Token) -> None:
        node = self.node
        me = node.node_id
        surviving: list[PiggybackedMessage] = []
        retired: list[PiggybackedMessage] = []
        current: set[str] | None = None
        for pack in token.messages:
            if pack.pending:
                surviving.append(pack)
                continue
            if pack.ordering is Ordering.SAFE and not pack.confirmed:
                # First round complete — every audience member holds it.
                # Confirm and start the delivery round (paper: "the TOKEN
                # travels one more round").
                pack.confirmed = True
                probe = node.probe
                if probe is not None:
                    for msg in pack.unpack():
                        probe.emit(me, "mcast.confirm", msg.origin, msg.msg_no)
                if current is None:
                    current = set(token.membership)
                pack.pending = current & pack.audience
                if pack.pending:
                    surviving.append(pack)
                    # The confirmation happened at this very node, after
                    # its receive pass: take our phase-2 step now so
                    # delivery needs exactly one more round, not two.
                    if me in pack.pending:
                        pack.pending.discard(me)
                        self._release(pack)
                    continue
                # An empty re-armed set means the whole audience is gone:
                # retire immediately.
            # AGREED fully received (== fully delivered), or SAFE with its
            # second round done: retire.
            retired.append(pack)
        if retired:
            token.retire_messages(retired, surviving)

    def _attach_pass(self, token: Token) -> None:
        node = self.node
        me = node.node_id
        probe = node.probe
        outbox = self._outbox
        budget = node.config.max_batch_per_visit
        byte_cap = node.config.max_token_bytes
        audience = frozenset(token.membership)
        others = audience - {me}
        wire = token.wire_size()
        loaded = bool(token.messages)
        pack: PiggybackedMessage | None = None
        riders: list[Rider] = []
        while outbox and budget > 0:
            # Flow control: never grow the token past the byte budget; the
            # head message waits for a later (lighter) visit.  A single
            # oversized message still attaches onto an otherwise-empty
            # token rather than deadlocking.
            if wire + MSG_HEADER + outbox[0].size > byte_cap and loaded:
                break
            msg = outbox.popleft()
            budget -= 1
            if isinstance(msg.payload, DeferredPayload):
                msg.payload, msg.size = msg.payload.factory()
            wire += MSG_HEADER + msg.size
            loaded = True
            if pack is None or msg.ordering is not pack.ordering:
                # The first message of the visit, or an AGREED<->SAFE
                # switch, opens a pack; the rest of the run rides with it.
                if pack is not None:
                    self._couple(token, pack, riders)
                    riders = []
                pack = PiggybackedMessage(
                    msg.origin, msg.msg_no, msg.payload, msg.size, msg.ordering,
                    audience, set(others),
                )
                if msg.ordering is Ordering.SAFE and not others:
                    # Singleton group: received by all (just us); confirm
                    # now, deliver via phase 2 on the next self-visit.
                    pack.confirmed = True
                    pack.pending = {me}
            else:
                riders.append(msg)
            if probe is not None:
                # The attach is the root of the multicast's causal span
                # (origin, msg_no); the token's lineage id links it to the
                # hops that will carry it.
                probe.emit(
                    me,
                    "mcast.attach",
                    msg.origin,
                    msg.msg_no,
                    msg.ordering.value,
                    msg.size,
                    len(audience),
                    token.gen,
                )
                if pack.confirmed:
                    probe.emit(me, "mcast.confirm", msg.origin, msg.msg_no)
        if pack is not None:
            self._couple(token, pack, riders)

    def _couple(
        self, token: Token, pack: PiggybackedMessage, riders: list[Rider]
    ) -> None:
        """Close ``pack`` over its ``riders`` and attach it to the token.

        The originator receives its own messages at attach time; this
        keeps local delivery order identical to token order.
        """
        pack.riders = tuple(riders)
        token.attach_message(pack)
        self._hold_pack(pack, waiting=pack.ordering is Ordering.SAFE)

    # ------------------------------------------------------------------
    # ordered local delivery
    # ------------------------------------------------------------------
    def _hold_pack(self, pack: PiggybackedMessage, waiting: bool) -> None:
        """Buffer the pack's not-yet-seen messages, in token order.

        ``waiting`` names them as SAFE messages whose confirmation is
        still to come.
        """
        origin = pack.origin
        seen = self._seen.get(origin)
        if seen is None:
            seen = self._seen[origin] = {}
        fresh = [m for m in pack.unpack() if m.msg_no not in seen]
        if not fresh:
            return
        nos = [m.msg_no for m in fresh]
        seen.update(dict.fromkeys(nos))
        fifo = self._seen_fifo
        fifo.append((seen, nos))
        self._seen_n += len(nos)
        while self._seen_n > SEEN_WINDOW:
            old_seen, old_nos = fifo.popleft()
            for no in old_nos:
                del old_seen[no]
            self._seen_n -= len(old_nos)
        self._hold.extend(fresh)
        if waiting:
            self._waiting.update((origin, no) for no in nos)

    def _release(self, pack: PiggybackedMessage) -> None:
        """A confirmed SAFE pack: whatever we hold of it may now deliver."""
        waiting = self._waiting
        if waiting:
            waiting.difference_update(m.key() for m in pack.unpack())

    def _drain_deliverable(self) -> None:
        hold = self._hold
        waiting = self._waiting
        node = self.node
        me = node.node_id
        stats = node.stats
        on_deliver = node.listener.on_deliver
        now = node.loop.now
        probe = node.probe
        while hold:
            msg = hold[0]
            if waiting and (msg.origin, msg.msg_no) in waiting:
                return
            hold.popleft()
            stats.messages_delivered += 1
            if probe is not None:
                probe.emit(
                    me, "mcast.deliver", msg.origin, msg.msg_no, msg.ordering.value
                )
            on_deliver(Delivery(msg.origin, msg.msg_no, msg.payload, msg.ordering, now))
