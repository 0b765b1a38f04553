"""Reference multicast model: receipt bookkeeping per *message*.

This is the token payload model and the ``MulticastService`` visit passes
that ``repro.core`` shipped before receipt state moved to the pack: every
message owns its ``audience`` / ``pending`` / ``confirmed``, every pass
walks every message, the hold queue flags each entry, duplicates are keyed
on a per-message uid, local copies are full deep copies and ``wire_size``
is summed from scratch.  It is slow on purpose — there is nothing shared
between messages to get wrong — and exists so
``test_multicast_equivalence.py`` can drive one schedule through both
models and demand the same deliveries, probes, wire sizes and retire
points.

Only protocol constants and the value types that cross the API
(``Ordering``, ``Delivery``, ``DeferredPayload``) are imported from the
production tree.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from repro.core.events import Delivery
from repro.core.multicast import DEFAULT_PAYLOAD_SIZE, SEEN_WINDOW, DeferredPayload
from repro.core.token import MEMBER_ENTRY, MSG_HEADER, TOKEN_HEADER, Ordering

_uid = itertools.count(1)


@dataclass
class ReferenceMessage:
    origin: str
    msg_no: int
    payload: object
    size: int
    ordering: Ordering = Ordering.AGREED
    audience: frozenset = frozenset()
    pending: set = field(default_factory=set)
    confirmed: bool = False
    uid: int = field(default_factory=lambda: next(_uid))

    def key(self) -> tuple[str, int]:
        return (self.origin, self.msg_no)


@dataclass
class ReferenceToken:
    membership: tuple = ()
    messages: list = field(default_factory=list)
    gen: str = ""

    def wire_size(self) -> int:
        return (
            TOKEN_HEADER
            + MEMBER_ENTRY * len(self.membership)
            + sum(MSG_HEADER + m.size for m in self.messages)
        )

    def message_count(self) -> int:
        return len(self.messages)

    def remove_member(self, node_id: str) -> None:
        if node_id not in self.membership:
            return
        self.membership = tuple(m for m in self.membership if m != node_id)
        for msg in self.messages:
            msg.pending.discard(node_id)

    def snapshot(self) -> "ReferenceToken":
        return ReferenceToken(
            membership=self.membership,
            messages=[
                ReferenceMessage(
                    m.origin, m.msg_no, m.payload, m.size, m.ordering,
                    m.audience, set(m.pending), m.confirmed, m.uid,
                )
                for m in self.messages
            ],
            gen=self.gen,
        )

    def receipt_state(self) -> list[tuple]:
        return [
            (m.key(), m.audience, frozenset(m.pending), m.confirmed)
            for m in self.messages
        ]


def reference_merge(
    tbm: ReferenceToken, own: ReferenceToken, ring: tuple, gen: str
) -> ReferenceToken:
    """The payload half of ``MergeProtocol.merge_with_own``."""
    merged = ReferenceToken(ring, list(tbm.messages) + list(own.messages), gen)
    alive = set(ring)
    for msg in merged.messages:
        msg.pending &= alive
    return merged


@dataclass
class _Held:
    uid: int
    origin: str
    msg_no: int
    payload: object
    ordering: Ordering
    deliverable: bool


class ReferenceMulticast:
    """``MulticastService`` with one receipt set, flag and uid per message."""

    def __init__(self, node) -> None:
        self.node = node
        self._msg_no = itertools.count(1)
        self._outbox: deque[ReferenceMessage] = deque()
        self._hold: deque[_Held] = deque()
        self._seen: set[int] = set()
        self._seen_fifo: deque[int] = deque()

    def multicast(self, payload, size=None, ordering=Ordering.AGREED):
        if size is None:
            try:
                size = len(payload)
            except TypeError:
                size = DEFAULT_PAYLOAD_SIZE
        msg_no = next(self._msg_no)
        self._outbox.append(
            ReferenceMessage(self.node.node_id, msg_no, payload, size, ordering)
        )
        self.node.stats.messages_multicast += 1
        return (self.node.node_id, msg_no)

    def reset(self) -> None:
        self._outbox.clear()
        self._hold.clear()

    def on_token(self, token: ReferenceToken) -> None:
        self._receive_pass(token)
        self._retire_pass(token)
        self._drain_deliverable()
        self._attach_pass(token)
        self._drain_deliverable()

    def _receive_pass(self, token: ReferenceToken) -> None:
        me = self.node.node_id
        for msg in token.messages:
            if me not in msg.pending:
                if msg.confirmed:
                    self._mark_confirmed(msg.uid)
                continue
            if msg.confirmed:
                msg.pending.discard(me)
                if not self._remember(msg.uid):
                    self._mark_confirmed(msg.uid)
                    continue
                self._hold.append(
                    _Held(msg.uid, msg.origin, msg.msg_no, msg.payload,
                          msg.ordering, deliverable=True)
                )
                continue
            msg.pending.discard(me)
            if not self._remember(msg.uid):
                continue
            self._hold.append(
                _Held(msg.uid, msg.origin, msg.msg_no, msg.payload, msg.ordering,
                      deliverable=(msg.ordering is Ordering.AGREED))
            )

    def _retire_pass(self, token: ReferenceToken) -> None:
        surviving = []
        current = None
        for msg in token.messages:
            if msg.pending:
                surviving.append(msg)
                continue
            if msg.ordering is Ordering.AGREED:
                continue
            if not msg.confirmed:
                msg.confirmed = True
                probe = self.node.probe
                if probe is not None:
                    probe.emit(
                        self.node.node_id, "mcast.confirm", msg.origin, msg.msg_no
                    )
                if current is None:
                    current = set(token.membership)
                msg.pending = set(msg.audience) & current
                if msg.pending:
                    surviving.append(msg)
                continue
        token.messages = surviving
        me = self.node.node_id
        for msg in surviving:
            if msg.confirmed and me in msg.pending:
                msg.pending.discard(me)
                self._mark_confirmed(msg.uid)

    def _attach_pass(self, token: ReferenceToken) -> None:
        me = self.node.node_id
        budget = self.node.config.max_batch_per_visit
        byte_cap = self.node.config.max_token_bytes
        members = set(token.membership)
        while self._outbox and budget > 0:
            head = self._outbox[0]
            projected = token.wire_size() + MSG_HEADER + head.size
            if projected > byte_cap and token.messages:
                break
            msg = self._outbox.popleft()
            budget -= 1
            if isinstance(msg.payload, DeferredPayload):
                payload, size = msg.payload.factory()
                msg.payload = payload
                msg.size = size
            msg.audience = frozenset(members)
            msg.pending = set(members) - {me}
            token.messages.append(msg)
            probe = self.node.probe
            if probe is not None:
                probe.emit(
                    me, "mcast.attach", msg.origin, msg.msg_no,
                    msg.ordering.value, msg.size, len(msg.audience), token.gen,
                )
            self._remember(msg.uid)
            self._hold.append(
                _Held(msg.uid, msg.origin, msg.msg_no, msg.payload, msg.ordering,
                      deliverable=(msg.ordering is Ordering.AGREED))
            )
            if msg.ordering is Ordering.SAFE and not msg.pending:
                msg.confirmed = True
                if probe is not None:
                    probe.emit(me, "mcast.confirm", msg.origin, msg.msg_no)
                msg.pending = {me}

    def _mark_confirmed(self, uid: int) -> None:
        for held in self._hold:
            if held.uid == uid:
                held.deliverable = True
                return

    def _drain_deliverable(self) -> None:
        listener = self.node.listener
        now = self.node.loop.now
        probe = self.node.probe
        while self._hold and self._hold[0].deliverable:
            held = self._hold.popleft()
            self.node.stats.messages_delivered += 1
            if probe is not None:
                probe.emit(
                    self.node.node_id, "mcast.deliver",
                    held.origin, held.msg_no, held.ordering.value,
                )
            listener.on_deliver(
                Delivery(held.origin, held.msg_no, held.payload, held.ordering, now)
            )

    def _remember(self, uid: int) -> bool:
        if uid in self._seen:
            return False
        self._seen.add(uid)
        self._seen_fifo.append(uid)
        if len(self._seen_fifo) > SEEN_WINDOW:
            self._seen.discard(self._seen_fifo.popleft())
        return True
