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

The hold queue is pack-granular: each entry is a *run*, a pack's fresh
messages with consecutive ``msg_no``s (a whole pack as a rule; the rare
pack that duplicate suppression leaves with gaps is split into runs).
The messages of one pack share one SAFE wait status, so beside the queue
one set names the first message of each held run still waiting for
confirmation, and the drain tests one message per run.  Receiving a pack
appends one entry; draining delivers run by run, and a run leaves the
queue only once all of it has been delivered.

Duplicate suppression by the wire identity ``(origin, msg_no)`` makes
delivery idempotent across 911 token regeneration, which may legitimately
replay a recent token state.  A node remembers each origin's seen
``msg_no``s as sorted, disjoint, half-open spans, not id by id.  An
origin's packs reach a node in ``msg_no`` order, each a run of consecutive
numbers, so a pack that starts at or past the last span's end is fresh as
a whole: it extends that span or opens the next one.  Anything else (a
replayed, forged or non-consecutive pack) is checked and inserted message
by message, with the semantics of a set.  At most :data:`SEEN_SPANS`
spans are kept per origin; past it the lowest is forgotten first.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.events import Delivery
from repro.core.token import MSG_HEADER, Ordering, PiggybackedMessage, Rider, Token
from repro.transport.spans import add_seen as _add_seen

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.session import RaincoreNode

__all__ = ["MulticastService", "DeferredPayload"]

#: Default modelled payload size when the payload's type has no ``__len__``
#: (bytes).
DEFAULT_PAYLOAD_SIZE = 64

#: ``Delivery(...)`` is ``tuple.__new__(Delivery, fields)`` behind the frame
#: of a generated ``__new__``; the hot drain calls the builtin itself.
_new_tuple = tuple.__new__

#: Most spans of seen ``msg_no``s remembered per origin.  Traffic keeps
#: one span per origin (a crash or partition leaves a gap or two); the cap
#: only stops a hostile gap pattern from growing the state without bound.
SEEN_SPANS = 1024


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
        #: Held runs in token order: each a sequence of one origin's
        #: messages with consecutive ``msg_no``s and one ordering.
        self._hold: deque[Sequence[Rider]] = deque()
        #: Identities of the first messages of held SAFE runs not yet
        #: confirmed; the hold queue drains up to the first run named here.
        self._waiting: set[tuple[str, int]] = set()
        #: Duplicate suppression: origin -> the msg_nos seen, as a flat
        #: sorted list of half-open spans ``[start0, end0, start1, ...]``,
        #: so ``no`` was seen iff ``bisect_right(spans, no)`` is odd.
        self._seen: dict[str, list[int]] = {}
        #: A drain is running (see :meth:`_drain_deliverable`).
        self._draining = False

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

        The message is attached to the token when it next leaves this
        node: at the end of the current hold if this node holds it now.
        Returns the multicast identity ``(origin, msg_no)``.  ``size`` is
        the modelled wire size in bytes; defaults to ``len(payload)`` when
        the payload's type has a ``__len__``, else ``DEFAULT_PAYLOAD_SIZE``.
        """
        if size is None:
            # A type test, not ``len()`` and a caught TypeError: most
            # payloads (the data layer's ops) have no length, and raising
            # costs more than the multicast itself.
            if hasattr(type(payload), "__len__"):
                size = len(payload)  # type: ignore[arg-type]
            else:
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

        The seen spans are kept: a rejoining incarnation must still ignore
        replays of messages it received before the crash.
        """
        self._outbox.clear()
        self._hold.clear()
        self._waiting.clear()

    # ------------------------------------------------------------------
    # token-visit pipeline (called by RaincoreNode while EATING)
    # ------------------------------------------------------------------
    def on_token(self, token: Token) -> None:
        """The visit's arrival half: receive, confirm/retire, deliver.

        Runs when the token arrives.  Nothing is attached here: the outbox
        stays open through the hold and leaves with the token
        (:meth:`on_depart`).  An idle visit (empty token, empty hold
        queue) does nothing.
        """
        if token.messages:
            self._receive_pass(token)
            self._retire_pass(token)
        if self._hold:
            self._drain_deliverable()

    def on_depart(self, token: Token) -> None:
        """The visit's departure half: attach the outbox, deliver own.

        Runs as the hold ends, just before the token is forwarded, so a
        message queued at any point of the hold still catches this token.
        Nothing is delivered to the holder during its hold, so the arrival
        half's drain is still the last delivery before the attach: a
        message attached here is ordered after — and its
        :class:`DeferredPayload` factory observes — every delivery that
        precedes it in the total order.  The drain after the attach
        delivers this node's own fresh messages.
        """
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
        outbox = self._outbox
        budget = node.config.max_batch_per_visit
        byte_cap = node.config.max_token_bytes
        audience = frozenset(token.membership)
        others = audience - {me}
        wire = token.wire_size()
        loaded = bool(token.messages)
        pack: PiggybackedMessage | None = None
        riders: list[Rider] = []
        run_bytes = 0  # payload bytes of the open pack
        while outbox and budget > 0:
            # Flow control: never grow the token past the byte budget; the
            # head message waits for a later (lighter) visit.  A single
            # oversized message still attaches onto an otherwise-empty
            # token rather than deadlocking.
            if wire + MSG_HEADER + outbox[0].size > byte_cap and loaded:
                break
            msg = outbox.popleft()
            budget -= 1
            if pack is not None and msg.ordering is not pack.ordering:
                # An AGREED<->SAFE switch closes the pack before the next
                # message is materialized.
                self._couple(token, pack, riders, run_bytes)
                pack = None
                riders = []
            if isinstance(msg.payload, DeferredPayload):
                msg.payload, msg.size = msg.payload.factory()
            wire += MSG_HEADER + msg.size
            loaded = True
            if pack is None:
                # The first message of the visit, or of an ordering switch,
                # opens a pack; the rest of the run rides with it.
                pack = PiggybackedMessage(
                    msg.origin, msg.msg_no, msg.payload, msg.size, msg.ordering,
                    audience, set(others),
                )
                run_bytes = msg.size
                if msg.ordering is Ordering.SAFE and not others:
                    # Singleton group: received by all (just us); confirm
                    # now, deliver via phase 2 on the next self-visit.
                    pack.confirmed = True
                    pack.pending = {me}
            else:
                riders.append(msg)
                run_bytes += msg.size
        if pack is not None:
            self._couple(token, pack, riders, run_bytes)

    def _couple(
        self,
        token: Token,
        pack: PiggybackedMessage,
        riders: list[Rider],
        run_bytes: int,
    ) -> None:
        """Close ``pack`` over its ``riders`` and attach it to the token.

        The originator receives its own messages at attach time; this
        keeps local delivery order identical to token order.  With a probe
        attached, one ``mcast.attach`` covers the pack: ``count`` messages
        from ``msg_no`` on, ``run_bytes`` of payload between them.  It is
        the root of each covered multicast's causal span; the token's
        lineage id links it to the hops that will carry it.
        """
        pack.riders = tuple(riders)
        node = self.node
        probe = node.probe
        if probe is not None:
            me = node.node_id
            probe.emit(
                me, "mcast.attach", pack.origin, pack.msg_no, pack.ordering.label,
                1 + len(riders), run_bytes, len(pack.audience), token.gen,
            )
            if pack.confirmed:
                for msg in pack.unpack():
                    probe.emit(me, "mcast.confirm", msg.origin, msg.msg_no)
        token.attach_message(pack)
        self._hold_pack(pack, waiting=pack.ordering is Ordering.SAFE)

    # ------------------------------------------------------------------
    # ordered local delivery
    # ------------------------------------------------------------------
    def _hold_pack(self, pack: PiggybackedMessage, waiting: bool) -> None:
        """Buffer the pack's not-yet-seen messages, in token order.

        The usual fresh pack becomes one run of the hold queue; one that
        duplicate suppression leaves with gaps becomes one run per
        consecutive stretch.  ``waiting`` names the runs as SAFE messages
        whose confirmation is still to come.
        """
        origin = pack.origin
        first = pack.msg_no
        msgs = pack.unpack()
        spans = self._seen.get(origin)
        if spans is None:
            spans = self._seen[origin] = []
        if (not spans or first >= spans[-1]) and _is_run(msgs, first):
            # The usual case: the origin's next run, fresh as a whole.
            end = first + len(msgs)
            if spans and spans[-1] == first:
                spans[-1] = end
            else:
                spans += (first, end)
            self._hold.append(msgs)
            if waiting:
                self._waiting.add((origin, first))
        else:
            for run in _runs([m for m in msgs if _add_seen(spans, m.msg_no)]):
                self._hold.append(run)
                if waiting:
                    self._waiting.add((origin, run[0].msg_no))
        if len(spans) > 2 * SEEN_SPANS:
            del spans[: len(spans) - 2 * SEEN_SPANS]

    def _release(self, pack: PiggybackedMessage) -> None:
        """A confirmed SAFE pack: whatever we hold of it may now deliver."""
        waiting = self._waiting
        if waiting:
            waiting.difference_update(m.key() for m in pack.unpack())

    def _drain_deliverable(self) -> None:
        """Deliver the hold queue's deliverable prefix, run by run.

        The prefix ends at the first run whose first message is a SAFE
        message still waiting for confirmation.  A run is popped only once
        it has been delivered whole: a listener may restart the node
        mid-run, which empties the queue and stops the drain there, and
        only the deliveries that happened are counted.

        With a probe attached, one ``mcast.deliver`` covers each maximal
        run of consecutive ``msg_no``s from one origin with one ordering
        (held runs that continue one another join): it is emitted when the
        run closes — before the first delivery that does not continue it,
        or when the drain stops — so ``count`` only counts deliveries that
        happened.  Every delivery of a drain shares one ``now``, so
        expanding the runs gives back each message's delivery exactly.
        """
        if self._draining:
            # A listener re-entered the pipeline (a leave mid-drain runs the
            # departure half): the drain already running delivers the rest.
            return
        hold = self._hold
        waiting = self._waiting
        node = self.node
        on_deliver = node.listener.on_deliver
        now = node.loop.now
        probe = node.probe
        delivered = 0
        before = 0  # deliveries made before the current held run
        run: Sequence[Rider] = ()
        head: Rider | None = None  # the open delivery run's first message
        end = 0  # the msg_no that would continue it
        self._draining = True
        try:
            while hold:
                run = hold[0]
                before = delivered
                msg = run[0]
                if waiting and (msg.origin, msg.msg_no) in waiting:
                    break
                if probe is not None and (
                    head is None
                    or msg.msg_no != end
                    or msg.origin != head.origin
                    or msg.ordering is not head.ordering
                ):
                    if head is not None:
                        self._emit_run(probe, head, end)
                    head = msg
                for msg in run:
                    delivered += 1
                    on_deliver(
                        _new_tuple(
                            Delivery,
                            (msg.origin, msg.msg_no, msg.payload, msg.ordering, now),
                        )
                    )
                    if not hold:
                        break  # the node restarted: nothing is held any more
                end = run[0].msg_no + delivered - before
                if not hold:
                    break
                hold.popleft()
        except BaseException:
            # A listener raised: what it was handed is spent, as when the
            # queue held single messages popped before their delivery.
            if hold and hold[0] is run:
                rest = run[delivered - before :]
                if rest:
                    hold[0] = rest
                else:
                    hold.popleft()
            raise
        finally:
            self._draining = False
            node.stats.messages_delivered += delivered
        if head is not None:
            self._emit_run(probe, head, end)

    def _emit_run(self, probe, first: Rider, end: int) -> None:
        probe.emit(
            self.node.node_id, "mcast.deliver", first.origin, first.msg_no,
            first.ordering.label, end - first.msg_no,
        )


def _is_run(msgs: Sequence[Rider], first: int) -> bool:
    """Whether ``msgs`` are numbered ``first``, ``first + 1``, ... in order."""
    for msg in msgs:
        if msg.msg_no != first:
            return False
        first += 1
    return True


def _runs(msgs: list[Rider]) -> list[list[Rider]]:
    """``msgs`` cut into maximal stretches of consecutive ``msg_no``s."""
    runs: list[list[Rider]] = []
    for msg in msgs:
        if runs and msg.msg_no == runs[-1][-1].msg_no + 1:
            runs[-1].append(msg)
        else:
            runs.append([msg])
    return runs
