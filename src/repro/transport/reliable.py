"""Atomic reliable unicast with failure-on-delivery — paper §2.1.

The Raincore Transport Service differs from TCP in three ways the paper
enumerates, all reflected here:

1. **Atomic, connectionless** — each ``send`` is an independent acknowledged
   datagram; a payload is delivered whole or not at all, and there is no
   connection state to reconcile when nodes come and go.
2. **Multiple physical addresses** — a peer is addressed by *node id*; the
   transport fans out over redundant NIC pairs using a
   :class:`~repro.transport.multipath.SendStrategy`.
3. **Notification both ways** — the caller receives an explicit success
   notification (ack received) or a **failure-on-delivery** notification
   when every attempt on every address pair has been exhausted.  The
   failure notification is the session layer's local-view failure detector:
   Raincore's aggressive membership protocol removes a peer the moment the
   transport gives up on it (paper §2.2).

Every DATA frame is re-acked so the sender can complete, and duplicates
(caused by lost acks or PARALLEL multipath) are suppressed per peer.

Duplicate suppression
---------------------
A sender numbers its frames 1, 2, 3, ... and a peer's frames arrive nearly
in that order, so each peer is remembered as a *floor* (every ``msg_id`` up
to it has been seen) plus the sorted spans of ids seen above it — the
seen spans the multicast layer keeps (:mod:`repro.transport.spans`).  The
next frame in order only raises the floor; a frame past a gap opens a span,
and the span folds into the floor once the gap fills.  A steady peer costs
one int, whatever the traffic.

A frame is a duplicate iff its id is at most the floor or inside a span —
unless it lies :data:`RESTART_HORIZON` or more below the highest id seen
from that peer.  No retransmission or duplicate arrives that late, so such
an id is a restarted sender numbering from 1 again (there is no incarnation
on the wire): the peer's state is dropped and the frame begins its new
life.  This is the forgetting the old bounded window gave (a 4,096-frame
set and FIFO per peer): a peer restarted after more than 4,096 frames is
heard at once, one restarted sooner is ignored until its ids pass the old
ones.  Gaps that fall :data:`RESTART_HORIZON` below the highest id (frames
the sender addressed to other peers, or gave up on) are folded into the
floor, so the spans stay as few as the recent gaps.

Retransmit deadlines
--------------------
Nearly every send is acked long before its retransmit deadline, so the
deadlines live in one FIFO queue per transport rather than one timer per
send: every transmission appends ``(due, key, msg_id, pending)`` with
``due = now + retx_timeout`` and ``key`` the loop ordering key reserved at
that moment (``loop.reserve_key()``).  ``retx_timeout`` is constant, so the
queue is sorted by construction, and one loop timer armed at the head serves
them all.  When it fires it retransmits (or fails) the head unless it was
acked or cancelled meanwhile, discards the finished entries behind it, and
re-arms at the new head with that entry's key (``loop.call_at_key``).  An ack
never touches the loop, and each deadline fires at exactly the float *and*
among same-instant events in exactly the place the per-send timer would have.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.net.datagram import Datagram, DatagramNetwork
from repro.net.eventloop import EventLoop, TimerHandle
from repro.net.stats import NodeStats
from repro.net.topology import Topology
from repro.transport.messages import (
    TRANSPORT_HEADER,
    UDP_IP_HEADER,
    AckFrame,
    BareFrame,
    DataFrame,
    _payload_size,
    frame_size,
    trace_context_of,
)
from repro.transport.multipath import AddressPlan, SendStrategy, plan_routes
from repro.transport.spans import add_seen

__all__ = [
    "RESTART_HORIZON",
    "TransportConfig",
    "ReliableUnicast",
    "ReceiveHandler",
    "ResultHandler",
]

#: Upper-layer receive callback: (source node id, payload object).
ReceiveHandler = Callable[[str, Any], None]
#: Delivery outcome callback: True = acked, False = failure-on-delivery.
ResultHandler = Callable[[bool], None]

#: ACK frames carry no payload, so their wire size is a constant; a DATA
#: frame is its payload plus the same headers.
_ACK_SIZE = _DATA_HEADERS = UDP_IP_HEADER + TRANSPORT_HEADER

#: A frame whose ``msg_id`` lies this far below the highest seen from its
#: peer comes from a restarted sender (see "Duplicate suppression").  The
#: 4,096 frames are the old per-peer window's size, and far more than a
#: retransmission or a duplicate can ever trail its sender's newest frame.
RESTART_HORIZON = 4096


@dataclass(slots=True)
class TransportConfig:
    """Timing and redundancy knobs for the reliable unicast service.

    ``retx_timeout`` and ``attempts_per_route`` bound how long the transport
    tries before declaring failure-on-delivery; with SEQUENTIAL strategy the
    worst-case detection latency is
    ``attempts_per_route * retx_timeout * n_routes``.
    Defaults suit a low-latency LAN (paper §4.1's premise) and give
    sub-200 ms failure detection on a single link.
    """

    retx_timeout: float = 0.05
    attempts_per_route: int = 3
    strategy: SendStrategy = SendStrategy.SEQUENTIAL
    #: Hard bound on bytes held across in-flight (retransmittable) sends.
    #: A send that would exceed it is shed with an immediate asynchronous
    #: failure-on-delivery — bounded buffers beat unbounded backlog, and
    #: the session layer already handles delivery failure (paper §2.1).
    max_pending_bytes: int = 1_048_576

    def __post_init__(self) -> None:
        if not 0.0 < self.retx_timeout < math.inf:
            raise ValueError(
                f"retx_timeout must be finite and positive, got {self.retx_timeout}"
            )
        if self.attempts_per_route < 1:
            raise ValueError("attempts_per_route must be at least 1")
        if self.max_pending_bytes < 1:
            raise ValueError("max_pending_bytes must be at least 1")

    def failure_detection_bound(self, n_routes: int = 1) -> float:
        """Worst-case seconds before failure-on-delivery fires."""
        if self.strategy is SendStrategy.SEQUENTIAL:
            return self.retx_timeout * self.attempts_per_route * max(1, n_routes)
        return self.retx_timeout * self.attempts_per_route


@dataclass(slots=True)
class _PendingSend:
    """Book-keeping for one in-flight acknowledged unicast."""

    frame: DataFrame
    plan: AddressPlan
    on_result: ResultHandler | None
    size: int = 0  # enqueue-time wire size, for the pending-bytes budget
    route_index: int = 0
    attempts_on_route: int = 0
    rounds: int = 0  # parallel strategy: completed all-routes rounds
    sends: int = 0  # total transmission rounds, for the transport.tx probe
    done: bool = False


class ReliableUnicast:
    """Per-node Raincore Transport Service endpoint.

    One instance lives on each node; it binds all of the node's NIC
    addresses on the datagram network and exposes node-id-level ``send``.
    """

    def __init__(
        self,
        node_id: str,
        loop: EventLoop,
        network: DatagramNetwork,
        config: TransportConfig | None = None,
    ) -> None:
        self.node_id = node_id
        self.loop = loop
        self.network = network
        self.topology: Topology = network.topology
        self.config = config if config is not None else TransportConfig()
        self.stats: NodeStats = network.stats.for_node(node_id)
        # Optional probe bus (repro.obs); None keeps the hot path probe-free.
        self.probe = None
        self._receiver: ReceiveHandler | None = None
        self._msg_ids = itertools.count(1)
        self._pending: dict[int, _PendingSend] = {}
        self._pending_bytes = 0
        # Retransmit deadlines, FIFO = due order: (due, key, msg_id, pending).
        # Each live send has exactly one entry; done ones drain at the head.
        self._retx: deque[tuple[float, int, int, _PendingSend]] = deque()
        self._retx_timer: TimerHandle | None = None
        self.sheds = 0  #: sends refused by the pending-bytes budget
        # Duplicate suppression: peer -> [floor, spans of ids seen above it].
        self._seen: dict[str, list] = {}
        self._running = False
        # Address plans are pure functions of the static topology (NIC
        # attachments), which bumps ``version`` whenever they change; cache
        # one plan per peer and flush on any topology mutation.
        self._plans: dict[str, AddressPlan] = {}
        self._plans_version = -1

    def _plan_for(self, dst_node: str) -> AddressPlan:
        version = self.topology.version
        if version != self._plans_version:
            self._plans.clear()
            self._plans_version = version
        plan = self._plans.get(dst_node)
        if plan is None:
            plan = self._plans[dst_node] = plan_routes(
                self.topology, self.node_id, dst_node
            )
        return plan

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind every NIC address of this node; idempotent."""
        for addr in self.topology.addresses_of(self.node_id):
            self.network.bind(addr, self._on_packet)
        self._running = True

    def stop(self) -> None:
        """Unbind and abandon all in-flight sends (node shutdown/crash)."""
        self._running = False
        for addr in self.topology.addresses_of(self.node_id):
            self.network.unbind(addr)
        for pending in self._pending.values():
            pending.done = True
        self._pending.clear()
        self._pending_bytes = 0
        self._retx.clear()
        if self._retx_timer is not None:
            self._retx_timer.cancel()
            self._retx_timer = None

    @property
    def running(self) -> bool:
        return self._running

    def set_receiver(self, handler: ReceiveHandler) -> None:
        """Install the upper-layer payload handler."""
        self._receiver = handler

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(
        self, dst_node: str, payload: Any, on_result: ResultHandler | None = None
    ) -> int:
        """Reliably unicast ``payload`` to ``dst_node``.

        Returns the transport message id.  ``on_result`` fires exactly once:
        ``True`` on acknowledgement, ``False`` on failure-on-delivery.  The
        failure path is always asynchronous (scheduled on the loop), even
        when no route exists, so callers can rely on callback ordering.
        """
        if not self._running:
            raise RuntimeError(f"transport on {self.node_id!r} is not started")
        if dst_node == self.node_id:
            raise ValueError("transport does not loop back to self")
        msg_id = next(self._msg_ids)
        frame = DataFrame(self.node_id, dst_node, msg_id, payload)
        plan = self._plan_for(dst_node)
        size = _DATA_HEADERS + _payload_size(payload)
        pending = _PendingSend(frame, plan, on_result, size)
        self._pending[msg_id] = pending
        if self._pending_bytes + size > self.config.max_pending_bytes:
            # Budget shed: refuse to grow the retransmit buffer past its
            # bound.  Same (async) failure path callers already handle.
            self.sheds += 1
            pending.size = 0
            self.loop.call_later(0.0, self._finish, msg_id, False)
            return msg_id
        self._pending_bytes += size
        if not plan.pairs:
            # No shared segment at all: immediate (but async) failure.
            self.loop.call_later(0.0, self._finish, msg_id, False)
            return msg_id
        self._transmit(pending, size)
        return msg_id

    def send_best_effort(self, dst_node: str, payload: Any) -> None:
        """Fire-and-forget unicast: one datagram, no ack, no retransmit.

        Used for discovery beacons (paper §2.4), whose natural retry is the
        next beacon.  Silently does nothing when no route exists.
        """
        if not self._running:
            raise RuntimeError(f"transport on {self.node_id!r} is not started")
        plan = self._plan_for(dst_node)
        if not plan:
            return
        frame = BareFrame(self.node_id, dst_node, payload)
        src_addr, dst_addr = plan.pairs[0]
        self.network.send(src_addr, dst_addr, frame, frame_size(frame))

    def cancel(self, msg_id: int) -> None:
        """Abandon an in-flight send without firing its callback."""
        pending = self._pending.pop(msg_id, None)
        if pending is not None:
            pending.done = True
            self._pending_bytes -= pending.size

    def pending_count(self) -> int:
        return len(self._pending)

    def buffered_bytes(self) -> int:
        """Bytes held by in-flight (retransmittable) sends."""
        return self._pending_bytes

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _transmit(self, pending: _PendingSend, size: int) -> None:
        """Put ``pending``'s frame on the wire (``size`` = its wire size
        now) and queue its next deadline."""
        frame = pending.frame
        probe = self.probe
        if probe is not None:
            # The trace context is read from the live payload *now* — at
            # transmit time — so it reflects exactly what this transmission
            # carries (a retransmitted token may have changed underneath).
            probe.emit(
                self.node_id,
                "transport.tx",
                frame.dst_node,
                frame.msg_id,
                pending.sends,
                type(frame.payload).__name__,
                trace_context_of(frame.payload),
            )
        pending.sends += 1
        cfg = self.config
        if cfg.strategy is SendStrategy.PARALLEL:
            for src_addr, dst_addr in pending.plan.pairs:
                self.network.send(src_addr, dst_addr, frame, size)
            pending.rounds += 1
        else:
            # SEQUENTIAL: exhaust the retry budget on one route, then advance.
            src_addr, dst_addr = pending.plan.pairs[pending.route_index]
            self.network.send(src_addr, dst_addr, frame, size)
            pending.attempts_on_route += 1
        loop = self.loop
        due = loop.now + cfg.retx_timeout
        key = loop.reserve_key()
        self._retx.append((due, key, frame.msg_id, pending))
        if self._retx_timer is None:
            self._retx_timer = loop.call_at_key(due, key, self._on_retx_due)

    def _exhausted(self, pending: _PendingSend) -> bool:
        """True once ``pending`` has no transmission left to try."""
        cfg = self.config
        if cfg.strategy is SendStrategy.PARALLEL:
            return pending.rounds >= cfg.attempts_per_route
        return (
            pending.attempts_on_route >= cfg.attempts_per_route
            and pending.route_index >= len(pending.plan) - 1
        )

    def _on_retx_due(self) -> None:
        """The head's deadline is due: act on it, then re-arm at the next
        entry that is still live.

        While this runs ``_retx_timer`` still names the firing handle, so
        the transmissions it makes queue without arming a second timer;
        ``stop()`` from inside a callback clears both.
        """
        firing = self._retx_timer
        queue = self._retx
        _, _, msg_id, pending = queue.popleft()
        if not pending.done:
            if self._exhausted(pending):
                self._finish(msg_id, False)
            else:
                self._retransmit(msg_id)
        if self._retx_timer is firing:
            while queue and queue[0][3].done:
                queue.popleft()
            if queue:
                due, key = queue[0][0], queue[0][1]
                self._retx_timer = self.loop.call_at_key(due, key, self._on_retx_due)
            else:
                self._retx_timer = None

    def _retransmit(self, msg_id: int) -> None:
        pending = self._pending.get(msg_id)
        if pending is None or pending.done:
            return
        if self.config.strategy is SendStrategy.SEQUENTIAL:
            if pending.attempts_on_route >= self.config.attempts_per_route:
                pending.route_index += 1
                pending.attempts_on_route = 0
        # Sized per transmission on purpose: the payload may be the live
        # token object, whose wire size can change between the first send
        # and a retransmission (the model serializes at transmit time).
        self._transmit(pending, frame_size(pending.frame))

    def _finish(self, msg_id: int, success: bool) -> None:
        pending = self._pending.pop(msg_id, None)
        if pending is None or pending.done:
            return
        pending.done = True
        self._pending_bytes -= pending.size
        probe = self.probe
        if probe is not None and not success:
            probe.emit(
                self.node_id, "transport.fail", pending.frame.dst_node, msg_id
            )
        if pending.on_result is not None:
            pending.on_result(success)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def _on_packet(self, packet: Datagram) -> None:
        frame = packet.payload
        if isinstance(frame, AckFrame):
            self._on_ack(frame)
        elif isinstance(frame, DataFrame):
            self._on_data(packet, frame)
        elif isinstance(frame, BareFrame):
            if frame.dst_node == self.node_id and self._receiver is not None:
                self._receiver(frame.src_node, frame.payload)
        # Anything else is silently ignored, as a UDP service would.

    def _on_ack(self, frame: AckFrame) -> None:
        if frame.dst_node != self.node_id:
            return
        probe = self.probe
        if probe is not None and frame.msg_id in self._pending:
            probe.emit(self.node_id, "transport.ack", frame.src_node, frame.msg_id)
        self._finish(frame.msg_id, True)

    def _on_data(self, packet: Datagram, frame: DataFrame) -> None:
        if frame.dst_node != self.node_id:
            return
        # Always (re-)ack on the reverse path: the original ack may be lost.
        ack = AckFrame(self.node_id, frame.src_node, frame.msg_id)
        self.network.send(packet.dst, packet.src, ack, _ACK_SIZE)
        dup = self._is_duplicate(frame.src_node, frame.msg_id)
        probe = self.probe
        if probe is not None:
            probe.emit(self.node_id, "transport.rx", frame.src_node, frame.msg_id, dup)
        if dup:
            return
        if self._receiver is not None:
            self._receiver(frame.src_node, frame.payload)

    def _is_duplicate(self, peer: str, msg_id: int) -> bool:
        """Whether ``peer``'s frame ``msg_id`` was seen ("Duplicate
        suppression" in the module docstring); records it if not."""
        seen = self._seen.get(peer)
        if seen is None:
            seen = self._seen[peer] = [0, []]
        floor, above = seen
        if above:
            high = above[-1] - 1
            if msg_id == high + 1 and msg_id - RESTART_HORIZON <= floor:
                above[-1] = msg_id + 1  # the next frame, past a recent gap
                return False
        elif msg_id == floor + 1:  # the next frame in order
            seen[0] = msg_id
            return False
        else:
            high = floor
        if msg_id <= high - RESTART_HORIZON:
            # Far older than any straggler: the peer restarted.
            floor = 0
            above.clear()
        elif msg_id <= floor:
            return True
        if not add_seen(above, msg_id):
            return True
        # Fold into the floor the span that now continues it, and any gap
        # so far below the newest id that only a restart could reach it.
        bottom = above[-1] - 1 - RESTART_HORIZON
        if floor < bottom:
            floor = bottom
        while above and above[0] <= floor + 1:
            if above[1] - 1 > floor:
                floor = above[1] - 1
            del above[:2]
        seen[0] = floor
        return False
