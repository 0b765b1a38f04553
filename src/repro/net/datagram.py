"""Unreliable unicast datagram service — the simulated "UDP" of the paper.

The Raincore Transport Service (paper §2.1) "requires the availability of an
unreliable unicast interface to send and receive packets.  In typical
implementations, it uses UDP."  This module is that interface for the
simulated cluster:

* best-effort: packets may be dropped (segment loss probability, burst-loss
  channels, downed NICs/nodes, blocked pairs, partitions), duplicated
  (segment duplication probability), and reordered by jitter or delay
  spikes — everything UDP permits;
* atomic: a packet arrives whole or not at all — there is no fragmentation
  or corruption in the model, matching the paper's atomic-unicast framing;
* unicast only: a "broadcast" can only be built from N unicasts, which is
  exactly the premise of the paper's overhead analysis (§4.1).

Every send/receive is charged to :class:`~repro.net.stats.NodeStats` so the
benchmarks can report packet and byte overheads per protocol.

A packet in flight is a plain ``(when, seq, None, self._deliver, packet)`` entry
on the event loop's heap, not a :class:`~repro.net.eventloop.TimerHandle`:
nothing ever cancels an arrival, so it needs no handle.  Its ``seq`` is
drawn at send time, exactly where ``call_later`` would draw it, so the
dispatch order is the one a handle would give.
"""

from __future__ import annotations

import math
from heapq import heappush
from typing import Any, Callable, Protocol

from repro.net.eventloop import EventLoop
from repro.net.stats import StatsRegistry
from repro.net.topology import Topology

__all__ = ["Datagram", "DatagramNetwork", "PacketHandler"]


class Datagram:
    """One packet in flight.

    ``payload`` is any Python object (the protocol layers use message
    dataclasses); ``size`` is its modelled wire size in bytes, reported by
    the message itself so the network does not need to serialize.
    """

    __slots__ = ("src", "dst", "payload", "size")

    def __init__(self, src: str, dst: str, payload: Any, size: int) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size = size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Datagram({self.src} -> {self.dst}, {self.size}B, {self.payload!r})"


class PacketHandler(Protocol):
    """Callback signature for datagram arrival at a bound address."""

    def __call__(self, packet: Datagram) -> None: ...  # pragma: no cover


class DatagramNetwork:
    """Delivers datagrams between NIC addresses over a :class:`Topology`.

    Parameters
    ----------
    loop:
        The simulation event loop (provides time and the seeded RNG).
    topology:
        Mutable topology consulted *at send time* for reachability and at
        delivery time for destination liveness (a node that crashes while a
        packet is in flight does not receive it).

    ``stats`` is the registry charged with per-node packet/byte counters.
    """

    def __init__(self, loop: EventLoop, topology: Topology) -> None:
        self.loop = loop
        self.topology = topology
        self.stats = StatsRegistry()
        self._handlers: dict[str, PacketHandler] = {}
        self.packets_dropped = 0
        self.packets_delivered = 0
        self.packets_duplicated = 0
        # Optional probe bus (repro.obs): None means observability is off and
        # the per-packet cost is one attribute load + None test.
        self.probe = None
        # Optional wiretap for tests/tracing: called for every send attempt.
        self.trace: Callable[[Datagram, bool], None] | None = None
        # Selective drop filters (add_filter / remove_filter, surfaced as
        # FaultInjector.drop_matching): the surgical fault-injection hook,
        # e.g. "drop only the ACKs from B to A for 300 ms" — the scenario
        # that manufactures failure-detector false alarms deterministically.
        self._filters: dict[int, Callable[[Datagram], bool]] = {}
        self._filter_ids = 0
        # (src, dst) -> (topology.version, sender stats, deliverable, segment,
        # receiver stats).  Reachability and the shared-segment scan are pure
        # functions of the topology, which bumps ``version`` on every mutation
        # that can change them; a version mismatch rebuilds the entry.  The
        # segment object itself is live — per-packet adversity knobs (loss,
        # burst, spikes, duplication) are read from it on every send, so fault
        # injectors that tweak those fields in place need no invalidation.
        self._routes: dict[tuple[str, str], tuple] = {}

    # ------------------------------------------------------------------
    # selective drop filters
    # ------------------------------------------------------------------
    def add_filter(self, pred: Callable[[Datagram], bool]) -> int:
        """Install a drop filter; returns a handle for :meth:`remove_filter`.

        ``pred`` returns False for packets that must be dropped.  All
        installed filters apply simultaneously (a packet any filter rejects
        is dropped), so independent fault scenarios compose.
        """
        self._filter_ids += 1
        self._filters[self._filter_ids] = pred
        return self._filter_ids

    def remove_filter(self, handle: int) -> None:
        """Uninstall one filter; unknown handles are ignored (idempotent)."""
        self._filters.pop(handle, None)

    def clear_filters(self) -> None:
        """Remove every stacked filter."""
        self._filters.clear()

    def _filtered_out(self, packet: Datagram) -> bool:
        if not self._filters:
            return False
        return any(not pred(packet) for pred in self._filters.values())

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    def bind(self, address: str, handler: PacketHandler) -> None:
        """Attach a receive handler to a NIC address (like a UDP socket)."""
        # Rebinding is allowed: a restarted node re-binds its addresses.
        self.topology.owner_of(address)  # raises KeyError if unknown
        self._handlers[address] = handler

    def unbind(self, address: str) -> None:
        self._handlers.pop(address, None)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def _route(self, src: str, dst: str) -> tuple:
        """(Re)build the cached route entry for an address pair."""
        topology = self.topology
        # owner_of raises KeyError for an unknown source, as send always did.
        sender_stats = self.stats.for_node(topology.owner_of(src))
        deliverable = topology.can_deliver(src, dst)
        if deliverable:
            seg = topology.path_params(src, dst)
            receiver_stats = self.stats.for_node(topology.owner_of(dst))
        else:
            seg = None
            receiver_stats = None
        entry = (topology.version, sender_stats, deliverable, seg, receiver_stats)
        self._routes[(src, dst)] = entry
        return entry

    def send(self, src: str, dst: str, payload: Any, size: int) -> None:
        """Best-effort unicast of ``payload`` from ``src`` to ``dst`` NICs.

        Dropped silently (as UDP would) when the path is unavailable or the
        per-packet loss draw fails.  The sender is always charged for the
        packet — the NIC transmitted it regardless of fate.

        The RNG draw sequence is per-packet stable regardless of caching:
        each adversity knob draws iff it is enabled, in a fixed order
        (loss, burst, jitter, spike, duplicate, twin jitter), so a benign
        segment makes no draws at all and seeded traces replay identically.
        """
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        packet = Datagram(src, dst, payload, size)
        route = self._routes.get((src, dst))
        if route is None or route[0] != self.topology.version:
            route = self._route(src, dst)
        sender = route[1]
        sender.packets_sent += 1
        sender.bytes_sent += size
        probe = self.probe
        if probe is not None:
            probe.emit(
                sender.node_id, "net.send", src, dst, type(payload).__name__, size
            )

        if not route[2]:
            self._drop(packet, "unreachable")
            return
        if self._filters and self._filtered_out(packet):
            self._drop(packet, "filtered")
            return
        seg = route[3]
        loop = self.loop
        rng = loop.rng
        if seg.loss > 0.0 and rng.random() < seg.loss:
            self._drop(packet, "loss")
            return
        if seg.burst is not None and seg.burst.sample(rng):
            self._drop(packet, "burst")
            return
        delay = seg.latency
        if seg.jitter > 0.0:
            delay += rng.random() * seg.jitter
        if seg.spike_prob > 0.0 and rng.random() < seg.spike_prob:
            delay += seg.spike_extra
        if self.trace is not None:
            self.trace(packet, True)
        if not 0.0 <= delay < math.inf:
            # What call_later refused: a NaN or infinite key corrupts the heap.
            raise ValueError(f"delay must be finite and non-negative, got {delay}")
        heappush(
            loop._heap, (loop.now + delay, next(loop._seq), None, self._deliver, packet)
        )
        if seg.duplicate > 0.0 and rng.random() < seg.duplicate:
            # The twin takes an independent (jittered) path, so it may
            # arrive before or after the original — duplication and
            # reordering come as a package, exactly as on a real LAN.
            twin_delay = seg.latency
            if seg.jitter > 0.0:
                twin_delay += rng.random() * seg.jitter
            self.packets_duplicated += 1
            if probe is not None:
                probe.emit(
                    sender.node_id,
                    "net.dup",
                    src,
                    dst,
                    type(payload).__name__,
                    size,
                )
            heappush(
                loop._heap,
                (loop.now + twin_delay, next(loop._seq), None, self._deliver, packet),
            )

    def _drop(self, packet: Datagram, where: str = "net") -> None:
        self.packets_dropped += 1
        probe = self.probe
        if probe is not None:
            probe.emit(
                self.topology.owner_of(packet.src),
                "net.drop",
                packet.src,
                packet.dst,
                type(packet.payload).__name__,
                packet.size,
                where,
            )
        if self.trace is not None:
            self.trace(packet, False)

    def _deliver(self, packet: Datagram) -> None:
        # Re-check liveness at arrival time: the destination may have
        # crashed, been unplugged, or been partitioned while in flight.
        dst = packet.dst
        probe = self.probe
        route = self._routes.get((packet.src, dst))
        if route is None or route[0] != self.topology.version:
            route = self._route(packet.src, dst)
        if not route[2]:
            self.packets_dropped += 1
            if probe is not None:
                probe.emit(
                    self.topology.owner_of(packet.src),
                    "net.drop",
                    packet.src,
                    dst,
                    type(packet.payload).__name__,
                    packet.size,
                    "dst-down",
                )
            return
        handler = self._handlers.get(dst)
        if handler is None:
            self.packets_dropped += 1
            if probe is not None:
                probe.emit(
                    self.topology.owner_of(packet.src),
                    "net.drop",
                    packet.src,
                    dst,
                    type(packet.payload).__name__,
                    packet.size,
                    "unbound",
                )
            return
        receiver = route[4]
        receiver.packets_received += 1
        receiver.bytes_received += packet.size
        self.packets_delivered += 1
        if probe is not None:
            probe.emit(
                receiver.node_id,
                "net.deliver",
                packet.src,
                dst,
                type(packet.payload).__name__,
                packet.size,
            )
        handler(packet)
