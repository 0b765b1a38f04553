"""Real UDP datagram fabric for the asyncio runtime.

Implements the same interface the simulated
:class:`~repro.net.datagram.DatagramNetwork` exposes to the transport layer
— ``bind`` / ``unbind`` / ``send`` plus ``topology`` and ``stats`` — over
actual UDP sockets on localhost.  The paper's deployments used UDP on a
switched LAN (paper §2.1: "In typical implementations, it uses UDP"); this
fabric lets the unmodified protocol stack run on the real thing.

Wire format: a 4-byte prefix — the magic ``b"RCF"`` plus one version byte
(``0x01``) — followed by a pickle of ``(src_addr, dst_addr, size,
payload)``.  The declared modelled size travels with the packet, exactly
as the simulator's ``Datagram`` carries it, so receive-side accounting and
probes report the same size the sender declared.  A protocol dataclass —
one defined under ``repro.``: the transport frames, every registered
message, the token's packs and riders — travels as its class plus the
values of its ``init=True`` fields and is rebuilt by calling the class, so
what the declaration does not name (the token's cache slots) stays home
and ``__post_init__`` rebuilds it on arrival; every other object pickles
by default.  The prefix is the
defensive layer: a datagram is only handed to ``pickle.loads`` after its
magic and version check out, so arbitrary bytes sprayed at the port are
counted and dropped (``bad-magic``) without ever reaching the
deserializer, and frames above ``max_frame_bytes`` are dropped outright
(``oversized``) on both the send and receive sides.  Pickle *after* the
prefix check is acceptable because the fabric is a loopback/demo transport
between cooperating processes you started yourself; a production port
would swap in an explicit codec (every message type already reports
``wire_size()``, so the sizes are modelled independently of the encoding).
The telemetry sidecar channel (:mod:`repro.runtime.telemetry`) shares the
prefix discipline but uses JSON bodies — no pickle at all.

Like the simulated network, the fabric carries an optional ``probe`` bus
(``None`` = observability off) and emits the same ``net.send`` /
``net.deliver`` / ``net.drop`` catalogue kinds with the same argument
shapes, so :mod:`repro.obs` consumers (aggregators, monitors, diff) work
unchanged over real sockets.  Real-fabric drop sites get their own
``where`` labels: ``no-endpoint`` (sender socket closed), ``unpicklable``,
``oversized`` (frame above the cap, either direction), ``send-failed``
(the socket refused the datagram: full send buffer or any other
``OSError``), ``bad-magic`` (wrong or missing prefix), ``garbage`` (valid
prefix, undecodable body), ``misaddressed``, and ``unbound``.

Each node's socket is a plain non-blocking ``socket.socket`` read through
``loop.add_reader`` — which needs a selector event loop, asyncio's default
on Linux and macOS.
"""

from __future__ import annotations

import asyncio
import copyreg
import dataclasses
import io
import operator
import pickle
import socket
from typing import Any, Callable

from repro.net.datagram import Datagram, PacketHandler
from repro.net.stats import StatsRegistry
from repro.net.topology import Segment, Topology

__all__ = ["UdpFabric", "FABRIC_MAGIC", "FABRIC_VERSION"]

#: Datagram prefix: 3 magic bytes + 1 version byte.  Anything that does
#: not start with this exact prefix is dropped before deserialization.
FABRIC_MAGIC = b"RCF"
FABRIC_VERSION = 1
_PREFIX = FABRIC_MAGIC + bytes([FABRIC_VERSION])


#: Datagrams one reader wakeup may drain before the loop gets to run its
#: timers again: a flood at one socket must not starve the token's hold.
_DRAIN_LIMIT = 16


class _DeclaredFields(dict):
    """``Pickler.dispatch_table`` reducing a protocol dataclass to ``(cls,
    its init=True field values)``, derived from the declaration on first
    sight of the class.  Any other type gets the default table's answer,
    so application payloads, enums and builtins pickle as they always did.
    """

    def __missing__(self, cls: type) -> Callable[[Any], tuple]:
        declared = "__dataclass_fields__" in vars(cls)
        if not (declared and cls.__module__.startswith("repro.")):
            return copyreg.dispatch_table[cls]
        names = [f.name for f in dataclasses.fields(cls) if f.init]
        values = (
            operator.attrgetter(*names)
            if len(names) > 1
            else lambda obj: tuple(getattr(obj, name) for name in names)
        )
        reduce = self[cls] = lambda obj: (cls, values(obj))
        return reduce


class _Endpoint:
    """One node's non-blocking UDP socket, read by the loop's selector."""

    def __init__(
        self, fabric: "UdpFabric", address: str, port: int,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        self._fabric = fabric
        self._address = address
        self._loop = loop
        sock = self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setblocking(False)
            sock.bind(("127.0.0.1", port))
            loop.add_reader(sock.fileno(), self._drain)
        except BaseException:
            sock.close()
            raise

    def sendto(self, data: bytes, peer: tuple[str, int]) -> None:
        self._sock.sendto(data, peer)

    def _drain(self) -> None:
        recv = self._sock.recv
        # One byte past the cap is enough to know a datagram is oversized
        # (a longer one arrives cut to that length and is dropped as such).
        limit = self._fabric.max_frame_bytes + 1
        deliver = self._fabric._on_datagram
        address = self._address
        for _ in range(_DRAIN_LIMIT):
            try:
                data = recv(limit)
            except OSError:
                # Nothing left to read (BlockingIOError), or a handler
                # closed this socket mid-drain: either way the run ends.
                return
            deliver(address, data)

    def close(self) -> None:
        """Stop reading, then release the descriptor (idempotent)."""
        if self._sock.fileno() >= 0:
            self._loop.remove_reader(self._sock.fileno())
            self._sock.close()


class UdpFabric:
    """UDP sockets on 127.0.0.1, one per node, behind the simulator's API.

    Parameters
    ----------
    ports:
        Mapping node id → UDP port.  Each node gets one NIC address of the
        form ``"127.0.0.1:<port>"`` on a single shared segment.
    max_frame_bytes:
        Cap on the encoded datagram size (prefix included).  Frames above
        it are dropped with ``where="oversized"`` on whichever side sees
        them first; the default stays under the classic 65507-byte UDP
        payload limit.
    """

    SEGMENT = "udp0"

    def __init__(self, ports: dict[str, int], *, max_frame_bytes: int = 65_000) -> None:
        if not ports:
            raise ValueError("need at least one node")
        if max_frame_bytes <= len(_PREFIX):
            raise ValueError("max_frame_bytes must exceed the frame prefix")
        self.ports = dict(ports)
        self.max_frame_bytes = max_frame_bytes
        self.topology = Topology()
        self.topology.add_segment(Segment(self.SEGMENT, latency=0.0, jitter=0.0))
        self.stats = StatsRegistry()
        # Optional probe bus (repro.obs): None means observability is off
        # and the hot path pays a single attribute load per packet.
        self.probe = None
        self._handlers: dict[str, PacketHandler] = {}
        #: address -> anything with ``sendto(data, (host, port))``/``close()``.
        self._endpoints: dict[str, Any] = {}
        self._peers: dict[str, tuple[str, int]] = {}
        self._declared = _DeclaredFields()
        for node_id, port in self.ports.items():
            self.topology.add_node(node_id)
            self.topology.attach(node_id, self._addr(port), self.SEGMENT)
            self._peers[self._addr(port)] = ("127.0.0.1", port)
        self.packets_delivered = 0
        self.packets_dropped = 0

    @staticmethod
    def _addr(port: int) -> str:
        return f"127.0.0.1:{port}"

    def address_of(self, node_id: str) -> str:
        return self._addr(self.ports[node_id])

    # ------------------------------------------------------------------
    # socket lifecycle
    # ------------------------------------------------------------------
    async def open(self, node_id: str) -> None:
        """Bind the node's UDP socket on the running loop (idempotent)."""
        addr = self.address_of(node_id)
        if addr not in self._endpoints:
            self._endpoints[addr] = _Endpoint(
                self, addr, self.ports[node_id], asyncio.get_running_loop()
            )

    async def open_all(self) -> None:
        for node_id in self.ports:
            await self.open(node_id)

    def close(self, node_id: str) -> None:
        """Close the node's socket — the real-world 'crash'."""
        endpoint = self._endpoints.pop(self.address_of(node_id), None)
        if endpoint is not None:
            endpoint.close()

    def close_all(self) -> None:
        for node_id in list(self.ports):
            self.close(node_id)

    # ------------------------------------------------------------------
    # DatagramNetwork interface (consumed by ReliableUnicast)
    # ------------------------------------------------------------------
    def bind(self, address: str, handler: PacketHandler) -> None:
        self.topology.owner_of(address)  # KeyError on unknown address
        self._handlers[address] = handler

    def unbind(self, address: str) -> None:
        self._handlers.pop(address, None)

    def send(self, src: str, dst: str, payload: Any, size: int) -> None:
        sender = self.topology.owner_of(src)
        peer = self._peers[dst]  # KeyError on unknown address, like src
        self.stats.for_node(sender).packet_sent(size)
        probe = self.probe
        frame = type(payload).__name__
        if probe is not None:
            probe.emit(sender, "net.send", src, dst, frame, size)
        endpoint = self._endpoints.get(src)
        if endpoint is None:
            self.packets_dropped += 1
            if probe is not None:
                probe.emit(
                    sender, "net.drop", src, dst, frame, size, "no-endpoint"
                )
            return
        frame_bytes = io.BytesIO()
        frame_bytes.write(_PREFIX)
        pickler = pickle.Pickler(frame_bytes)
        pickler.dispatch_table = self._declared
        try:
            pickler.dump((src, dst, size, payload))
        except Exception:  # unpicklable payload: drop like a too-big datagram
            self.packets_dropped += 1
            if probe is not None:
                probe.emit(
                    sender, "net.drop", src, dst, frame, size, "unpicklable"
                )
            return
        data = frame_bytes.getvalue()
        if len(data) > self.max_frame_bytes:
            self.packets_dropped += 1
            if probe is not None:
                probe.emit(
                    sender, "net.drop", src, dst, frame, size, "oversized"
                )
            return
        try:
            endpoint.sendto(data, peer)
        except OSError:
            # A full send buffer (BlockingIOError), EINTR or any other
            # refusal: UDP's answer is to lose the datagram — counted and
            # probed here, retransmitted by the transport above.
            self.packets_dropped += 1
            if probe is not None:
                probe.emit(
                    sender, "net.drop", src, dst, frame, size, "send-failed"
                )

    # ------------------------------------------------------------------
    def _on_datagram(self, local_addr: str, data: bytes) -> None:
        probe = self.probe
        receiver = self.topology.owner_of(local_addr)
        # Received bytes carry no trustworthy header fields until the
        # prefix checks out and the body decodes; drops before that point
        # report src/frame as "?" and the raw datagram length as size.
        if len(data) > self.max_frame_bytes:
            self.packets_dropped += 1
            if probe is not None:
                probe.emit(
                    receiver, "net.drop", "?", local_addr, "?", len(data),
                    "oversized",
                )
            return
        if not data.startswith(_PREFIX):
            self.packets_dropped += 1
            if probe is not None:
                probe.emit(
                    receiver, "net.drop", "?", local_addr, "?", len(data),
                    "bad-magic",
                )
            return
        try:
            src, dst, size, payload = pickle.loads(data[len(_PREFIX):])
        except Exception:
            self.packets_dropped += 1
            if probe is not None:
                probe.emit(
                    receiver, "net.drop", "?", local_addr, "?", len(data),
                    "garbage",
                )
            return
        frame = type(payload).__name__
        if dst != local_addr:
            self.packets_dropped += 1
            if probe is not None:
                probe.emit(
                    receiver, "net.drop", src, dst, frame, size, "misaddressed"
                )
            return
        handler = self._handlers.get(local_addr)
        if handler is None:
            self.packets_dropped += 1
            if probe is not None:
                probe.emit(
                    receiver, "net.drop", src, dst, frame, size, "unbound"
                )
            return
        self.stats.for_node(receiver).packet_received(size)
        self.packets_delivered += 1
        if probe is not None:
            probe.emit(receiver, "net.deliver", src, dst, frame, size)
        handler(Datagram(src, dst, payload, size))
