"""Standalone node worker: one Raincore node per OS process.

This is the final step of the runtime ladder — simulator → asyncio/UDP in
one process → **separate processes** with nothing shared but datagrams.
Each worker runs exactly one session node over real UDP and reports its
observations as JSON lines on stdout, so a parent (test, demo, or human
with a terminal per node) can watch the cluster form across process
boundaries.  With ``--telemetry HOST:PORT`` the worker also attaches a
probe bus and ships every probe event to a raintap collector
(:mod:`repro.runtime.collector`) over the sidecar channel, keeping a
flight-recorder ring to answer breach-time ``pull`` requests.

Usage (normally spawned by ``repro top``,
``examples/multiprocess_demo.py`` or the tests)::

    python -m repro.runtime.worker --node A --port 42000 \
        --peers A=42000,B=42001,C=42002 --bootstrap --duration 3 \
        --multicast-at 1.0 --payload hello \
        --telemetry 127.0.0.1:41999

Stdout protocol (schema version 2)
----------------------------------
One JSON object per line.  Every line carries the envelope fields

``v``
    stdout schema version, the integer ``2``.  Consumers must check it:
    version 1 lines (no ``v`` key) predate wall-clock timestamps.
``ts``
    Unix epoch wall-clock seconds (float) at emission — comparable
    across processes and with collector capture files.
``event``
    One of ``started``, ``view``, ``deliver``, ``done``.
``node``
    This worker's node id.

Event-specific fields:

``started``
    ``port`` (bound UDP port), ``telemetry`` (collector ``HOST:PORT``
    or ``null``).
``view``
    ``view_id``, ``members`` (sorted list of node ids).
``deliver``
    ``origin``, ``msg_no``, ``payload`` (UTF-8 decoded, replacement on
    undecodable bytes).
``done``
    ``members``, ``state``, ``packets_sent``, ``shipped`` (probe events
    shipped to the collector; 0 without ``--telemetry``).

This module runs on the wall-clock side of the determinism fence: it
stamps stdout lines and the telemetry clock offset with ``time.time``.
The protocol stack underneath stays deterministic — wall time never
feeds scheduler or protocol decisions.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import sys
import time

from repro.core.config import RaincoreConfig
from repro.core.events import Delivery, SessionListener, ViewChange
from repro.core.session import RaincoreNode
from repro.runtime.scheduler import AsyncioScheduler
from repro.runtime.telemetry import TelemetryShipper
from repro.runtime.udp import UdpFabric

__all__ = ["main", "run_worker", "parse_peers", "build_parser", "STDOUT_SCHEMA"]

#: Version carried in the ``v`` field of every stdout line (see module
#: docstring for the line schema).
STDOUT_SCHEMA = 2

#: Seconds between telemetry ``mark`` heartbeats (collector watermark).
_MARK_INTERVAL = 0.25


def parse_peers(spec: str, node: str, port: int) -> dict[str, int]:
    """Parse ``--peers`` (``id=port,id=port,...``) and validate it.

    Raises ``ValueError`` on malformed pairs, bad or duplicate ports,
    duplicate ids, a missing ``node`` entry, or a ``port`` mismatch with
    the node's own entry.
    """
    ports: dict[str, int] = {}
    for pair in spec.split(","):
        pair = pair.strip()
        nid, sep, text = pair.partition("=")
        if not sep or not nid or not text:
            raise ValueError(f"--peers entry {pair!r} is not id=port")
        try:
            p = int(text)
        except ValueError:
            raise ValueError(f"--peers entry {pair!r} has a non-integer port") from None
        if not 1 <= p <= 65535:
            raise ValueError(f"--peers entry {pair!r} port out of range")
        if nid in ports:
            raise ValueError(f"--peers lists node {nid!r} twice")
        ports[nid] = p
    if len(set(ports.values())) != len(ports):
        raise ValueError("--peers assigns the same port to two nodes")
    if node not in ports:
        raise ValueError(f"--peers does not include this node ({node!r})")
    if ports[node] != port:
        raise ValueError(
            f"--port {port} does not match this node's --peers entry {ports[node]}"
        )
    return ports


def worker_seed(node: str) -> int:
    """Deterministic per-node scheduler seed (stable across processes)."""
    return int.from_bytes(hashlib.sha256(node.encode()).digest()[:4], "big")


class _JsonReporter(SessionListener):
    def __init__(self, node_id: str) -> None:
        self.node_id = node_id

    def _emit(self, event: str, **fields) -> None:
        line = {
            "v": STDOUT_SCHEMA,
            "ts": time.time(),
            "event": event,
            "node": self.node_id,
            **fields,
        }
        print(json.dumps(line, sort_keys=True), flush=True)

    def on_view_change(self, view: ViewChange) -> None:
        self._emit("view", members=list(view.members), view_id=view.view_id)

    def on_deliver(self, delivery: Delivery) -> None:
        payload = delivery.payload
        if isinstance(payload, bytes):
            payload = payload.decode("utf-8", "replace")
        self._emit(
            "deliver", origin=delivery.origin, msg_no=delivery.msg_no,
            payload=str(payload),
        )


class _Sidecar(asyncio.DatagramProtocol):
    """Connected UDP socket to the collector; relays pulls to the shipper."""

    def __init__(self) -> None:
        self.shipper: TelemetryShipper | None = None
        self.transport: asyncio.DatagramTransport | None = None

    def connection_made(self, transport) -> None:  # pragma: no cover - trivial
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        if self.shipper is not None:
            self.shipper.on_datagram(data)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro-worker")
    parser.add_argument("--node", required=True, help="this node's id")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--peers",
        required=True,
        help="comma-separated id=port pairs for the whole cluster",
    )
    parser.add_argument(
        "--bootstrap",
        action="store_true",
        help="form a new group instead of joining",
    )
    parser.add_argument("--contact", default=None, help="join via this member")
    parser.add_argument("--duration", type=float, default=3.0)
    parser.add_argument("--hop-interval", type=float, default=0.02)
    parser.add_argument(
        "--multicast-at", type=float, default=None,
        help="seconds after start to multicast --payload",
    )
    parser.add_argument("--payload", default="hello-from-worker")
    parser.add_argument(
        "--telemetry", default=None, metavar="HOST:PORT",
        help="ship probe events to a raintap collector at this address",
    )
    return parser


async def run_worker(args) -> int:
    try:
        ports = parse_peers(args.peers, args.node, args.port)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None

    fabric = UdpFabric(ports)
    loop = asyncio.get_running_loop()
    scheduler = AsyncioScheduler(loop, seed=worker_seed(args.node))
    config = RaincoreConfig.tuned(ring_size=len(ports), hop_interval=args.hop_interval)
    reporter = _JsonReporter(args.node)
    node = RaincoreNode(args.node, scheduler, fabric, config, reporter)

    shipper: TelemetryShipper | None = None
    sidecar: asyncio.DatagramTransport | None = None
    if args.telemetry:
        host, sep, text = args.telemetry.rpartition(":")
        if not sep or not host:
            raise SystemExit(f"--telemetry {args.telemetry!r} is not HOST:PORT")
        try:
            tport = int(text)
        except ValueError:
            raise SystemExit(
                f"--telemetry {args.telemetry!r} has a non-integer port"
            ) from None
        from repro.obs import FlightRecorder, ProbeBus

        bus = ProbeBus(scheduler)
        recorder = FlightRecorder(bus)
        protocol = _Sidecar()
        sidecar, _ = await loop.create_datagram_endpoint(
            lambda: protocol, remote_addr=(host, tport)
        )
        # One fixed offset maps the scheduler's monotonic clock onto the
        # epoch timeline every worker shares (see repro.runtime.telemetry).
        shipper = TelemetryShipper(
            args.node,
            sidecar.sendto,
            clock_offset=time.time() - scheduler.now,
            recorder=recorder,
        )
        protocol.shipper = shipper
        bus.subscribe(shipper.on_probe)
        fabric.probe = bus
        node.probe = bus
        node.transport.probe = bus

    await fabric.open(args.node)
    reporter._emit("started", port=args.port, telemetry=args.telemetry)
    if shipper is not None:
        shipper.hello(fabric.address_of(args.node))
    if args.bootstrap:
        node.start_new_group()
    else:
        contact = args.contact or next(n for n in ports if n != args.node)
        node.start_joining([contact])

    deadline = scheduler.now + args.duration
    multicast_at = (
        scheduler.now + args.multicast_at if args.multicast_at is not None else None
    )
    next_mark = scheduler.now
    try:
        while scheduler.now < deadline:
            await asyncio.sleep(0.02)
            if multicast_at is not None and scheduler.now >= multicast_at:
                multicast_at = None
                node.multicast(args.payload.encode())
            if shipper is not None:
                shipper.flush()  # a partial batch waits one tick at most
                if scheduler.now >= next_mark:
                    next_mark = scheduler.now + _MARK_INTERVAL
                    shipper.mark()

        reporter._emit(
            "done",
            members=list(node.members),
            state=node.state.value,
            packets_sent=fabric.stats.for_node(args.node).packets_sent,
            shipped=shipper.shipped if shipper is not None else 0,
        )
        return 0
    finally:
        node.crash()
        fabric.close_all()
        if shipper is not None:
            shipper.bye()
        if sidecar is not None:
            sidecar.close()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return asyncio.run(run_worker(args))


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
