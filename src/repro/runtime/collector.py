"""raintap collector: merge per-worker probe streams into one live feed.

The counterpart of :mod:`repro.runtime.telemetry`: one in-process UDP
endpoint that every worker's :class:`~repro.runtime.telemetry.TelemetryShipper`
ships frames to.  The collector turns N per-process streams into the one
canonical, time-ordered feed the simulator-era consumers expect:

* **Per-source watermarking with bounded reordering.**  Every frame from a
  source advances that source's watermark (probe timestamps and heartbeat
  ``mark`` frames alike).  An event is *released* only once every live
  source's watermark has passed it by the reorder allowance, so the merged
  feed is time-ordered even though UDP delivers per-source streams with
  arbitrary relative skew.  A source that goes quiet past the silence
  timeout is excluded from the watermark (and reported as
  ``telemetry.silent``) so a dead worker cannot stall the plane.
* **The existing consumers, unchanged.**  Released events flow into a
  :class:`~repro.obs.agg.StreamAggregator` rollup and a
  :class:`~repro.obs.monitor.ContractMonitor` running on the injectable
  wall clock (:class:`~repro.runtime.telemetry.WallClock`) — the paper's
  rules evaluated live against a real cluster.
* **Prometheus-style ``/metrics``** text exposition
  (:meth:`TelemetryCollector.metrics_text`, optionally served over HTTP
  by :meth:`TelemetryCollector.serve_metrics`).
* **Capture files**: one JSONL file, a ``repro.obs.capture/1`` header
  line followed by released event records — readable by ``repro obs
  diff`` / ``repro obs timeline`` like any probe export.
* **Breach postmortems**: on the first fired alert the collector sends
  every worker a ``pull``, gathers their flight-recorder rings, and cuts
  a standard ``repro.obs.bundle/2`` with the alerts attached.

:class:`LiveCluster` at the bottom is the driver used by ``repro soak
--procs N`` and ``repro top``: spawn N worker processes, attach the
collector, watch, gate.
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.obs.monitor import ContractMonitor, realtime_contract_rules
from repro.obs.agg import StreamAggregator
from repro.obs.probe import PROBE_CATALOG, ProbeEvent, event_from_record
from repro.obs.recorder import build_bundle, dump_bundle
from repro.runtime.telemetry import (
    CAPTURE_SCHEMA,
    TELEMETRY_SCHEMA,
    FrameError,
    WallClock,
    decode_frame,
    encode_frame,
)

__all__ = [
    "TelemetryCollector",
    "LiveCluster",
    "LiveRunResult",
    "free_udp_ports",
]

#: Collector-origin events carry this pseudo node id in the merged feed.
COLLECTOR_NODE = "collector"

#: List levels a row's ``args`` may nest, itself included (a tuple of
#: tuples of primitives is as far as any catalogued probe goes).
_MAX_ARG_DEPTH = 3


def _finite(value: Any) -> float | None:
    """``value`` as a finite float, or ``None`` for anything else
    (strings, booleans, NaN, infinities, integers too large for a float)."""
    if type(value) is not int and type(value) is not float:
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def _primitive_arg(value: Any, depth: int = 0) -> bool:
    if value is None or type(value) in (str, int, float, bool):
        return True
    return (
        type(value) is list
        and depth < _MAX_ARG_DEPTH
        and all(_primitive_arg(v, depth + 1) for v in value)
    )


def _row_record(row: Any) -> dict | None:
    """One wire row ``[n, at, node, kind, args]`` as an ``event_record``
    dict, or ``None`` when it is anything but a well-formed catalogued
    probe — total over whatever JSON a stranger put on the port."""
    if type(row) is not list or len(row) != 5:
        return None
    n, at, node, kind, args = row
    at = _finite(at)
    if (
        type(n) is not int
        or at is None
        or type(node) is not str
        or type(kind) is not str
        or type(args) is not list
        or not _primitive_arg(args)
    ):
        return None
    fields = PROBE_CATALOG.get(kind)
    if fields is None or len(args) != len(fields):
        return None
    return {"n": n, "at": at, "node": node, "kind": kind, "args": args}


def free_udp_ports(n: int) -> list[int]:
    """Reserve ``n`` distinct free localhost UDP ports (bind-probe)."""
    socks = [socket.socket(socket.AF_INET, socket.SOCK_DGRAM) for _ in range(n)]
    try:
        for s in socks:
            s.bind(("127.0.0.1", 0))
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


class _Source:
    """Collector-side state of one worker's stream."""

    __slots__ = (
        "node", "addr", "peer", "last_seq", "watermark", "last_heard",
        "pending", "received", "silent", "closed", "ring_count",
    )

    def __init__(self, node: str, peer: Any, at: float) -> None:
        self.node = node
        self.addr = "?"
        self.peer = peer  #: UDP (host, port) to talk back to (ring pulls)
        self.last_seq = 0
        self.watermark = float("-inf")
        self.last_heard = at
        self.pending: list[tuple[float, str, int, dict]] = []
        self.received = 0
        self.silent = False
        self.closed = False
        #: events the source said its ring dump shipped (``ring_end``)
        self.ring_count: int | None = None


class _CollectorEndpoint(asyncio.DatagramProtocol):
    def __init__(self, collector: "TelemetryCollector") -> None:
        self.collector = collector
        self.transport: asyncio.DatagramTransport | None = None

    def connection_made(self, transport) -> None:  # pragma: no cover - trivial
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        self.collector.on_datagram(data, addr)


class TelemetryCollector:
    """Merge worker telemetry streams; run rollups + contract rules live.

    Parameters
    ----------
    rules:
        Contract rule set evaluated over the merged feed (typically
        :func:`~repro.obs.monitor.realtime_contract_rules`); empty list =
        rollups and captures only.
    clock:
        Injectable time source (``now``/``call_later``); defaults to a
        fresh :class:`~repro.runtime.telemetry.WallClock`.
    reorder:
        Reordering allowance in seconds: events are held until every live
        source's watermark is this far past them.
    silence:
        Seconds without any frame after which a source is declared
        ``telemetry.silent`` and excluded from the watermark.
    capture_path:
        Write released events here as a capture file (JSONL with a
        ``repro.obs.capture/1`` header line).
    postmortem_path:
        Where the breach postmortem bundle is written (default
        ``raintap-postmortem.bundle.json`` in the working directory).
    """

    def __init__(
        self,
        rules: list | None = None,
        *,
        clock: WallClock | None = None,
        reorder: float = 0.05,
        silence: float = 1.0,
        flush_interval: float = 0.25,
        ring_wait: float = 1.5,
        capture_path: str | Path | None = None,
        postmortem_path: str | Path | None = None,
    ) -> None:
        self.clock = clock if clock is not None else WallClock()
        self.reorder = reorder
        self.silence = silence
        self.flush_interval = flush_interval
        self.ring_wait = ring_wait
        self.monitor = ContractMonitor(None, rules or [], clock=self.clock)
        self.agg = StreamAggregator()
        #: Extra consumers of the released feed (``fn(event)``).
        self.listeners: list[Callable[[ProbeEvent], None]] = []
        self.sources: dict[str, _Source] = {}
        self.events_released = 0
        self.frames_received = 0
        self.frames_dropped: dict[str, int] = {}
        self.gaps = 0
        self.events_lost = 0
        #: Live per-node view for ``repro top``: state / view / accepts.
        self.states: dict[str, str] = {}
        self.views: dict[str, tuple[Any, int]] = {}
        self.accepts: dict[str, int] = {}
        self.port: int | None = None
        self.metrics_port: int | None = None
        self.postmortem: dict | None = None
        self.postmortem_path = Path(
            postmortem_path
            if postmortem_path is not None
            else "raintap-postmortem.bundle.json"
        )
        self.postmortem_written: Path | None = None
        self._capture_path = Path(capture_path) if capture_path else None
        self._capture = None
        self._local_pending: list[tuple[float, str, int, dict]] = []
        self._local_seq = 0
        self._rings: dict[str, dict[int, list[dict]]] = {}
        self._rings_done: set[str] = set()
        self._pull_sent = False
        self._pull_due: float | None = None
        self._transport: asyncio.DatagramTransport | None = None
        self._http: asyncio.AbstractServer | None = None
        self._timer = None
        self._running = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def open(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind the telemetry endpoint; returns the bound port."""
        loop = asyncio.get_running_loop()
        transport, _ = await loop.create_datagram_endpoint(
            lambda: _CollectorEndpoint(self), local_addr=(host, port)
        )
        self._transport = transport
        self.port = transport.get_extra_info("sockname")[1]
        if self._capture_path is not None:
            self._capture_path.parent.mkdir(parents=True, exist_ok=True)
            self._capture = open(self._capture_path, "w", encoding="utf-8")
            header = {
                "schema": CAPTURE_SCHEMA,
                "t0": self.clock.now,
                "reorder": self.reorder,
                "silence": self.silence,
            }
            self._capture.write(
                json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
            )
            self._capture.flush()
        return self.port

    async def serve_metrics(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Serve :meth:`metrics_text` over minimal HTTP; returns the port."""

        async def handle(reader, writer) -> None:
            try:
                await reader.readline()  # request line; path is irrelevant
                while True:
                    line = await reader.readline()
                    if not line or line in (b"\r\n", b"\n"):
                        break
                body = self.metrics_text().encode()
                writer.write(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                    + f"Content-Length: {len(body)}\r\n".encode()
                    + b"Connection: close\r\n\r\n"
                    + body
                )
                await writer.drain()
            finally:
                writer.close()

        self._http = await asyncio.start_server(handle, host, port)
        self.metrics_port = self._http.sockets[0].getsockname()[1]
        return self.metrics_port

    def start(self) -> None:
        """Begin periodic watermark flushes on the clock (idempotent)."""
        if self._running:
            return
        self._running = True
        self._timer = self.clock.call_later(self.flush_interval, self._tick)

    def close(self) -> None:
        """Stop flushing and release the socket/capture/HTTP resources."""
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._transport is not None:
            self._transport.close()
            self._transport = None
        if self._http is not None:
            self._http.close()
            self._http = None
        if self._capture is not None:
            self._capture.close()
            self._capture = None

    def _tick(self) -> None:
        if not self._running:
            return
        self.flush()
        self._timer = self.clock.call_later(self.flush_interval, self._tick)

    # ------------------------------------------------------------------
    # frame ingestion
    # ------------------------------------------------------------------
    def _emit(self, kind: str, *args: Any) -> None:
        """Queue one collector-origin ``telemetry.*`` event into the feed."""
        assert len(args) == len(PROBE_CATALOG[kind])
        self._local_seq += 1
        at = self.clock.now
        record = {
            "n": 0,  # assigned at release
            "at": at,
            "node": COLLECTOR_NODE,
            "kind": kind,
            "args": list(args),
        }
        self._local_pending.append((at, COLLECTOR_NODE, self._local_seq, record))

    def _drop(self, where: str, size: int) -> None:
        self.frames_dropped[where] = self.frames_dropped.get(where, 0) + 1
        self._emit("telemetry.drop", where, size)

    def _source(self, node: str, peer: Any) -> _Source:
        src = self.sources.get(node)
        if src is None:
            src = self.sources[node] = _Source(node, peer, self.clock.now)
        else:
            src.peer = peer
        return src

    def on_datagram(self, data: bytes, peer: Any) -> None:
        """Decode and dispatch one frame from a worker."""
        self.frames_received += 1
        try:
            body = decode_frame(data)
        except FrameError as exc:
            self._drop(exc.where, len(data))
            return
        tag = body.get("t")
        node = body.get("src")
        if not isinstance(node, str) or not node:
            self._drop("garbage", len(data))
            return
        src = self._source(node, peer)
        src.last_heard = self.clock.now
        src.silent = False
        if tag == "hello":
            if body.get("schema") != TELEMETRY_SCHEMA:
                self._drop("bad-version", len(data))
                return
            src.addr = str(body.get("addr", "?"))
            src.closed = False
            self._emit("telemetry.hello", node, src.addr, TELEMETRY_SCHEMA)
        elif tag == "probes":
            first, rows = body.get("first"), body.get("rows")
            if type(first) is not int or first < 1 or type(rows) is not list:
                self._drop("garbage", len(data))
                return
            expected = src.last_seq + 1
            if first > expected:  # a whole batch (or several) never arrived
                lost = first - expected
                self.gaps += 1
                self.events_lost += lost
                self._emit("telemetry.gap", node, expected, first, lost)
                src.last_seq = first - 1
            for seq, row in enumerate(rows, first):
                if seq <= src.last_seq:
                    continue  # duplicate or late twin of a released row
                src.last_seq = seq
                record = _row_record(row)
                if record is None:
                    self._drop("bad-row", len(data))
                    continue
                src.received += 1
                at = record["at"]
                src.watermark = max(src.watermark, at)
                src.pending.append((at, record["node"], seq, record))
        elif tag == "mark":
            now = _finite(body.get("now"))
            if now is not None:
                src.watermark = max(src.watermark, now)
        elif tag == "ring":
            rows = body.get("rows")
            part = body.get("part")
            if type(rows) is list and type(part) is int:
                self._rings.setdefault(node, {})[part] = [
                    record
                    for row in rows
                    if (record := _row_record(row)) is not None
                ]
        elif tag == "ring_end":
            self._rings.setdefault(node, {})
            self._rings_done.add(node)
            count = body.get("count")
            src.ring_count = count if type(count) is int else None
        elif tag == "bye":
            src.closed = True
            shipped = body.get("shipped")
            self._emit(
                "telemetry.bye", node, shipped if type(shipped) is int else 0
            )
        else:
            self._drop("garbage", len(data))

    # ------------------------------------------------------------------
    # watermark merge
    # ------------------------------------------------------------------
    def _safe_horizon(self, now: float) -> float:
        """Latest timestamp that is safe to release (watermark merge)."""
        marks = [
            s.watermark
            for s in self.sources.values()
            if not s.closed and not s.silent
        ]
        horizon = min(marks) if marks else now
        return min(horizon, now) - self.reorder

    def _check_silence(self, now: float) -> None:
        for s in self.sources.values():
            if s.closed or s.silent:
                continue
            quiet = now - s.last_heard
            if quiet > self.silence:
                s.silent = True
                self._emit("telemetry.silent", s.node, round(quiet, 3))

    def flush(self, *, force: bool = False) -> int:
        """Release every event at or below the safe horizon, in time order.

        ``force=True`` (shutdown) releases everything still pending.
        Returns the number of events released by this pass; the contract
        monitor is evaluated once at the end of every pass.
        """
        now = self.clock.now
        self._check_silence(now)
        safe = float("inf") if force else self._safe_horizon(now)
        batch: list[tuple[float, str, int, dict]] = []
        for pending in [s.pending for s in self.sources.values()] + [
            self._local_pending
        ]:
            keep = []
            for item in pending:
                (batch if item[0] <= safe else keep).append(item)
            pending[:] = keep
        batch.sort(key=lambda item: (item[0], item[1], item[2]))
        for _, _, _, record in batch:
            self.events_released += 1
            record["n"] = self.events_released
            event = event_from_record(record)
            self.agg.observe(event)
            self.monitor.ingest(event)
            self._track(event)
            if self._capture is not None:
                self._capture.write(
                    json.dumps(record, sort_keys=True, separators=(",", ":"))
                    + "\n"
                )
            for listener in self.listeners:
                listener(event)
        if batch and self._capture is not None:
            self._capture.flush()
        fired = self.monitor.evaluate(now)
        self._postmortem_step(fired, now, force=force)
        return len(batch)

    def _track(self, event: ProbeEvent) -> None:
        kind = event.kind
        if kind == "node.state":
            self.states[event.node] = str(event.args[1])
        elif kind == "view.change":
            self.views[event.node] = (event.args[0], len(event.args[1]))
        elif kind == "token.accept":
            self.accepts[event.node] = self.accepts.get(event.node, 0) + 1

    def node_status(self) -> dict[str, dict[str, Any]]:
        """Per-node live status for the ``repro top`` view."""
        nodes = sorted(set(self.states) | set(self.views) | set(self.accepts))
        return {
            node: {
                "state": self.states.get(node, "?"),
                "view": self.views.get(node, ("-", 0))[0],
                "members": self.views.get(node, ("-", 0))[1],
                "accepts": self.accepts.get(node, 0),
            }
            for node in nodes
            if node != COLLECTOR_NODE
        }

    # ------------------------------------------------------------------
    # breach postmortem
    # ------------------------------------------------------------------
    def request_rings(self) -> None:
        """Ask every registered worker for its flight-recorder ring."""
        if self._transport is None:
            return
        pull = encode_frame({"t": "pull"})
        for s in self.sources.values():
            if s.peer is not None and not s.closed:
                self._transport.sendto(pull, s.peer)

    def _postmortem_step(
        self, fired: list, now: float, *, force: bool = False
    ) -> None:
        if self.postmortem is not None:
            return
        if fired and not self._pull_sent:
            self._pull_sent = True
            self._pull_due = now + self.ring_wait
            self.request_rings()
        if not self._pull_sent:
            return
        expected = {
            s.node
            for s in self.sources.values()
            if not s.closed and not s.silent
        }
        complete = expected <= self._rings_done
        if force or complete or (self._pull_due is not None and now >= self._pull_due):
            self._build_postmortem(now)

    def _build_postmortem(self, now: float) -> None:
        records: list[dict] = []
        for node in sorted(self._rings):
            for part in sorted(self._rings[node]):
                records.extend(self._rings[node][part])
        records.sort(key=lambda r: (r["at"], r["node"]))
        events = [
            event_from_record({**record, "n": i + 1})
            for i, record in enumerate(records)
        ]
        first = self.monitor.alerts[0] if self.monitor.alerts else None
        bundle = build_bundle(
            f"contract:{first.rule}" if first else "contract:unknown",
            detail=first.detail if first else "",
            at=first.at if first else now,
            events=events,
            context={
                "plane": "raintap",
                "sources": {
                    s.node: {
                        "addr": s.addr,
                        "received": s.received,
                        "silent": s.silent,
                        "closed": s.closed,
                        # equal when the ring arrived whole
                        "ring_events": sum(
                            len(rows) for rows in self._rings.get(s.node, {}).values()
                        ),
                        "ring_count": s.ring_count,
                    }
                    for s in self.sources.values()
                },
                "events_released": self.events_released,
                "gaps": self.gaps,
            },
            metrics=self.agg.to_dict(),
            alerts=self.monitor.alert_records(),
        )
        self.postmortem = bundle
        self.postmortem_written = dump_bundle(bundle, self.postmortem_path)

    # ------------------------------------------------------------------
    # /metrics exposition
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        """Prometheus text exposition of the plane's state (never empty)."""
        lines = [
            "# HELP raintap_events_released_total probe events released into the merged feed",
            "# TYPE raintap_events_released_total counter",
            f"raintap_events_released_total {self.events_released}",
            "# HELP raintap_frames_received_total telemetry frames received on the sidecar port",
            "# TYPE raintap_frames_received_total counter",
            f"raintap_frames_received_total {self.frames_received}",
            "# HELP raintap_sources registered probe sources",
            "# TYPE raintap_sources gauge",
            f"raintap_sources {len(self.sources)}",
            "# HELP raintap_gaps_total sequence gaps observed across sources",
            "# TYPE raintap_gaps_total counter",
            f"raintap_gaps_total {self.gaps}",
            "# HELP raintap_events_lost_total probe events lost in shipping (gap sizes)",
            "# TYPE raintap_events_lost_total counter",
            f"raintap_events_lost_total {self.events_lost}",
        ]
        lines += [
            "# HELP raintap_frames_dropped_total frames discarded before the feed",
            "# TYPE raintap_frames_dropped_total counter",
        ]
        for where in sorted(self.frames_dropped):
            lines.append(
                f'raintap_frames_dropped_total{{where="{where}"}} '
                f"{self.frames_dropped[where]}"
            )
        lines += [
            "# HELP raintap_alerts_total contract alerts fired",
            "# TYPE raintap_alerts_total counter",
        ]
        by_severity: dict[str, int] = {}
        for alert in self.monitor.alerts:
            by_severity[alert.severity] = by_severity.get(alert.severity, 0) + 1
        for severity in ("warning", "critical"):
            lines.append(
                f'raintap_alerts_total{{severity="{severity}"}} '
                f"{by_severity.get(severity, 0)}"
            )
        rollup = self.agg.to_dict()
        per_node = rollup["per_node"]
        for metric, key, help_text in (
            ("raintap_node_events_total", "events", "probe events per node"),
            ("raintap_node_token_accepts_total", "token_accepts", "token visits per node"),
            ("raintap_node_bytes_sent_total", "bytes_sent", "datagram bytes sent per node"),
            ("raintap_node_packets_dropped_total", "packets_dropped", "datagrams dropped per node"),
        ):
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} counter")
            for node in sorted(per_node):
                if node == COLLECTOR_NODE:
                    continue
                lines.append(f'{metric}{{node="{node}"}} {per_node[node][key]}')
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# the multi-process driver (repro soak --procs N, repro top)
# ----------------------------------------------------------------------
@dataclass
class LiveRunResult:
    """Outcome of one :class:`LiveCluster` run."""

    formed: bool
    formed_at: float | None
    alerts: list
    events_released: int
    metrics_text: str
    capture_path: Path | None
    postmortem_path: Path | None
    worker_rcs: dict[str, int]
    killed: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """The soak gate: formed, zero alerts, live metrics, clean exits."""
        return (
            self.formed
            and not self.alerts
            and bool(self.metrics_text.strip())
            and all(rc == 0 for nid, rc in self.worker_rcs.items()
                    if nid not in self.killed)
        )


class LiveCluster:
    """Spawn N real worker processes and watch them through the collector.

    Builds the ring the same way ``examples/multiprocess_demo.py`` does —
    the first node bootstraps, the rest join via it — but with every
    worker shipping probes to an in-process :class:`TelemetryCollector`
    evaluating :func:`~repro.obs.monitor.realtime_contract_rules` live.
    ``kill_at`` maps node id → wall seconds after start at which that
    worker is SIGKILLed (the telemetry plane must notice and cut a
    postmortem; nobody tells it).
    """

    def __init__(
        self,
        procs: int,
        *,
        seconds: float = 5.0,
        hop_interval: float = 0.02,
        kill_at: dict[str, float] | None = None,
        capture_path: str | Path | None = None,
        postmortem_path: str | Path | None = None,
        metrics_port: int | None = None,
        silence: float = 1.0,
        report_every: float = 1.0,
        on_line: Callable[[str], None] | None = None,
    ) -> None:
        if procs < 2:
            raise ValueError("need at least 2 worker processes for a ring")
        self.ids = [f"n{i:02d}" for i in range(procs)]
        self.seconds = seconds
        self.hop_interval = hop_interval
        self.kill_at = dict(kill_at or {})
        unknown = sorted(set(self.kill_at) - set(self.ids))
        if unknown:
            raise ValueError(f"kill targets not in the cluster: {unknown}")
        self.capture_path = capture_path
        self.postmortem_path = postmortem_path
        self.metrics_port = metrics_port
        self.silence = silence
        self.report_every = report_every
        self.on_line = on_line
        self.collector: TelemetryCollector | None = None
        self.formed_at: float | None = None
        self._accept_snapshot: dict[str, int] = {}
        self._last_report: float | None = None

    def _line(self, text: str) -> None:
        if self.on_line is not None:
            self.on_line(text)

    def status_line(self, t: float) -> str:
        """One redraw-free ``repro top`` line: per-node state, view, rate."""
        assert self.collector is not None
        status = self.collector.node_status()
        dt = t - self._last_report if self._last_report is not None else None
        cells = []
        for node in self.ids:
            s = status.get(node)
            if s is None:
                cells.append(f"{node}:—")
                continue
            accepts = s["accepts"]
            if dt and dt > 0:
                rate = (accepts - self._accept_snapshot.get(node, 0)) / dt
                rate_str = f"{rate:5.1f} tok/s"
            else:
                rate_str = f"{accepts:>4} tok"
            self._accept_snapshot[node] = accepts
            cells.append(f"{node}:{s['state']:<8} v{s['view']} {rate_str}")
        self._last_report = t
        alerts = len(self.collector.monitor.alerts)
        flag = "ALERT" if alerts else "ok   "
        return f"t={t:7.2f}s  {flag}  " + "  ".join(cells) + f"  alerts={alerts}"

    def _worker_cmd(self, nid: str, ports: dict[str, int]) -> list[str]:
        assert self.collector is not None and self.collector.port is not None
        peers = ",".join(f"{n}={p}" for n, p in ports.items())
        cmd = [
            sys.executable, "-m", "repro.runtime.worker",
            "--node", nid, "--port", str(ports[nid]),
            "--peers", peers,
            "--duration", str(self.seconds),
            "--hop-interval", str(self.hop_interval),
            "--telemetry", f"127.0.0.1:{self.collector.port}",
        ]
        if nid == self.ids[0]:
            cmd.append("--bootstrap")
        else:
            cmd += ["--contact", self.ids[0]]
        return cmd

    async def run(self) -> LiveRunResult:
        loop = asyncio.get_running_loop()
        clock = WallClock(loop)
        from repro.core.config import RaincoreConfig

        config = RaincoreConfig.tuned(
            ring_size=len(self.ids), hop_interval=self.hop_interval
        )
        rules = realtime_contract_rules(
            config, len(self.ids), silence_timeout=self.silence
        )
        collector = TelemetryCollector(
            rules,
            clock=clock,
            silence=self.silence,
            capture_path=self.capture_path,
            postmortem_path=self.postmortem_path,
        )
        self.collector = collector
        await collector.open()
        if self.metrics_port is not None:
            port = await collector.serve_metrics(port=self.metrics_port)
            self._line(f"metrics: http://127.0.0.1:{port}/metrics")
        collector.start()

        expected = set(self.ids)

        def watch_formation(event: ProbeEvent) -> None:
            if (
                self.formed_at is None
                and event.kind == "view.change"
                and set(event.args[1]) == expected
            ):
                self.formed_at = event.at

        collector.listeners.append(watch_formation)

        ports = dict(zip(self.ids, free_udp_ports(len(self.ids))))
        start = clock.now
        procs: dict[str, asyncio.subprocess.Process] = {}
        try:
            procs[self.ids[0]] = await asyncio.create_subprocess_exec(
                *self._worker_cmd(self.ids[0], ports),
                stdout=asyncio.subprocess.PIPE,
                stderr=asyncio.subprocess.PIPE,
            )
            await asyncio.sleep(0.25)  # let the bootstrap node bind + mint
            for nid in self.ids[1:]:
                procs[nid] = await asyncio.create_subprocess_exec(
                    *self._worker_cmd(nid, ports),
                    stdout=asyncio.subprocess.PIPE,
                    stderr=asyncio.subprocess.PIPE,
                )

            killed: list[str] = []
            pending_kills = dict(self.kill_at)
            next_report = self.report_every
            deadline = self.seconds + max(10.0, self.seconds)
            while any(p.returncode is None for p in procs.values()):
                await asyncio.sleep(0.1)
                t = clock.now - start
                for nid, at in list(pending_kills.items()):
                    if t >= at and procs[nid].returncode is None:
                        procs[nid].kill()
                        killed.append(nid)
                        del pending_kills[nid]
                        self._line(f"t={t:7.2f}s  KILL   {nid} (SIGKILL injected)")
                if t >= next_report:
                    next_report += self.report_every
                    self._report_alerts()
                    self._line(self.status_line(t))
                if t > deadline:  # hang guard: a wedged worker fails the run
                    for p in procs.values():
                        if p.returncode is None:
                            p.kill()
            outs = {
                nid: await p.communicate() for nid, p in procs.items()
            }
        finally:
            # drain in-flight frames, then force-release and finalize
            await asyncio.sleep(max(0.3, 3 * collector.reorder))
            collector.flush(force=True)
            self._report_alerts()
            metrics = collector.metrics_text()
            collector.close()

        rcs = {nid: procs[nid].returncode or 0 for nid in procs}
        for nid, (_, err) in outs.items():
            if rcs[nid] != 0 and nid not in killed and err:
                self._line(f"{nid} stderr: {err.decode(errors='replace').strip()}")
        return LiveRunResult(
            formed=self.formed_at is not None,
            formed_at=self.formed_at,
            alerts=list(collector.monitor.alerts),
            events_released=collector.events_released,
            metrics_text=metrics,
            capture_path=Path(self.capture_path) if self.capture_path else None,
            postmortem_path=collector.postmortem_written,
            worker_rcs=rcs,
            killed=killed,
        )

    _alerts_seen = 0

    def _report_alerts(self) -> None:
        assert self.collector is not None
        fresh = self.collector.monitor.alerts[self._alerts_seen:]
        self._alerts_seen = len(self.collector.monitor.alerts)
        for alert in fresh:
            self._line("ALERT " + alert.describe())
