"""raintap worker side: probe shipping over a sidecar telemetry channel.

Every simulator-era observability consumer (aggregator, contract monitor,
flight recorder, diff) reads one thing: a time-ordered stream of
:class:`~repro.obs.probe.ProbeEvent`.  On a multi-process real-UDP cluster
those events are born in N different processes with N different monotonic
clocks; this module is the bridge.  Each worker attaches its
:class:`~repro.obs.probe.ProbeBus` to a :class:`TelemetryShipper`, which

* restamps every event from the worker's monotonic scheduler clock onto
  the shared epoch wall clock (one fixed offset, measured at start-up, so
  intra-worker ordering and inter-event gaps are preserved exactly);
* batches them into versioned, length-prefixed **JSON** frames — never
  pickle: the telemetry port is a listening socket and frames from it
  must be safe to parse no matter who sent them — one ``probes`` frame of
  up to :data:`_PROBE_BATCH` compact rows per ``sendto`` over a dedicated
  UDP sidecar socket to the in-process collector
  (:mod:`repro.runtime.collector`);
* heartbeats a ``mark`` frame when the node is idle, so the collector's
  per-source watermark advances and merged events never wait on a quiet
  worker;
* keeps the node's :class:`~repro.obs.recorder.FlightRecorder` ring and
  answers the collector's ``pull`` request with a chunked dump of it —
  the raw material of a breach-time postmortem bundle.

Wire format of one frame (docs/TELEMETRY.md)::

    b"RTAP" | version (u8) | body length (u32, big-endian) | JSON body

The body is a JSON object with a ``t`` tag: ``hello``, ``probes``,
``mark``, ``pull``, ``ring``, ``ring_end``, ``bye``.  A ``probes`` body is
``{"first": seq, "rows": [[n, at, node, kind, args], ...], "src": ...}``:
row *i* is the event with sequence number ``first + i``.  Frames above
:data:`MAX_FRAME_BYTES` or failing any prefix/length/JSON check raise
:class:`FrameError` on decode; the collector counts them as
``telemetry.drop`` and moves on.

This module runs on the wall-clock side of the determinism fence (like
:mod:`repro.obs.prof`): it reads ``time.time`` to compute the epoch
offset.  It never feeds the *simulated* probe stream — only the collector
feed, which is wall-clock by definition.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time
from typing import Any, Callable

from repro.obs.probe import ProbeEvent

__all__ = [
    "TELEMETRY_MAGIC",
    "TELEMETRY_VERSION",
    "TELEMETRY_SCHEMA",
    "MAX_FRAME_BYTES",
    "CAPTURE_SCHEMA",
    "FrameError",
    "encode_frame",
    "decode_frame",
    "WallClock",
    "TelemetryShipper",
]

#: Frame prefix: 4 magic bytes, then a version byte, then a u32 length.
TELEMETRY_MAGIC = b"RTAP"
TELEMETRY_VERSION = 2
_HEADER = struct.Struct(">4sBI")

#: Schema number carried in ``hello`` frames; collectors refuse sources
#: speaking a different probe-record schema.
TELEMETRY_SCHEMA = 1

#: Cap on one encoded telemetry frame (header included) — under the
#: 65507-byte UDP payload limit with headroom for the sidecar's own use.
MAX_FRAME_BYTES = 60_000

#: Header schema of collector capture files: a JSONL file whose first
#: line is ``{"schema": "repro.obs.capture/1", ...}`` and whose remaining
#: lines are ``event_record`` objects with epoch-wall-clock ``at``.
CAPTURE_SCHEMA = "repro.obs.capture/1"

#: Ring-dump chunking: events per ``ring`` frame (same rows as ``probes``).
_RING_CHUNK = 24

#: Events per ``probes`` frame.  A row is 60-80 B, so a full batch is a
#: ~5 kB datagram; a partial one leaves on the worker's next loop tick.
_PROBE_BATCH = 64

#: Every body literal in this module lists its keys in sorted order, so
#: frames are byte-stable without a ``sort_keys`` pass per encode.
_dumps = json.JSONEncoder(separators=(",", ":")).encode


class FrameError(ValueError):
    """A telemetry frame failed a prefix, length, or JSON check.

    ``where`` is the machine-readable drop label the collector reports
    (``oversized``, ``bad-magic``, ``bad-version``, ``garbage``); the
    collector adds ``bad-row`` for a malformed row inside a good frame.
    """

    def __init__(self, where: str, detail: str) -> None:
        super().__init__(f"{where}: {detail}")
        self.where = where


def encode_frame(body: dict[str, Any]) -> bytes:
    """Encode one frame body; raises :class:`FrameError` when oversized."""
    payload = _dumps(body).encode()
    data = _HEADER.pack(TELEMETRY_MAGIC, TELEMETRY_VERSION, len(payload)) + payload
    if len(data) > MAX_FRAME_BYTES:
        raise FrameError("oversized", f"{len(data)} B > {MAX_FRAME_BYTES} B")
    return data


def decode_frame(data: bytes) -> dict[str, Any]:
    """Decode one frame; raises :class:`FrameError` on anything malformed."""
    if len(data) > MAX_FRAME_BYTES:
        raise FrameError("oversized", f"{len(data)} B > {MAX_FRAME_BYTES} B")
    if len(data) < _HEADER.size or not data.startswith(TELEMETRY_MAGIC):
        raise FrameError("bad-magic", "missing RTAP prefix")
    magic, version, length = _HEADER.unpack_from(data)
    if version != TELEMETRY_VERSION:
        raise FrameError("bad-version", f"version {version}")
    payload = data[_HEADER.size:]
    if len(payload) != length:
        raise FrameError("garbage", f"length says {length} B, got {len(payload)} B")
    try:
        body = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FrameError("garbage", f"body is not JSON ({exc})") from exc
    if not isinstance(body, dict) or not isinstance(body.get("t"), str):
        raise FrameError("garbage", "body is not a tagged object")
    return body


class WallClock:
    """Epoch wall clock with ``now``/``call_later`` — the monitor's clock.

    ``now`` is ``asyncio`` loop time shifted onto the Unix epoch by one
    offset measured at construction, so it is (a) monotone within the
    process — timers never run backwards — and (b) directly comparable to
    the restamped event timestamps every worker ships, which use the same
    epoch.  ``call_later`` delegates to the asyncio loop, which is how a
    :class:`~repro.obs.monitor.ContractMonitor` handed this clock ticks
    in real time.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._offset = time.time() - self._loop.time()

    @property
    def now(self) -> float:
        return self._loop.time() + self._offset

    def call_later(
        self, delay: float, callback: Callable[..., None], *args: Any,
        priority: int = 0,
    ):
        """Schedule ``callback(*args)``; ``priority`` accepted and ignored
        (wall time does not produce exact ties)."""
        return self._loop.call_later(delay, callback, *args)


class TelemetryShipper:
    """Ships one worker's probe events to the collector in batched frames.

    Parameters
    ----------
    source:
        This worker's node id — the collector's per-source stream key.
    send:
        ``send(data: bytes) -> None`` over the sidecar channel.  Injected
        so the same shipper runs over a connected UDP socket (the worker),
        or a no-op sink (the ``telemetry_overhead_ratio`` benchmark).
    clock_offset:
        ``epoch_now - scheduler_now`` measured at worker start-up; added
        to every event's ``at`` so all shipped timestamps live on the
        shared epoch timeline.
    recorder:
        Optional :class:`~repro.obs.recorder.FlightRecorder` whose ring
        answers the collector's ``pull`` (breach postmortem).

    Subscribe with ``bus.subscribe(shipper.on_probe)`` — the shipper is a
    plain bus listener, so attaching it costs the same one-call fan-out
    as any other subscriber.  Whoever owns the shipper calls
    :meth:`flush` on a timer shorter than the collector's reorder
    allowance (the worker's 20 ms loop tick), so a quiet node's last
    events do not wait for the batch to fill.
    """

    def __init__(
        self,
        source: str,
        send: Callable[[bytes], None],
        *,
        clock_offset: float = 0.0,
        recorder=None,
    ) -> None:
        self.source = source
        self.send = send
        self.clock_offset = clock_offset
        self.recorder = recorder
        self.shipped = 0
        self.oversized = 0
        self._seq = 0  #: sequence number of the last event taken
        self._batch: list[ProbeEvent] = []  #: taken, not yet framed

    # ------------------------------------------------------------------
    # outbound frames
    # ------------------------------------------------------------------
    def hello(self, addr: str) -> None:
        """Announce this source (first frame on the channel)."""
        self.send(
            encode_frame(
                {
                    "addr": addr,
                    "schema": TELEMETRY_SCHEMA,
                    "src": self.source,
                    "t": "hello",
                }
            )
        )

    def _rows(self, events: list[ProbeEvent]) -> list[tuple]:
        """Wire rows ``[n, at, node, kind, args]``, restamped onto the epoch."""
        offset = self.clock_offset
        return [(e.n, e.at + offset, e.node, e.kind, e.args) for e in events]

    def on_probe(self, event: ProbeEvent) -> None:
        """Bus listener: take one probe event into the current batch."""
        self._seq += 1
        self._batch.append(event)
        if len(self._batch) >= _PROBE_BATCH:
            self.flush()

    def flush(self) -> None:
        """Frame and ship the events taken since the last flush."""
        batch = self._batch
        if batch:
            self._batch = []
            self._ship(self._seq - len(batch) + 1, batch)

    def _ship(self, first: int, batch: list[ProbeEvent]) -> None:
        """Ship ``batch`` (sequence numbers ``first``...) as one frame.

        A batch whose frame would exceed the cap is halved and retried; a
        single event that still does not fit is counted in ``oversized``
        and *not* shipped — its sequence number stays consumed, so the
        collector sees an honest ``telemetry.gap`` instead of a silently
        complete stream.
        """
        try:
            data = encode_frame(
                {
                    "first": first,
                    "rows": self._rows(batch),
                    "src": self.source,
                    "t": "probes",
                }
            )
        except FrameError:
            if len(batch) == 1:
                self.oversized += 1
                return
            half = len(batch) // 2
            self._ship(first, batch[:half])
            self._ship(first + half, batch[half:])
            return
        self.shipped += len(batch)
        self.send(data)

    def mark(self) -> None:
        """Heartbeat: advance the collector's watermark while idle."""
        self.flush()
        self.send(
            encode_frame(
                {
                    "now": time.time(),
                    "seq": self._seq,
                    "shipped": self.shipped,
                    "src": self.source,
                    "t": "mark",
                }
            )
        )

    def bye(self) -> None:
        """Close the stream cleanly (silence after this is not an alert)."""
        self.flush()
        self.send(
            encode_frame(
                {"shipped": self.shipped, "src": self.source, "t": "bye"}
            )
        )

    # ------------------------------------------------------------------
    # inbound frames (the collector talks back)
    # ------------------------------------------------------------------
    def dump_ring(self) -> None:
        """Ship the flight-recorder ring as chunked ``ring`` frames.

        ``ring_end.count`` is the number of events that actually left: a
        chunk too large to frame is counted in ``oversized`` and missing
        from the count, so the collector can tell a partial ring from a
        complete one.
        """
        self.flush()
        events = self.recorder.snapshot() if self.recorder is not None else []
        parts = count = 0
        for i in range(0, len(events), _RING_CHUNK):
            chunk = self._rows(events[i : i + _RING_CHUNK])
            try:
                data = encode_frame(
                    {
                        "part": parts,
                        "rows": chunk,
                        "src": self.source,
                        "t": "ring",
                    }
                )
            except FrameError:
                self.oversized += 1  # keep the rest of the ring
                continue
            parts += 1
            count += len(chunk)
            self.send(data)
        self.send(
            encode_frame(
                {
                    "count": count,
                    "parts": parts,
                    "src": self.source,
                    "t": "ring_end",
                }
            )
        )

    def on_datagram(self, data: bytes) -> None:
        """Handle one frame from the collector (currently only ``pull``)."""
        try:
            body = decode_frame(data)
        except FrameError:
            return  # not ours to report; the collector audits its own side
        if body.get("t") == "pull":
            self.dump_ring()
