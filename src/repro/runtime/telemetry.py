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
* batches them into versioned, length-prefixed **typed binary** frames —
  never pickle: the telemetry port is a listening socket and frames from
  it must be safe to parse no matter who sent them — one ``probes`` frame
  of up to :data:`_PROBE_BATCH` rows per ``sendto`` over a dedicated UDP
  sidecar socket to the in-process collector (:mod:`repro.runtime.collector`);
* heartbeats a ``mark`` frame when the node is idle, so the collector's
  per-source watermark advances and merged events never wait on a quiet
  worker;
* keeps the node's :class:`~repro.obs.recorder.FlightRecorder` ring and
  answers the collector's ``pull`` request with a chunked dump of it —
  the raw material of a breach-time postmortem bundle.

Wire format of one frame, RTAP v3 (docs/TELEMETRY.md)::

    frame   := b"RTAP" | version (u8) = 3 | body length (u32) | body
    body    := tag (u8) | strings | fields | row*
    strings := count (u16) | length (u16) * count | UTF-8 bytes, joined
    row     := length (u16) | at (f64) | node | kind | args

All integers are big-endian.  Every string of a frame is stored once in
its table and written elsewhere as its u16 index.  ``fields`` is the
tag's layout from :data:`FRAME_FIELDS`; ``args`` is the row kind's layout
from :data:`~repro.obs.probe.PROBE_TYPES` — both compiled into ``struct``
formats (a kind's row packer on its first use), so the declaration *is*
the grammar.  Only ``probes`` and ``ring`` frames carry rows; a row's
sequence number is its position (``first + i``), so the bus ordinal does
not travel.  :func:`decode_frame` is total: a frame failing a prefix,
length or layout check raises :class:`FrameError`, and a row that breaks
its kind's declared types decodes as ``None`` for the collector to count
as a ``bad-row`` drop.

This module runs on the wall-clock side of the determinism fence (like
:mod:`repro.perf`): it reads ``time.time`` to compute the epoch
offset.  It never feeds the *simulated* probe stream — only the collector
feed, which is wall-clock by definition.
"""

from __future__ import annotations

import asyncio
import math
import struct
import time
from collections import defaultdict, namedtuple
from itertools import count
from typing import Any, Callable, Iterable

from repro.obs.probe import (
    ANY_DEPTH,
    JOURNAL_BOUND,
    PROBE_TYPES,
    ProbeBus,
    ProbeConsumer,
    ProbeEvent,
    split_fields,
)

__all__ = [
    "TELEMETRY_MAGIC",
    "TELEMETRY_VERSION",
    "TELEMETRY_SCHEMA",
    "MAX_FRAME_BYTES",
    "CAPTURE_SCHEMA",
    "FRAME_FIELDS",
    "FrameError",
    "encode_frame",
    "decode_frame",
    "WallClock",
    "TelemetryShipper",
]

#: Frame prefix: 4 magic bytes, then a version byte, then a u32 length.
TELEMETRY_MAGIC = b"RTAP"
TELEMETRY_VERSION = 3
_HEADER = struct.Struct(">4sBI")

#: Schema number carried in ``hello`` frames; collectors refuse sources
#: speaking a different probe-record schema.  2: ``mcast.deliver`` is one
#: row per delivery run (its ``count`` field); 3: ``mcast.attach`` is one
#: row per pack (its ``count`` field, ``size`` the pack's payload bytes).
TELEMETRY_SCHEMA = 3

#: Cap on one encoded telemetry frame (header included) — under the
#: 65507-byte UDP payload limit with headroom for the sidecar's own use.
MAX_FRAME_BYTES = 60_000

#: Header schema of collector capture files: a JSONL file whose first
#: line is ``{"schema": "repro.obs.capture/3", ...}`` and whose remaining
#: lines are ``event_record`` objects with epoch-wall-clock ``at``.  /2
#: carries delivery runs and /3 attach runs; older files load with their
#: per-message delivers and attaches as runs of one.
CAPTURE_SCHEMA = "repro.obs.capture/3"

#: Ring-dump chunking: events per ``ring`` frame (same rows as ``probes``).
_RING_CHUNK = 24

#: Events per ``probes`` frame: one journal drain's worth.  A row is 34-44
#: B for most kinds, so a full batch is a ~2.5 kB datagram.
_PROBE_BATCH = JOURNAL_BOUND

#: tag -> the fields after the string table, declared like probe kinds.
#: A body's first byte is its tag's position in this table.
FRAME_FIELDS: dict[str, str] = {
    "hello": "src:str addr:str schema:int",
    "probes": "src:str first:int",
    "mark": "src:str now:float seq:int shipped:int",
    "pull": "",
    "ring": "src:str part:int",
    "ring_end": "src:str count:int parts:int",
    "bye": "src:str shipped:int",
}
_ROW_FRAMES = ("probes", "ring")


class FrameError(ValueError):
    """A telemetry frame failed a prefix, length, or layout check.

    ``where`` is the machine-readable drop label the collector reports
    (``oversized``, ``bad-magic``, ``bad-version``, ``garbage``); the
    collector adds ``bad-row`` for a row that breaks its declared types
    inside a good frame, and the encoder raises ``bad-row`` for an event
    whose arguments do not fit them.
    """

    def __init__(self, where: str, detail: str) -> None:
        super().__init__(f"{where}: {detail}")
        self.where = where


class _Unfit(Exception):
    """A value that does not fit its declared type (either direction)."""


# ----------------------------------------------------------------------
# the codec, compiled from the declarations
# ----------------------------------------------------------------------
#: ``struct`` code of each fixed-size type (a ``str`` is its table index).
_CODE = {"str": "H", "int": "q", "float": "d", "bool": "B"}
_U16 = struct.Struct(">H")
_ROW_HEAD = struct.Struct(">dHH")  # at, node, kind
_ANY_INT = struct.Struct(">Bq")
_ANY_FLOAT = struct.Struct(">Bd")
_ANY_STR = struct.Struct(">BH")
_ANY_SEQ = struct.Struct(">BB")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")


def _string_refs() -> defaultdict[str, int]:
    """A frame's string table under construction: ``strings[s]`` is the
    index of ``s``, assigned in first-use order (no Python call per miss)."""
    return defaultdict(count().__next__)


def _pack_strs(value, strings: defaultdict[str, int]) -> bytes:
    refs = [strings[s] for s in value]
    return struct.pack(f">H{len(refs)}H", len(refs), *refs)


def _pack_any(value, strings: defaultdict[str, int], depth: int = 0) -> bytes:
    """Tagged value: 0 None, 1 False, 2 True, 3 int, 4 float, 5 str,
    6 tuple (u8 count, then the items)."""
    kind = type(value)
    if kind is str:
        return _ANY_STR.pack(5, strings[value])
    if kind is int:
        return _ANY_INT.pack(3, value)
    if kind is bool:
        return b"\x02" if value else b"\x01"
    if value is None:
        return b"\x00"
    if kind is float:
        return _ANY_FLOAT.pack(4, value)
    if (kind is tuple or kind is list) and depth < ANY_DEPTH:
        parts = [_ANY_SEQ.pack(6, len(value))]
        for item in value:  # the scalar cases inline: a token ctx is five
            kind = type(item)
            if kind is str:
                parts.append(_ANY_STR.pack(5, strings[item]))
            elif kind is int:
                parts.append(_ANY_INT.pack(3, item))
            elif kind is bool:
                parts.append(b"\x02" if item else b"\x01")
            else:
                parts.append(_pack_any(item, strings, depth + 1))
        return b"".join(parts)
    raise _Unfit(f"{kind.__name__} in an any field")


def _unpack_strs(row: bytes, off: int, strings: list[str]) -> tuple[tuple, int]:
    (count,) = _U16.unpack_from(row, off)
    refs = struct.unpack_from(f">{count}H", row, off + 2)
    return tuple([strings[i] for i in refs]), off + 2 + 2 * count


def _unpack_any(row: bytes, off: int, strings: list[str], depth: int = 0) -> tuple[Any, int]:
    tag = row[off]
    off += 1
    if tag <= 2:
        return (None, False, True)[tag], off
    if tag == 3:
        return _I64.unpack_from(row, off)[0], off + 8
    if tag == 4:
        return _finite(_F64.unpack_from(row, off)[0]), off + 8
    if tag == 5:
        return strings[_U16.unpack_from(row, off)[0]], off + 2
    if tag == 6 and depth < ANY_DEPTH:
        count = row[off]
        off += 1
        items = []
        for _ in range(count):
            item, off = _unpack_any(row, off, strings, depth + 1)
            items.append(item)
        return tuple(items), off
    raise _Unfit(f"any-tag {tag} at depth {depth}")


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise _Unfit("non-finite float")
    return value


def _flag(value: int) -> bool:
    if value > 1:
        raise _Unfit(f"bool byte {value}")
    return value == 1


#: Fixed-size wire value -> Python value (``None``: taken as is).
_FROM_WIRE: dict[str, Callable | None] = {
    "str": None, "int": None, "float": _finite, "bool": _flag,
}
_TAILS = {"strs": (_pack_strs, _unpack_strs), "any": (_pack_any, _unpack_any)}


def _split_tail(types: tuple[str, ...]) -> tuple[tuple[str, ...], str | None]:
    if types and types[-1] in _TAILS:
        return types[:-1], types[-1]
    return types, None


def _row_encoder(kind: str) -> Callable:
    """Compile one kind's straight-line row packer.

    ``encode(at, node, args, strings) -> bytes`` writes one row with its
    length prefix; ``strings`` is the frame's table from :func:`_string_refs`.
    """
    fixed, tail = _split_tail(PROBE_TYPES[kind])
    head = struct.Struct(">HdHH" + "".join(_CODE[t] for t in fixed))
    names = [f"a{i}" for i in range(len(PROBE_TYPES[kind]))]
    values = ["at", "strings[node]", "strings[KIND]"]
    values += [f"strings[{a}]" if t == "str" else a for a, t in zip(names, fixed)]
    lines = ["def encode(at, node, args, strings):"]
    lines.append(f"    {', '.join(names)}, = args" if names else "    if args: raise UNFIT")
    if tail is None:
        lines.append(f"    return PACK(SIZE, {', '.join(values)})")
    else:
        lines.append(f"    tail = TAIL({names[-1]}, strings)")
        lines.append(f"    return PACK(SIZE + len(tail), {', '.join(values)}) + tail")
    namespace = {
        "PACK": head.pack,
        "SIZE": head.size - _U16.size,
        "KIND": kind,
        "TAIL": _TAILS[tail][0] if tail else None,
        "UNFIT": _Unfit(f"{kind} takes no args"),
    }
    exec("\n".join(lines), namespace)
    return namespace["encode"]


class _Encoders(dict):
    """kind -> its row packer, compiled the first time the kind ships
    (an unknown kind is a ``KeyError``)."""

    def __missing__(self, kind: str) -> Callable:
        encoder = self[kind] = _row_encoder(kind)
        return encoder


def _row_decoder(types: tuple[str, ...]) -> Callable:
    """``decode(row, strings) -> args`` for one kind; raises on any misfit."""
    fixed, tail = _split_tail(types)
    layout = struct.Struct(">" + "".join(_CODE[t] for t in fixed))
    convert = [_FROM_WIRE[t] for t in fixed]
    refs = [i for i, t in enumerate(fixed) if t == "str"]
    unpack_tail = _TAILS[tail][1] if tail else None

    def decode(row: bytes, strings: list[str]) -> tuple:
        args = list(layout.unpack_from(row, _ROW_HEAD.size))
        for i in refs:
            args[i] = strings[args[i]]
        for i, conv in enumerate(convert):
            if conv is not None:
                args[i] = conv(args[i])
        off = _ROW_HEAD.size + layout.size
        if unpack_tail is not None:
            value, off = unpack_tail(row, off, strings)
            args.append(value)
        if off != len(row):
            raise _Unfit("row length disagrees with its kind")
        return tuple(args)

    return decode


_ENCODERS = _Encoders()
_DECODERS = {kind: _row_decoder(types) for kind, types in PROBE_TYPES.items()}


def _frame_layout(spec: str) -> tuple[tuple[str, ...], tuple[str, ...], struct.Struct]:
    names, types = split_fields(spec)
    return names, types, struct.Struct(">" + "".join(_CODE[t] for t in types))


_FRAMES = {tag: _frame_layout(spec) for tag, spec in FRAME_FIELDS.items()}
_TAGS = tuple(FRAME_FIELDS)
_TAG_BYTE = {tag: bytes([i]) for i, tag in enumerate(_TAGS)}

#: A row handed to :func:`encode_frame` as a plain sequence.
_Row = namedtuple("_Row", "at node kind args")

_ROW_ERRORS = (KeyError, TypeError, ValueError, struct.error, _Unfit)


def _string_table(strings: defaultdict[str, int]) -> bytes:
    if not all(type(s) is str for s in strings):
        raise _Unfit("a str field holds something else")
    raw = [s.encode() for s in strings]
    sizes = [len(b) for b in raw]
    return struct.pack(f">{len(raw) + 1}H", len(raw), *sizes) + b"".join(raw)


def _encode(tag: str, values: tuple, rows: Iterable = (), offset: float = 0.0) -> bytes:
    """One frame: ``values`` in :data:`FRAME_FIELDS` order; ``rows`` are
    events (``at``/``node``/``kind``/``args``), ``at`` shifted by
    ``offset``."""
    _, types, layout = _FRAMES[tag]
    strings = _string_refs()
    try:
        if any(t == "str" and type(v) is not str for t, v in zip(types, values)):
            raise _Unfit("a str field holds something else")
        head = layout.pack(
            *[strings[v] if t == "str" else v for t, v in zip(types, values)]
        )
    except (TypeError, struct.error, _Unfit) as exc:
        raise FrameError("garbage", f"{tag} fields do not fit ({exc})") from None
    encoders = _ENCODERS
    try:
        packed = [
            encoders[e.kind](e.at + offset, e.node, e.args, strings) for e in rows
        ]
        table = _string_table(strings)
    except _ROW_ERRORS as exc:
        raise FrameError("bad-row", f"a row does not fit its kind ({exc!r})") from None
    body = b"".join([_TAG_BYTE[tag], table, head, *packed])
    if _HEADER.size + len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            "oversized", f"{_HEADER.size + len(body)} B > {MAX_FRAME_BYTES} B"
        )
    return _HEADER.pack(TELEMETRY_MAGIC, TELEMETRY_VERSION, len(body)) + body


def encode_frame(body: dict[str, Any]) -> bytes:
    """Encode ``{"t": tag, <its declared fields>[, "rows": [...]]}``.

    Rows are ``(at, node, kind, args)`` sequences.  Raises
    :class:`FrameError`: ``garbage`` for an unknown tag or fields that are
    missing, extra or ill-typed, ``bad-row`` for a row that does not fit
    its kind, ``oversized`` past :data:`MAX_FRAME_BYTES`.
    """
    tag = body.get("t")
    if tag not in _FRAMES:
        raise FrameError("garbage", f"unknown frame tag {tag!r}")
    names = _FRAMES[tag][0]
    allowed = {"t", *names, *(("rows",) if tag in _ROW_FRAMES else ())}
    if not allowed >= set(body) or not set(body) >= {"t", *names}:
        raise FrameError("garbage", f"{tag} takes exactly {sorted(allowed)}")
    rows = ()
    if tag in _ROW_FRAMES:
        try:
            rows = [_Row(*row) for row in body.get("rows", ())]
        except TypeError as exc:
            raise FrameError("bad-row", f"a row is not four fields ({exc})") from None
    return _encode(tag, tuple(body[name] for name in names), rows)


def _decode_row(row: bytes, strings: list[str]) -> tuple | None:
    """``(at, node, kind, args)``, or ``None`` for a row that breaks its
    declared types (unknown kind, bad index, short or long, ...)."""
    try:
        at, node, kind = _ROW_HEAD.unpack_from(row)
        node, kind = strings[node], strings[kind]
        return (_finite(at), node, kind, _DECODERS[kind](row, strings))
    except (IndexError, KeyError, struct.error, _Unfit):
        return None


def _decode_body(body: bytes) -> dict[str, Any]:
    tag = _TAGS[body[0]]
    (count,) = _U16.unpack_from(body, 1)
    sizes = struct.unpack_from(f">{count}H", body, 3)
    off = 3 + 2 * count
    strings: list[str] = []
    for size in sizes:
        if off + size > len(body):
            raise _Unfit("a string runs past the body")
        strings.append(body[off : off + size].decode())
        off += size
    names, types, layout = _FRAMES[tag]
    out: dict[str, Any] = {"t": tag}
    for name, t, value in zip(names, types, layout.unpack_from(body, off)):
        out[name] = strings[value] if t == "str" else _finite(value) if t == "float" else value
    off += layout.size
    if tag in _ROW_FRAMES:
        rows = []
        while off < len(body):
            (size,) = _U16.unpack_from(body, off)
            off += 2
            if off + size > len(body):
                raise _Unfit("a row runs past the body")
            rows.append(_decode_row(body[off : off + size], strings))
            off += size
        out["rows"] = rows
    elif off != len(body):
        raise _Unfit("bytes after the fields")
    return out


def decode_frame(data: bytes) -> dict[str, Any]:
    """Decode one frame; raises :class:`FrameError` on anything malformed.

    Returns ``{"t": tag, <declared fields>}`` plus, for ``probes`` and
    ``ring`` frames, ``"rows"``: one decoded row or ``None`` per row.
    """
    if len(data) > MAX_FRAME_BYTES:
        raise FrameError("oversized", f"{len(data)} B > {MAX_FRAME_BYTES} B")
    if len(data) < _HEADER.size or not data.startswith(TELEMETRY_MAGIC):
        raise FrameError("bad-magic", "missing RTAP prefix")
    _, version, length = _HEADER.unpack_from(data)
    body = bytes(data[_HEADER.size :])
    if len(body) != length:  # framing first: it does not depend on the version
        raise FrameError("garbage", f"length says {length} B, got {len(body)} B")
    if version != TELEMETRY_VERSION:
        raise FrameError("bad-version", f"version {version}")
    try:
        return _decode_body(body)
    except (IndexError, ValueError, struct.error, _Unfit) as exc:
        raise FrameError("garbage", f"undecodable body ({exc})") from None


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

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._offset = time.time() - self._loop.time()

    @property
    def now(self) -> float:
        return self._loop.time() + self._offset

    def call_later(self, delay: float, callback: Callable[..., None], *args: Any):
        """Schedule ``callback(*args)`` ``delay`` wall seconds from now."""
        return self._loop.call_later(delay, callback, *args)


class TelemetryShipper(ProbeConsumer):
    """Ships one worker's probe events to the collector in batched frames.

    Parameters
    ----------
    source:
        This worker's node id — the collector's per-source stream key.
    send:
        ``send(data: bytes) -> None`` over the sidecar channel.  Injected
        so the same shipper runs over a connected UDP socket (the worker),
        or a no-op sink (the benchmark ledger's ``sim_ring_observed``,
        which prices it as ``obs.shipper_us_per_event``).
    clock_offset:
        ``epoch_now - scheduler_now`` measured at worker start-up; added
        to every event's ``at`` so all shipped timestamps live on the
        shared epoch timeline.
    recorder:
        Optional :class:`~repro.obs.recorder.FlightRecorder` whose ring
        answers the collector's ``pull`` (breach postmortem).

    Subscribe with ``bus.subscribe(shipper.on_probe)`` — the shipper is a
    batch listener like any other, and a full frame leaves from inside
    the drain that completes it.  Whoever owns the shipper calls
    :meth:`flush` (which drains the bus first) on a timer shorter than the
    collector's reorder allowance (the worker's 20 ms loop tick), so a
    quiet node's last events do not wait for the batch to fill.
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
        #: events skipped because no frame could hold them ...
        self.oversized = 0
        #: ... or because their arguments break the declared types
        self.unfit = 0
        self._seq = 0  #: sequence number of the last event taken
        self._batch: list[ProbeEvent] = []  #: taken, not yet framed
        self._feeds: list[ProbeBus] = []

    # ------------------------------------------------------------------
    # outbound frames
    # ------------------------------------------------------------------
    def hello(self, addr: str) -> None:
        """Announce this source (first frame on the channel)."""
        self.send(_encode("hello", (self.source, addr, TELEMETRY_SCHEMA)))

    def on_probe(self, events: list[ProbeEvent]) -> None:
        """Bus listener: take a batch; ship every full frame it completes."""
        self._seq += len(events)
        batch = self._batch
        if not batch and len(events) == _PROBE_BATCH:  # a bound drain: one frame
            self._ship(self._seq - _PROBE_BATCH + 1, events)
            return
        batch.extend(events)
        if len(batch) >= _PROBE_BATCH:
            full = len(batch) - len(batch) % _PROBE_BATCH
            first = self._seq - len(batch) + 1
            for i in range(0, full, _PROBE_BATCH):
                self._ship(first + i, batch[i : i + _PROBE_BATCH])
            del batch[:full]

    def flush(self) -> None:
        """Drain the bus, then frame and ship what was taken since the
        last frame left."""
        self._catch_up()
        batch = self._batch
        if batch:
            self._batch = []
            self._ship(self._seq - len(batch) + 1, batch)

    def _skipped(self, exc: FrameError) -> None:
        if exc.where == "oversized":
            self.oversized += 1
        else:
            self.unfit += 1

    def _ship(self, first: int, batch: list[ProbeEvent]) -> None:
        """Ship ``batch`` (sequence numbers ``first``...) as one frame.

        A batch that cannot be framed is halved and retried; a single
        event that still does not fit is counted (``oversized`` /
        ``unfit``) and *not* shipped — its sequence number stays consumed,
        so the collector sees an honest ``telemetry.gap`` instead of a
        silently complete stream.
        """
        try:
            data = _encode("probes", (self.source, first), batch, self.clock_offset)
        except FrameError as exc:
            if len(batch) == 1:
                self._skipped(exc)
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
            _encode("mark", (self.source, time.time(), self._seq, self.shipped))
        )

    def bye(self) -> None:
        """Close the stream cleanly (silence after this is not an alert)."""
        self.flush()
        self.send(_encode("bye", (self.source, self.shipped)))

    # ------------------------------------------------------------------
    # inbound frames (the collector talks back)
    # ------------------------------------------------------------------
    def dump_ring(self) -> None:
        """Ship the flight-recorder ring as chunked ``ring`` frames.

        ``ring_end.count`` is the number of events that actually left: a
        chunk that cannot be framed is counted (``oversized`` / ``unfit``)
        and missing from the count, so the collector can tell a partial
        ring from a complete one.
        """
        self.flush()
        events = self.recorder.snapshot() if self.recorder is not None else []
        parts = count = 0
        for i in range(0, len(events), _RING_CHUNK):
            chunk = events[i : i + _RING_CHUNK]
            try:
                data = _encode("ring", (self.source, parts), chunk, self.clock_offset)
            except FrameError as exc:
                self._skipped(exc)  # keep the rest of the ring
                continue
            parts += 1
            count += len(chunk)
            self.send(data)
        self.send(_encode("ring_end", (self.source, count, parts)))

    def on_datagram(self, data: bytes) -> None:
        """Handle one frame from the collector (currently only ``pull``)."""
        try:
            body = decode_frame(data)
        except FrameError:
            return  # not ours to report; the collector audits its own side
        if body["t"] == "pull":
            self.dump_ring()
