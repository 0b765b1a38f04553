"""Unit tests for the raintap telemetry plane (no sockets, no processes).

The shipper and the collector are both plain objects with injected I/O
(``send`` callables, ``on_datagram`` entry points) and an injectable
clock, so the whole wire path — framing, restamping, watermark merge,
gaps, silence, postmortems — is testable synchronously.
"""

import json
import struct

import pytest

from repro.net.eventloop import EventLoop
from repro.obs import FlightRecorder, ProbeBus
from repro.obs.monitor import SILENCE_TIMEOUT
from repro.obs.recorder import load_bundle
from repro.runtime.collector import (
    REORDER_ALLOWANCE,
    TelemetryCollector,
    free_udp_ports,
)
from repro.runtime.telemetry import (
    _PROBE_BATCH,
    FRAME_FIELDS,
    MAX_FRAME_BYTES,
    TELEMETRY_MAGIC,
    TELEMETRY_VERSION,
    FrameError,
    TelemetryShipper,
    decode_frame,
    encode_frame,
)

TAGS = list(FRAME_FIELDS)


def header(body: bytes, version: int = TELEMETRY_VERSION) -> bytes:
    return TELEMETRY_MAGIC + struct.pack(">BI", version, len(body)) + body


def v2_frame(body: dict) -> bytes:
    """A frame as a version-2 (JSON rows) source sent it."""
    return header(json.dumps(body, separators=(",", ":")).encode(), 2)


def raw_body(tag: str, strings: list[str], fields: bytes, rows: list[bytes] = ()) -> bytes:
    """A v3 body built by hand from docs/TELEMETRY.md, not by the encoder."""
    raw = [s.encode() for s in strings]
    table = struct.pack(f">{len(raw) + 1}H", len(raw), *map(len, raw)) + b"".join(raw)
    framed_rows = b"".join(struct.pack(">H", len(r)) + r for r in rows)
    return bytes([TAGS.index(tag)]) + table + fields + framed_rows


class FakeClock:
    """Injectable wall clock: ``now`` is set by the test, timers inert."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now
        self.scheduled = []

    def call_later(self, delay, callback, *args):
        self.scheduled.append((delay, callback))

        class _Handle:
            def cancel(self) -> None:
                pass

        return _Handle()


# ----------------------------------------------------------------------
# frame codec
# ----------------------------------------------------------------------
def test_frame_roundtrip():
    body = {
        "t": "probes", "src": "A", "first": 7,
        "rows": [
            (0.5, "A", "core.wakeup", ()),
            (0.75, "B", "view.change", (3, ("A", "B"))),
            (1.0, "A", "transport.tx", ("B", 9, 1, "DataFrame", ("tok", "A.1", 4, 2, False))),
            (1.25, "A", "transport.tx", ("B", 10, 0, "AckFrame", None)),
        ],
    }
    assert decode_frame(encode_frame(body)) == body


def test_frame_is_declared_binary_not_pickle():
    data = encode_frame({"t": "mark", "src": "A", "now": 1.5, "seq": 2, "shipped": 2})
    assert data.startswith(TELEMETRY_MAGIC + bytes([TELEMETRY_VERSION]))
    # The body is the declared layout, byte for byte: tag, one-string
    # table, then src (string 0), now, seq, shipped.  Nothing in it
    # describes a type to construct, so there is nothing to execute.
    assert data[9:] == raw_body("mark", ["A"], struct.pack(">Hdqq", 0, 1.5, 2, 2))


MARK_FIELDS = struct.pack(">Hdqq", 0, 1.5, 2, 2)


@pytest.mark.parametrize(
    "data, where",
    [
        (b"\xff" * (MAX_FRAME_BYTES + 1), "oversized"),
        (b"", "bad-magic"),
        (b"RTA", "bad-magic"),
        (b"NOPE" + bytes(8), "bad-magic"),
        pytest.param(
            header(b"", TELEMETRY_VERSION + 1), "bad-version", id="next-version"
        ),
        # A v1 source (one `probe` frame per event) is refused outright.
        (TELEMETRY_MAGIC + struct.pack(">BI", 1, 2) + b"{}", "bad-version"),
        # ...and so is a v2 one (JSON rows), whatever its body holds.
        (header(b"[]", 2), "bad-version"),
        (header(b"{}", 2), "bad-version"),
        (header(b"\x00ab\xff", 2), "bad-version"),
        (header(b"[" * 50_000, 2), "bad-version"),
        # Length field disagrees with the actual payload: garbage, whatever
        # version the header claims.
        (TELEMETRY_MAGIC + struct.pack(">BI", 2, 99) + b"{}", "garbage"),
        pytest.param(header(b""), "garbage", id="empty-body"),
        pytest.param(header(bytes([len(TAGS)]) + bytes(2)), "garbage", id="unknown-tag"),
        # A JSON body under a v3 header: its first byte is no tag.
        pytest.param(header(b'{"t":"bye"}'), "garbage", id="json-body"),
        pytest.param(
            header(raw_body("mark", ["A"], MARK_FIELDS)[:-1]), "garbage", id="short-fields"
        ),
        pytest.param(
            header(raw_body("mark", ["A"], MARK_FIELDS) + b"\x00"),
            "garbage", id="trailing-bytes",
        ),
        pytest.param(
            header(raw_body("mark", [], MARK_FIELDS)), "garbage", id="dangling-string-ref"
        ),
        pytest.param(
            header(bytes([TAGS.index("bye")]) + struct.pack(">HH", 1, 9) + b"A"),
            "garbage", id="string-past-body",
        ),
        pytest.param(
            header(
                bytes([TAGS.index("bye")]) + struct.pack(">HH", 1, 1) + b"\xff"
                + struct.pack(">Hq", 0, 1)
            ),
            "garbage", id="string-not-utf8",
        ),
        pytest.param(
            header(raw_body("mark", ["A"], struct.pack(">Hdqq", 0, float("nan"), 2, 2))),
            "garbage", id="nan-field",
        ),
        pytest.param(
            header(
                raw_body("probes", ["A"], struct.pack(">Hq", 0, 1))
                + struct.pack(">H", 30) + bytes(4)
            ),
            "garbage", id="row-past-body",
        ),
    ],
)
def test_decode_rejects_malformed_frames(data, where):
    with pytest.raises(FrameError) as exc:
        decode_frame(data)
    assert exc.value.where == where


def test_encode_rejects_oversized_body():
    with pytest.raises(FrameError) as exc:
        encode_frame({"t": "probes", "src": "x" * MAX_FRAME_BYTES, "first": 1})
    assert exc.value.where == "oversized"


@pytest.mark.parametrize(
    "body, where",
    [
        ({"t": "nonsense", "src": "A"}, "garbage"),
        ({"t": "bye", "src": "A"}, "garbage"),  # a declared field missing
        ({"t": "bye", "src": "A", "shipped": 1, "pad": 0}, "garbage"),  # undeclared
        ({"t": "probes", "src": "A", "first": "x"}, "garbage"),  # ill-typed
        ({"t": "probes", "src": "A", "first": 1,
          "rows": [(0.0, "A", "not.a.kind", ())]}, "bad-row"),
        ({"t": "probes", "src": "A", "first": 1,
          "rows": [(0.0, "A", "token.accept", ("B", 1, 2, 0))]}, "bad-row"),
        ({"t": "probes", "src": "A", "first": 1,
          "rows": [(0.0, "A", "core.wakeup", (1,))]}, "bad-row"),
    ],
    ids=["unknown-tag", "missing-field", "extra-field", "field-type",
         "unknown-kind", "arg-type", "arity"],
)
def test_encode_refuses_what_the_declarations_do_not_allow(body, where):
    with pytest.raises(FrameError) as exc:
        encode_frame(body)
    assert exc.value.where == where


# ----------------------------------------------------------------------
# shipper
# ----------------------------------------------------------------------
def probed_shipper(**kwargs):
    """(bus, shipper, decoded-frames sink) wired like a worker does it."""
    frames = []
    bus = ProbeBus(EventLoop(seed=1))
    shipper = TelemetryShipper("A", lambda d: frames.append(decode_frame(d)), **kwargs)
    bus.subscribe(shipper.on_probe)
    return bus, shipper, frames


def test_shipper_restamps_onto_the_epoch():
    bus, shipper, frames = probed_shipper(clock_offset=1000.0)
    bus.emit("A", "token.accept", "B", "g.1", 5, 0)
    assert frames == []  # taken into the batch, not yet on the wire
    shipper.flush()
    (frame,) = frames
    assert frame["t"] == "probes" and frame["src"] == "A" and frame["first"] == 1
    # sim time 0.0 + offset: the shipped stamp lives on the shared epoch.
    assert frame["rows"] == [(1000.0, "A", "token.accept", ("B", "g.1", 5, 0))]
    assert shipper.shipped == 1
    shipper.flush()  # nothing taken since: no empty frame
    assert len(frames) == 1


def test_batch_leaves_at_the_cap_and_before_mark_and_bye():
    bus, shipper, frames = probed_shipper()
    for i in range(_PROBE_BATCH + 3):
        bus.emit("A", "token.accept", "B", "g.1", i, 0)
    (full,) = frames  # the cap flushed one full batch; 3 events wait
    assert full["first"] == 1 and len(full["rows"]) == _PROBE_BATCH
    shipper.mark()
    assert [f["t"] for f in frames] == ["probes", "probes", "mark"]
    assert frames[1]["first"] == _PROBE_BATCH + 1 and len(frames[1]["rows"]) == 3
    assert frames[2]["seq"] == frames[2]["shipped"] == _PROBE_BATCH + 3
    bus.emit("A", "core.wakeup")
    shipper.bye()
    assert [f["t"] for f in frames[3:]] == ["probes", "bye"]
    assert frames[-1]["shipped"] == _PROBE_BATCH + 4


def test_frames_are_key_sorted_without_a_sort_pass():
    """A v3 body has no keys to sort: its layout is positional, and its
    string table is in first-use order — so re-encoding what was decoded
    gives back the very bytes, with no canonicalising pass."""
    raw = []
    bus = ProbeBus(EventLoop(seed=1))
    recorder = FlightRecorder(bus, capacity=8)
    shipper = TelemetryShipper("A", raw.append, recorder=recorder)
    bus.subscribe(shipper.on_probe)
    shipper.hello("127.0.0.1:1")
    bus.emit("A", "view.change", 3, ("A", "B"))
    shipper.mark()
    shipper.dump_ring()
    shipper.bye()
    assert len(raw) == 6  # hello, probes, mark, ring, ring_end, bye
    for data in raw:
        assert encode_frame(decode_frame(data)) == data


def test_oversized_batch_is_halved_and_the_unshippable_event_burns_its_seq():
    bus, shipper, frames = probed_shipper()
    bus.emit("A", "token.accept", "B", "g.1", 1, 0)
    bus.emit("A", "net.send", "s", "d", "x" * (MAX_FRAME_BYTES + 1), 1)
    bus.emit("A", "token.accept", "B", "g.1", 3, 0)
    bus.emit("A", "token.accept", "B", "g.1", 4, 0)
    shipper.flush()
    assert shipper.oversized == 1 and shipper.shipped == 3
    # The batch split around the event that cannot be framed; its seq (2)
    # is consumed, so the collector sees an honest telemetry.gap instead
    # of a silently complete stream.
    assert [(f["first"], len(f["rows"])) for f in frames] == [(1, 1), (3, 2)]
    collector, clock, released = collected()
    for frame in frames:
        collector.on_datagram(encode_frame(frame), ("p", 1))
    assert collector.events_lost == 1 and collector.sources["A"].received == 3


def test_mark_and_bye_frames():
    bus, shipper, frames = probed_shipper()
    shipper.mark()
    shipper.bye()
    assert [f["t"] for f in frames] == ["mark", "bye"]
    assert isinstance(frames[0]["now"], float)
    assert frames[1]["shipped"] == 0


def test_pull_answers_with_chunked_ring():
    frames = []
    bus = ProbeBus(EventLoop(seed=1))
    recorder = FlightRecorder(bus, capacity=512)
    shipper = TelemetryShipper(
        "A", lambda d: frames.append(decode_frame(d)), recorder=recorder
    )
    for i in range(30):
        bus.emit("A", "token.accept", "B", "g.1", i, 0)
    shipper.on_datagram(encode_frame({"t": "pull"}))
    kinds = [f["t"] for f in frames]
    assert kinds == ["ring", "ring", "ring_end"]  # 30 events / 24 per chunk
    assert [f["part"] for f in frames[:2]] == [0, 1]
    end = frames[-1]
    assert end["parts"] == 2 and end["count"] == 30
    assert sum(len(f["rows"]) for f in frames[:2]) == 30


def test_ring_end_counts_only_what_was_shipped():
    frames = []
    bus = ProbeBus(EventLoop(seed=1))
    recorder = FlightRecorder(bus, capacity=512)
    shipper = TelemetryShipper(
        "A", lambda d: frames.append(decode_frame(d)), recorder=recorder
    )
    for i in range(30):
        bus.emit("A", "token.accept", "B", "g.1", i, 0)
    # One event in the second chunk is too large for any frame.
    bus.emit("A", "net.send", "s", "d", "x" * (MAX_FRAME_BYTES + 1), 1)
    shipper.dump_ring()
    rings = [f for f in frames if f["t"] == "ring"]
    end = frames[-1]
    assert end["t"] == "ring_end"
    assert [len(f["rows"]) for f in rings] == [24]  # chunk two never left
    assert end["parts"] == 1 and end["count"] == 24  # ...and the end says so
    assert shipper.oversized == 1


def test_shipper_ignores_garbage_from_the_collector():
    bus, shipper, frames = probed_shipper()
    shipper.on_datagram(b"\x00junk")  # no raise, no reply
    shipper.on_datagram(  # not a pull
        encode_frame({"t": "mark", "src": "?", "now": 0.0, "seq": 0, "shipped": 0})
    )
    assert frames == []


# ----------------------------------------------------------------------
# collector
# ----------------------------------------------------------------------
def probe_frame(node: str, seq: int, at: float, kind="token.accept", args=None):
    """A one-row ``probes`` frame carrying sequence number ``seq``."""
    row = [at, node, kind, ["x", "g.1", seq, 0] if args is None else args]
    return encode_frame({"t": "probes", "src": node, "first": seq, "rows": [row]})


def collected(**kwargs):
    """(collector, released events) with a FakeClock and no rules."""
    clock = FakeClock()
    collector = TelemetryCollector([], clock=clock, **kwargs)
    released = []
    collector.listeners.append(released.extend)
    return collector, clock, released


def test_watermark_merge_releases_in_time_order():
    collector, clock, released = collected()
    peer_a, peer_b = ("127.0.0.1", 1), ("127.0.0.1", 2)
    # Arrival order disagrees with time order across the two sources.
    clock.now = 4.0
    collector.on_datagram(probe_frame("A", 1, at=1.0), peer_a)
    collector.on_datagram(probe_frame("A", 2, at=3.0), peer_a)
    collector.on_datagram(probe_frame("B", 1, at=2.0), peer_b)
    collector.on_datagram(probe_frame("B", 2, at=4.0), peer_b)
    clock.now = 4.5
    collector.flush()
    # Safe horizon = min(3.0, 4.0) - reorder: only the events both
    # watermarks have passed are out, and they come out time-ordered.
    assert [(e.node, e.at) for e in released] == [("A", 1.0), ("B", 2.0)]
    # Mark heartbeats advance both watermarks past 4.0 and free the rest.
    for node, peer in (("A", peer_a), ("B", peer_b)):
        collector.on_datagram(
            encode_frame(
                {"t": "mark", "src": node, "seq": 2, "shipped": 2, "now": 9.0}
            ),
            peer,
        )
    clock.now = 4.6
    collector.flush()
    assert [(e.node, e.at) for e in released] == [
        ("A", 1.0), ("B", 2.0), ("A", 3.0), ("B", 4.0),
    ]
    # Released ordinals are canonical: 1..N in release order.
    assert [e.n for e in released] == [1, 2, 3, 4]
    assert collector.events_released == 4


def test_seq_gap_is_reported_and_counted():
    collector, clock, released = collected()
    collector.on_datagram(probe_frame("A", 1, at=1.0), ("p", 1))
    collector.on_datagram(probe_frame("A", 4, at=2.0), ("p", 1))
    assert collector.gaps == 1 and collector.events_lost == 2
    clock.now = 10.0
    collector.flush(force=True)
    gap = [e for e in released if e.kind == "telemetry.gap"]
    assert len(gap) == 1
    assert gap[0].args == ("A", 2, 4, 2)  # expected seq 2, got 4, lost 2


def test_duplicate_frames_are_ignored():
    collector, clock, released = collected()
    frame = probe_frame("A", 1, at=1.0)
    collector.on_datagram(frame, ("p", 1))
    collector.on_datagram(frame, ("p", 1))  # late twin
    assert collector.sources["A"].received == 1
    assert collector.gaps == 0
    clock.now = 10.0
    collector.flush(force=True)
    assert len([e for e in released if e.kind == "token.accept"]) == 1


def unknown_kind_row() -> bytes:
    """A probes frame whose one row names a kind nobody catalogued."""
    row = struct.pack(">dHH", 0.0, 0, 1)  # at, node = "A", kind = "not.a.kind"
    return header(raw_body("probes", ["A", "not.a.kind"], struct.pack(">Hq", 0, 1), [row]))


@pytest.mark.parametrize(
    "data, where",
    [
        (b"\xffgarbage-no-magic", "bad-magic"),
        (b"\xff" * (MAX_FRAME_BYTES + 1), "oversized"),
        pytest.param(
            encode_frame({"t": "probes", "src": "A", "first": 0}), "garbage", id="first-zero"
        ),
        pytest.param(
            encode_frame({"t": "probes", "src": "", "first": 1}), "garbage", id="empty-src"
        ),
        pytest.param(encode_frame({"t": "pull"}), "garbage", id="pull-has-no-src"),
        pytest.param(unknown_kind_row(), "bad-row", id="unknown-kind"),
        # Frames a v2 source sent — the malformed ones included — are all
        # refused at the version byte now.
        (v2_frame({"t": "probes", "src": "A", "first": "x", "rows": []}), "bad-version"),
        (v2_frame({"t": "probes", "src": "A", "first": 0, "rows": []}), "bad-version"),
        (v2_frame({"t": "probes", "src": "A", "first": 1, "rows": {}}), "bad-version"),
        (v2_frame({"t": "probes", "src": "A", "first": 1,
                   "rows": [[0, 0.0, "A", "not.a.kind", []]]}), "bad-version"),
        (v2_frame({"t": "nonsense", "src": "A"}), "bad-version"),
        (v2_frame({"t": "probes", "first": 1, "rows": []}), "bad-version"),
    ],
)
def test_collector_drops_malformed_frames(data, where):
    collector, clock, released = collected()
    collector.on_datagram(data, ("p", 1))
    assert collector.frames_dropped == {where: 1}
    clock.now = 10.0
    collector.flush(force=True)
    drops = [e for e in released if e.kind == "telemetry.drop"]
    assert len(drops) == 1 and drops[0].args[0] == where
    # Dropped frames show up in the exposition, labelled.
    assert f'raintap_frames_dropped_total{{where="{where}"}} 1' in (
        collector.metrics_text()
    )


def test_hello_with_wrong_schema_is_refused():
    collector, clock, _ = collected()
    collector.on_datagram(
        encode_frame({"t": "hello", "src": "A", "addr": "x", "schema": 99}),
        ("p", 1),
    )
    assert collector.frames_dropped == {"bad-version": 1}


def test_a_per_message_deliver_worker_is_refused_at_hello():
    """Schema 1 shipped one 3-field ``mcast.deliver`` row per message: its
    hello is refused, and such a row (built by hand: the encoder has no
    layout for it) is a ``bad-row``, while a run is released."""
    collector, clock, released = collected()
    peer = ("p", 1)
    collector.on_datagram(
        encode_frame({"t": "hello", "src": "A", "addr": "x", "schema": 1}), peer
    )
    assert collector.frames_dropped == {"bad-version": 1}
    collector.on_datagram(
        probe_frame("A", 1, 1.0, "mcast.deliver", ["B", 4, "agreed", 3]), peer
    )
    old_row = struct.pack(">dHHHqH", 1.0, 0, 1, 2, 7, 3)
    collector.on_datagram(
        header(raw_body("probes", ["A", "mcast.deliver", "B", "agreed"],
                        struct.pack(">Hq", 0, 2), [old_row])),
        peer,
    )
    assert collector.frames_dropped == {"bad-version": 1, "bad-row": 1}
    clock.now = 5.0
    collector.flush(force=True)
    assert [e.args for e in released if e.kind == "mcast.deliver"] == [
        ("B", 4, "agreed", 3)
    ]


def test_a_per_message_attach_worker_is_refused_at_hello():
    """Schema 2 shipped one 6-field ``mcast.attach`` row per message: its
    hello is refused, and such a row (built by hand: the encoder has no
    layout for it) is a ``bad-row``, while a schema 3 run is released."""
    collector, clock, released = collected()
    peer = ("p", 1)
    collector.on_datagram(
        encode_frame({"t": "hello", "src": "A", "addr": "x", "schema": 2}), peer
    )
    assert collector.frames_dropped == {"bad-version": 1}
    collector.on_datagram(
        probe_frame("A", 1, 1.0, "mcast.attach", ["B", 4, "agreed", 3, 600, 4, "B.1"]),
        peer,
    )
    old_row = struct.pack(">dHHHqHqqH", 1.0, 0, 1, 2, 7, 3, 200, 4, 4)
    collector.on_datagram(
        header(raw_body("probes", ["A", "mcast.attach", "B", "agreed", "B.1"],
                        struct.pack(">Hq", 0, 2), [old_row])),
        peer,
    )
    assert collector.frames_dropped == {"bad-version": 1, "bad-row": 1}
    clock.now = 5.0
    collector.flush(force=True)
    assert [e.args for e in released if e.kind == "mcast.attach"] == [
        ("B", 4, "agreed", 3, 600, 4, "B.1")
    ]


def test_silent_source_stops_stalling_the_horizon():
    collector, clock, released = collected()
    collector.on_datagram(probe_frame("A", 1, at=0.5), ("p", 1))
    collector.on_datagram(probe_frame("B", 1, at=0.6), ("p", 2))
    # B keeps heartbeating; A goes dark.
    clock.now = 5.0
    collector.on_datagram(
        encode_frame({"t": "mark", "src": "B", "seq": 1, "shipped": 1, "now": 5.0}),
        ("p", 2),
    )
    collector.flush()
    # A is declared silent and excluded from the watermark min, so B's
    # stream (and A's stranded event) drain instead of waiting forever.
    assert collector.sources["A"].silent
    assert [(e.node, e.at) for e in released if e.kind == "token.accept"] == [
        ("A", 0.5), ("B", 0.6),
    ]
    clock.now = 6.0
    collector.flush(force=True)
    assert "telemetry.silent" in [e.kind for e in released]


def test_bye_closes_the_source_cleanly():
    collector, clock, released = collected()
    collector.on_datagram(probe_frame("A", 1, at=0.5), ("p", 1))
    collector.on_datagram(
        encode_frame({"t": "bye", "src": "A", "shipped": 1}), ("p", 1)
    )
    assert collector.sources["A"].closed
    clock.now = 0.2  # closed source no longer pins the horizon at -inf
    collector.flush()
    clock.now = 5.0
    collector.flush()
    kinds = [e.kind for e in released]
    assert "telemetry.bye" in kinds and "telemetry.silent" not in kinds


def test_capture_file_has_header_then_records(tmp_path):
    import asyncio

    path = tmp_path / "cap.jsonl"
    clock = FakeClock()
    collector = TelemetryCollector([], clock=clock, capture_path=path)

    async def scenario():
        await collector.open()
        collector.on_datagram(probe_frame("A", 1, at=1.0), ("p", 1))
        clock.now = 10.0
        collector.flush(force=True)
        collector.close()

    asyncio.run(scenario())
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == "repro.obs.capture/3"
    assert header["reorder"] == REORDER_ALLOWANCE
    assert header["silence"] == SILENCE_TIMEOUT
    records = [json.loads(l) for l in lines[1:]]
    assert [r["n"] for r in records] == list(range(1, len(records) + 1))
    assert records[0]["kind"] == "token.accept" and records[0]["at"] == 1.0


def test_metrics_text_is_never_empty_and_tracks_nodes():
    collector, clock, _ = collected()
    text = collector.metrics_text()  # before any traffic at all
    assert "raintap_events_released_total 0" in text
    assert 'raintap_alerts_total{severity="critical"} 0' in text
    collector.on_datagram(probe_frame("A", 1, at=1.0), ("p", 1))
    clock.now = 10.0
    collector.flush(force=True)
    text = collector.metrics_text()
    assert f"raintap_events_released_total {collector.events_released}" in text
    assert collector.events_released >= 1
    assert 'raintap_node_token_accepts_total{node="A"} 1' in text
    # The collector's own bookkeeping events stay out of per-node series.
    assert 'node="collector"' not in text


def test_postmortem_built_from_pushed_rings(tmp_path):
    pm = tmp_path / "pm.bundle.json"
    collector, clock, _ = collected(postmortem_path=pm)
    collector.on_datagram(probe_frame("A", 1, at=1.0), ("p", 1))
    ring = [
        [0.8, "A", "token.accept", ["B", "g.1", 9, 0]],
        [0.9, "A", "node.state", ["OPERATIONAL", "RECOVERY"]],
    ]
    frame = encode_frame({"t": "ring", "src": "A", "part": 0, "rows": ring})
    # An undecodable ring entry is skipped, not fatal.
    bogus = struct.pack(">H", 3) + b"\xff\xff\xff"
    frame = header(frame[9:] + bogus)
    collector.on_datagram(frame, ("p", 1))
    collector.on_datagram(
        encode_frame({"t": "ring_end", "src": "A", "parts": 1, "count": 3}),
        ("p", 1),
    )
    collector._pull_sent = True  # as if an alert had fired the pull
    clock.now = 10.0
    collector.flush(force=True)
    assert collector.postmortem_written == pm
    bundle = load_bundle(pm)
    assert bundle["context"]["plane"] == "raintap"
    source = bundle["context"]["sources"]["A"]
    assert source["received"] == 1
    # The worker said it shipped 3 ring events; 2 usable ones arrived.
    assert (source["ring_events"], source["ring_count"]) == (2, 3)
    assert [e["at"] for e in bundle["events"]] == [0.8, 0.9]


def test_chaos_bundle_and_postmortem_carry_the_same_rollup(tmp_path, capsys):
    from repro.cli import main

    code = main(
        ["chaos", "--strict", "--seed", "8", "--seconds", "15",
         "--no-shrink", "--artifacts", str(tmp_path)]
    )
    capsys.readouterr()
    assert code == 1
    chaos = load_bundle(tmp_path / "trace-seed8.bundle.json")["metrics"]
    pm = tmp_path / "pm.bundle.json"
    collector, clock, _ = collected(postmortem_path=pm)
    collector.on_datagram(probe_frame("A", 1, at=1.0), ("p", 1))
    collector._pull_sent = True  # as if an alert had fired the pull
    clock.now = 10.0
    collector.flush(force=True)
    raintap = load_bundle(pm)["metrics"]
    assert chaos["schema"] == raintap["schema"] == 1
    assert chaos.keys() == raintap.keys()
    assert chaos["events"] == sum(chaos["by_kind"].values()) > 0
    assert raintap["per_node"]["A"]["token_accepts"] == 1


def test_free_udp_ports_are_distinct():
    ports = free_udp_ports(4)
    assert len(set(ports)) == 4
    assert all(1 <= p <= 65535 for p in ports)
