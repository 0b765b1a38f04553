"""Hostile input on the telemetry port (ROADMAP 4(c)).

The collector's UDP endpoint is a listening socket: anything can arrive.
``decode_frame`` and ``TelemetryCollector.on_datagram`` must be total —
never an exception, every rejection a labelled ``telemetry.drop`` — and
one bad row must not cost a batch its good ones.  The last two tests pin
the honest path: what the bus emitted is what the collector releases, and
a lost batch is one gap of the right size.
"""

from __future__ import annotations

import json
import struct

from hypothesis import given, settings, strategies as st

from repro.net.eventloop import EventLoop
from repro.obs import ProbeBus
from repro.runtime.collector import COLLECTOR_NODE
from repro.runtime.telemetry import (
    _PROBE_BATCH,
    MAX_FRAME_BYTES,
    TELEMETRY_MAGIC,
    TELEMETRY_VERSION,
    FrameError,
    TelemetryShipper,
    decode_frame,
    encode_frame,
)

from .test_telemetry import collected as collector

WHERE = {"oversized", "bad-magic", "bad-version", "garbage", "bad-row"}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()  # NaN and the infinities included: json.loads takes them
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def framed(body) -> bytes:
    """Any JSON value behind a correct header (encode_frame insists on less)."""
    payload = json.dumps(body).encode()
    return (
        TELEMETRY_MAGIC + struct.pack(">BI", TELEMETRY_VERSION, len(payload)) + payload
    )


def drain(tc, clock, released):
    """Force everything out; every counted drop must be in the feed."""
    clock.now += 10.0
    tc.flush(force=True)
    drops = [e for e in released if e.kind == "telemetry.drop"]
    assert len(drops) == sum(tc.frames_dropped.values())
    assert {e.args[0] for e in drops} <= WHERE
    assert set(tc.frames_dropped) <= WHERE
    return drops


# ----------------------------------------------------------------------
# arbitrary bytes, arbitrary JSON
# ----------------------------------------------------------------------
@given(st.binary(max_size=256) | st.binary(max_size=64).map(lambda b: TELEMETRY_MAGIC + b))
def test_decode_frame_is_total_over_bytes(data):
    try:
        body = decode_frame(data)
    except FrameError as exc:
        assert exc.where in WHERE
    else:
        assert isinstance(body, dict) and isinstance(body["t"], str)


@given(json_values)
def test_decode_frame_is_total_over_json(value):
    try:
        body = decode_frame(framed(value))
    except FrameError as exc:
        assert exc.where == "garbage"
    else:
        assert body == value or body != body  # NaN-carrying bodies decode too


@given(st.lists(st.binary(max_size=128) | json_values.map(framed), max_size=6))
def test_collector_is_total_over_junk(datagrams):
    tc, clock, released = collector()
    for data in datagrams:
        tc.on_datagram(data, ("p", 1))
    assert tc.frames_received == len(datagrams)
    drain(tc, clock, released)


TAGS = ["hello", "probes", "mark", "ring", "ring_end", "bye", "pull", "probe", ""]


@given(
    st.lists(
        st.fixed_dictionaries(
            {"t": st.sampled_from(TAGS), "src": st.sampled_from(["A", "B", "", 7])},
            optional={
                key: json_values
                for key in (
                    "first", "rows", "now", "seq", "shipped", "count",
                    "part", "parts", "addr", "schema",
                )
            },
        ),
        max_size=6,
    )
)
def test_collector_is_total_over_tagged_bodies(bodies):
    tc, clock, released = collector()
    for body in bodies:
        tc.on_datagram(framed(body), ("p", 1))
    drain(tc, clock, released)
    # A mark may carry any `now`; the watermark it sets is still a time.
    for source in tc.sources.values():
        assert source.watermark == source.watermark  # never NaN
        assert source.watermark < float("inf")


def test_oversized_datagram_is_dropped_unparsed():
    tc, clock, released = collector()
    tc.on_datagram(b"[" * (MAX_FRAME_BYTES + 1), ("p", 1))
    (drop,) = drain(tc, clock, released)
    assert drop.args == ("oversized", MAX_FRAME_BYTES + 1)


# ----------------------------------------------------------------------
# well-formed batches with corrupted rows
# ----------------------------------------------------------------------
def good_row(i: int) -> list:
    return [i, 100.0 + i, "A", "token.accept", ["B", 1, i, 0]]


def corruptions(row: list) -> dict[str, object]:
    """Every way this test knows to spoil one good row, by name."""
    n, at, node, kind, args = row
    return {
        "short": [n, at, node, kind],
        "long": row + [None],
        "not-a-list": {"n": n, "at": at, "node": node, "kind": kind, "args": args},
        "unknown-kind": [n, at, node, "token.acceptt", args],
        "kind-type": [n, at, node, 7, args],
        "at-string": [n, "soon", node, kind, args],
        "at-bool": [n, True, node, kind, args],
        "at-nan": [n, float("nan"), node, kind, args],
        "at-inf": [n, float("inf"), node, kind, args],
        "at-huge": [n, 10**400, node, kind, args],
        "n-float": [0.5, at, node, kind, args],
        "node-type": [n, at, ["A"], kind, args],
        "args-arity": [n, at, node, kind, args[:-1]],
        "args-type": [n, at, node, kind, "B1i0"],
        "args-dict": [n, at, node, kind, ["B", {"gen": 1}, n, 0]],
        "args-deep": [n, at, node, kind, ["B", [[[1]]], n, 0]],
    }


CORRUPTIONS = sorted(corruptions(good_row(0)))

batches = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=40),  # `first`: overlaps and regressions
        st.lists(st.none() | st.sampled_from(CORRUPTIONS), min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=6,
)


@settings(deadline=None)
@given(batches)
def test_bad_rows_are_dropped_and_good_rows_released(plan):
    tc, clock, released = collector()
    want_released, want_bad, last_seq, lost = [], 0, 0, 0
    for first, damage in plan:
        rows = []
        if first > last_seq + 1:  # the model of what the collector owes us
            lost += first - last_seq - 1
            last_seq = first - 1
        for seq, how in enumerate(damage, first):
            row = good_row(seq)
            rows.append(row if how is None else corruptions(row)[how])
            if seq <= last_seq:
                continue  # duplicate or regressing seq: ignored whole
            last_seq = seq
            if how is None:
                want_released.append(seq)
            else:
                want_bad += 1
        tc.on_datagram(framed({"t": "probes", "src": "A", "first": first, "rows": rows}), ("p", 1))
    assert tc.frames_dropped == ({"bad-row": want_bad} if want_bad else {})
    assert tc.events_lost == lost
    assert tc.sources["A"].last_seq == last_seq
    drain(tc, clock, released)
    accepts = [e for e in released if e.kind == "token.accept"]
    assert sorted(e.args[2] for e in accepts) == sorted(want_released)
    assert [e.at for e in accepts] == sorted(e.at for e in accepts)
    gaps = [e for e in released if e.kind == "telemetry.gap"]
    assert sum(e.args[3] for e in gaps) == lost


# ----------------------------------------------------------------------
# the honest path: round trip and gap accounting
# ----------------------------------------------------------------------
def emit_stream(bus: ProbeBus, count: int) -> None:
    loop = bus.loop
    for i in range(count):
        loop.run_for(0.001)
        node = "AB"[i % 2]
        if i % 5 == 0:
            bus.emit(node, "view.change", i, ("A", "B", ("nested", i)))
        elif i % 5 == 1:
            bus.emit(node, "core.wakeup")
        else:
            bus.emit(node, "mcast.deliver", "A", i, "agreed")


def test_round_trip_releases_exactly_the_bus_stream():
    bus = ProbeBus(EventLoop(seed=1))
    sent = []
    bus.subscribe(sent.append)
    tc, clock, released = collector()
    shipper = TelemetryShipper(
        "A", lambda data: tc.on_datagram(data, ("p", 1)), clock_offset=1000.0
    )
    bus.subscribe(shipper.on_probe)
    emit_stream(bus, 3 * _PROBE_BATCH + 7)
    shipper.bye()  # flushes the 7 stragglers first
    assert tc.frames_received == 5  # 4 batches + bye, not one per event
    drain(tc, clock, released)
    got = [e for e in released if e.node != COLLECTOR_NODE]
    assert [(e.at, e.node, e.kind, e.args) for e in got] == [
        (e.at + 1000.0, e.node, e.kind, e.args) for e in sent
    ]
    assert [e.n for e in released] == list(range(1, len(released) + 1))
    assert tc.gaps == 0 and tc.frames_dropped == {}
    (bye,) = [e for e in released if e.kind == "telemetry.bye"]
    assert bye.args == ("A", len(sent))


def test_a_lost_batch_is_one_gap_of_its_size():
    bus = ProbeBus(EventLoop(seed=1))
    wire = []
    shipper = TelemetryShipper("A", wire.append)
    bus.subscribe(shipper.on_probe)
    emit_stream(bus, 3 * _PROBE_BATCH)
    assert len(wire) == 3
    tc, clock, released = collector()
    tc.on_datagram(wire[0], ("p", 1))
    tc.on_datagram(wire[2], ("p", 1))  # the middle batch never arrives
    assert (tc.gaps, tc.events_lost) == (1, _PROBE_BATCH)
    tc.on_datagram(wire[1], ("p", 1))  # ...or arrives after its successor: late
    assert tc.sources["A"].received == 2 * _PROBE_BATCH
    drain(tc, clock, released)
    (gap,) = [e for e in released if e.kind == "telemetry.gap"]
    assert gap.args == ("A", _PROBE_BATCH + 1, 2 * _PROBE_BATCH + 1, _PROBE_BATCH)
    assert len([e for e in released if e.node != COLLECTOR_NODE]) == 2 * _PROBE_BATCH
