"""Hostile input on the telemetry port (ROADMAP 4(c)).

The collector's UDP endpoint is a listening socket: anything can arrive.
``decode_frame`` and ``TelemetryCollector.on_datagram`` must be total —
never an exception, every rejection a labelled ``telemetry.drop`` — and
one bad row must not cost a batch its good ones.  Rows are RTAP v3 typed
binary (docs/TELEMETRY.md): a row that breaks its kind's declared types —
``view.change members=7`` included — is a ``bad-row`` drop and never
reaches a contract rule.  The last tests pin the honest path: what the bus
emitted is what the collector releases, and a lost batch is one gap of
the right size.
"""

from __future__ import annotations

import json
import math
import struct

from hypothesis import given, settings, strategies as st

from repro.core.config import RaincoreConfig
from repro.net.eventloop import EventLoop
from repro.obs import ProbeBus, ProbeLog, conforms, paper_contract_rules
from repro.obs.probe import PROBE_TYPES, split_fields
from repro.runtime.collector import COLLECTOR_NODE, TelemetryCollector
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

from .test_telemetry import FakeClock, TAGS, collected as collector, header, raw_body

WHERE = {"oversized", "bad-magic", "bad-version", "garbage", "bad-row"}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()  # NaN and the infinities included: json.dumps writes them
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)

# -- conforming values of each declared type ---------------------------
i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
finite = st.floats(allow_nan=False, allow_infinity=False)
names = st.text(max_size=6)
scalars = st.none() | st.booleans() | i64 | finite | names
any_values = scalars | st.tuples(scalars, scalars) | st.tuples(
    names, st.tuples(i64, names)
)
FIELD_VALUES = {
    "str": names,
    "int": i64,
    "float": finite,
    "bool": st.booleans(),
    "strs": st.lists(names, max_size=6).map(tuple),
    "any": any_values,
}
events = st.sampled_from(sorted(PROBE_TYPES)).flatmap(
    lambda kind: st.tuples(
        finite,
        names,
        st.just(kind),
        st.tuples(*[FIELD_VALUES[t] for t in PROBE_TYPES[kind]]),
    )
)
valid_frames = st.builds(
    lambda src, first, rows: encode_frame(
        {"t": "probes", "src": src, "first": first, "rows": rows}
    ),
    names,
    st.integers(min_value=-5, max_value=50),
    st.lists(events, max_size=5),
)


def mutated(frame: bytes, data) -> bytes:
    """``frame`` with a few bytes overwritten, cut short or extended."""
    out = bytearray(frame)
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        i = data.draw(st.integers(min_value=0, max_value=len(out) - 1))
        out[i] = data.draw(st.integers(min_value=0, max_value=255))
    cut = data.draw(st.integers(min_value=-4, max_value=4))
    if cut < 0:
        del out[cut:]
    elif cut:
        out += bytes(cut)
    return bytes(out)


def well_typed(body: dict) -> bool:
    """Everything a decoded body may contain: declared fields of declared
    types, and rows that are ``None`` or conforming events."""
    if body["t"] not in TAGS:
        return False
    if "now" in body and not math.isfinite(body["now"]):
        return False
    for row in body.get("rows", ()):
        if row is None:
            continue
        at, node, kind, args = row
        if not (math.isfinite(at) and type(node) is str and conforms(kind, args)):
            return False
    return True


def drain(tc, clock, released):
    """Force everything out; every counted drop must be in the feed."""
    clock.now += 10.0
    tc.flush(force=True)
    drops = [  # a worker may ship telemetry.* rows of its own
        e for e in released if e.kind == "telemetry.drop" and e.node == COLLECTOR_NODE
    ]
    assert len(drops) == sum(tc.frames_dropped.values())
    assert {e.args[0] for e in drops} <= WHERE
    assert set(tc.frames_dropped) <= WHERE
    return drops


# ----------------------------------------------------------------------
# arbitrary bytes, arbitrary JSON, damaged frames
# ----------------------------------------------------------------------
@given(
    st.binary(max_size=256)
    | st.binary(max_size=64).map(lambda b: TELEMETRY_MAGIC + b)
    | st.binary(max_size=96).map(header)  # a good header over any body
)
def test_decode_frame_is_total_over_bytes(data):
    try:
        body = decode_frame(data)
    except FrameError as exc:
        assert exc.where in WHERE
    else:
        assert well_typed(body)


@given(json_values)
def test_decode_frame_is_total_over_json(value):
    """A JSON body is never a frame: behind a v2 header it is a
    ``bad-version`` source, behind a v3 one its first byte is no tag."""
    body = json.dumps(value).encode()
    for version, where in ((2, "bad-version"), (TELEMETRY_VERSION, "garbage")):
        try:
            decode_frame(header(body, version))
        except FrameError as exc:
            assert exc.where == where or len(body) + 9 > MAX_FRAME_BYTES
        else:  # pragma: no cover - the assertion is the point
            raise AssertionError("a JSON body decoded")


@settings(deadline=None)
@given(valid_frames, st.data())
def test_decode_frame_is_total_over_damaged_frames(frame, data):
    try:
        body = decode_frame(mutated(frame, data))
    except FrameError as exc:
        assert exc.where in WHERE
    else:
        assert well_typed(body)


@settings(deadline=None)
@given(st.lists(events, max_size=8), names, st.integers(min_value=1, max_value=2**40))
def test_conforming_rows_round_trip_exactly(rows, src, first):
    body = {"t": "probes", "src": src, "first": first, "rows": rows}
    assert decode_frame(encode_frame(body)) == body


@settings(deadline=None)
@given(st.lists(st.binary(max_size=128) | valid_frames, max_size=6), st.data())
def test_collector_is_total_over_junk(datagrams, data):
    tc, clock, released = collector()
    for frame in datagrams:
        tc.on_datagram(mutated(frame, data) if frame else frame, ("p", 1))
    assert tc.frames_received == len(datagrams)
    drain(tc, clock, released)


TYPED_FIELDS = {
    "str": st.sampled_from(["A", "B", ""]),
    "int": st.integers(min_value=-3, max_value=3) | i64,
    "float": st.floats(),  # NaN and infinities: the decoder's to refuse
}


def bodies(tag: str):
    fields, types = split_fields(FRAME_FIELDS[tag])
    values = {name: TYPED_FIELDS[t] for name, t in zip(fields, types)}
    if tag in ("probes", "ring"):
        values["rows"] = st.lists(events, max_size=3)
    return st.fixed_dictionaries({"t": st.just(tag), **values})


@settings(deadline=None)
@given(st.lists(st.sampled_from(TAGS).flatmap(bodies), max_size=6))
def test_collector_is_total_over_tagged_bodies(bodies):
    tc, clock, released = collector()
    for body in bodies:
        tc.on_datagram(encode_frame(body), ("p", 1))
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
#: The string table every corruption frame carries (indices are fixed).
STRINGS = ["A", "token.accept", "B", "g.1", "token.acceptt", "view.change",
           "transport.rx", "transport.tx", "DataFrame"]
A, ACCEPT, B, GEN, TYPO, VIEW, RX, TX, FRAME = range(len(STRINGS))


def good_row(seq: int) -> bytes:
    """``token.accept src=B gen=g.1 seq=<seq> msgs=0`` at ``100 + seq``."""
    return struct.pack(">dHH", 100.0 + seq, A, ACCEPT) + struct.pack(">HHqq", B, GEN, seq, 0)


def corruptions(seq: int) -> dict[str, bytes]:
    """Every way this test knows to make one row break its declared types."""
    row = good_row(seq)
    at = 100.0 + seq
    head = struct.pack(">dHH", at, A, ACCEPT)
    args = row[len(head):]
    return {
        "short": row[:-1],
        "long": row + b"\x00",
        "unknown-kind": struct.pack(">dHH", at, A, TYPO) + args,
        "at-nan": struct.pack(">dHH", math.nan, A, ACCEPT) + args,
        "at-inf": struct.pack(">dHH", math.inf, A, ACCEPT) + args,
        "node-ref": struct.pack(">dHH", at, len(STRINGS), ACCEPT) + args,
        "arg-ref": head + struct.pack(">HHqq", B, len(STRINGS), seq, 0),
        # view.change's members slot says 7 and holds no names at all.
        "members=7": struct.pack(">dHH", at, A, VIEW) + struct.pack(">qH", 3, 7),
        "bool-byte": struct.pack(">dHH", at, A, RX) + struct.pack(">HqB", B, seq, 2),
        "any-tag": struct.pack(">dHH", at, A, TX)
        + struct.pack(">HqqHB", B, seq, 0, FRAME, 9),
        "any-deep": struct.pack(">dHH", at, A, TX)
        + struct.pack(">HqqH", B, seq, 0, FRAME)
        + struct.pack(">BBBBBBB", 6, 1, 6, 1, 6, 1, 0),
    }


CORRUPTIONS = sorted(corruptions(0))


def probes_frame(first: int, rows: list[bytes]) -> bytes:
    return header(raw_body("probes", STRINGS, struct.pack(">Hq", A, first), rows))


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
            rows.append(good_row(seq) if how is None else corruptions(seq)[how])
            if seq <= last_seq:
                continue  # duplicate or regressing seq: ignored whole
            last_seq = seq
            if how is None:
                want_released.append(seq)
            else:
                want_bad += 1
        tc.on_datagram(probes_frame(first, rows), ("p", 1))
    assert tc.frames_dropped == ({"bad-row": want_bad} if want_bad else {})
    assert tc.events_lost == lost
    assert tc.sources["A"].last_seq == last_seq
    drain(tc, clock, released)
    accepts = [e for e in released if e.kind == "token.accept"]
    assert sorted(e.args[2] for e in accepts) == sorted(want_released)
    assert [e.at for e in accepts] == sorted(e.at for e in accepts)
    gaps = [e for e in released if e.kind == "telemetry.gap"]
    assert sum(e.args[3] for e in gaps) == lost


def test_hostile_view_change_is_a_counted_bad_row_not_a_rule_crash():
    """``view.change members=7`` is well-framed: before typed rows it
    passed every check and raised inside ``len(members)`` when the
    monitor filed it.  Now it never becomes an event: one counted
    ``bad-row``, and the paper rules keep evaluating the rest."""
    config = RaincoreConfig.tuned(ring_size=2)
    clock = FakeClock()
    tc = TelemetryCollector(paper_contract_rules(config, 2), clock=clock)
    released: list = []
    tc.listeners.append(released.extend)
    tc.on_datagram(
        probes_frame(1, [corruptions(1)["members=7"], good_row(2)]), ("p", 1)
    )
    assert tc.frames_dropped == {"bad-row": 1}
    clock.now = 200.0
    tc.flush(force=True)  # evaluates every rule over the released feed
    assert not [e for e in released if e.kind == "view.change"]
    assert [e.args[2] for e in released if e.kind == "token.accept"] == [2]
    assert tc.sources["A"].last_seq == 2  # the bad row consumed its seq


# ----------------------------------------------------------------------
# the honest path: round trip and gap accounting
# ----------------------------------------------------------------------
def emit_stream(bus: ProbeBus, count: int) -> None:
    """``count`` events a millisecond apart; the loop returns (and the bus
    drains) after each."""
    loop = bus.loop
    for i in range(count):
        node = "AB"[i % 2]
        if i % 5 == 0:
            bus.emit(node, "view.change", i, ("A", "B"))
        elif i % 5 == 1:
            bus.emit(node, "core.wakeup")
        elif i % 5 == 2:
            bus.emit(node, "transport.tx", "B", i, 0, "DataFrame", ("tok", "A.1", i, 3, False))
        elif i % 5 == 3:
            run = 1 + i % 3
            bus.emit(node, "mcast.deliver", "A", i, "agreed", run)
        else:
            run = 1 + i % 4
            bus.emit(node, "mcast.attach", "A", i, "safe", run, 200 * run, 2, "A.1")
        loop.run_for(0.001)


def test_round_trip_releases_exactly_the_bus_stream():
    bus = ProbeBus(EventLoop(seed=1))
    sent = ProbeLog(bus)
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
