"""Tests for repro.obs.diff: trace alignment and divergence localization.

The diff is the investigative half of the observability contract: when a
"replay mismatch" arrives as thousands of differing JSONL bytes, the
first differing event — located by (sim-time, node, kind) — is where the
causal analysis starts; everything after it is cascade.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    bundle_events,
    events_to_jsonl,
    first_divergence,
    load_events,
    render_divergence,
)
from repro.obs.probe import event_record
from repro.obs.scenario import run_quickstart


def quickstart_events(seed=5):
    return run_quickstart(nodes=3, seed=seed, duration=0.5, crash=False).events


# ----------------------------------------------------------------------
# divergence localization
# ----------------------------------------------------------------------
def test_identical_streams_have_no_divergence():
    a, b = quickstart_events(), quickstart_events()
    assert len(a) > 100  # a non-trivial stream, not a toy
    assert first_divergence(a, b) is None
    report = render_divergence(a, b, None)
    assert report == f"no divergence: {len(a)} events identical"


def test_single_injected_event_is_localized_exactly():
    a, b = quickstart_events(), quickstart_events()
    records = [event_record(e) for e in b]
    forged = dict(records[40])
    forged["kind"] = "core.wakeup"
    forged["args"] = []
    records[40] = forged
    divergence = first_divergence(a, records)
    assert divergence is not None
    assert divergence.index == 40
    assert divergence.kind == event_record(a[40])["kind"]  # anchored on left
    assert divergence.at == event_record(a[40])["at"]
    assert divergence.left == event_record(a[40])
    assert divergence.right == forged
    assert "#40" in divergence.describe()


def test_truncated_stream_diverges_at_end_of_prefix():
    a = quickstart_events()
    b = a[: len(a) - 25]
    divergence = first_divergence(a, b)
    assert divergence is not None
    assert divergence.index == len(b)
    assert divergence.right is None  # right stream ended
    report = render_divergence(a, b, divergence)
    assert "(end of stream)" in report


def test_different_seeds_diverge_and_render_two_columns():
    a, b = quickstart_events(seed=5), quickstart_events(seed=6)
    divergence = first_divergence(a, b)
    assert divergence is not None
    report = render_divergence(a, b, divergence, context=2)
    assert report.splitlines()[0] == divergence.describe()
    assert "! L " in report and "! R " in report
    # The shared prefix really is shared: streams agree up to the index.
    assert [event_record(e) for e in a[: divergence.index]] == [
        event_record(e) for e in b[: divergence.index]
    ]
    assert event_record(a[divergence.index]) != event_record(
        b[divergence.index]
    )


def test_divergence_in_first_event():
    a = [event_record(e) for e in quickstart_events()]
    b = [dict(a[0], node="zz")] + a[1:]
    divergence = first_divergence(a, b)
    assert divergence is not None and divergence.index == 0
    # No "shared prefix" section when nothing is shared.
    assert "shared prefix" not in render_divergence(a, b, divergence)


# ----------------------------------------------------------------------
# load_events: format sniffing and failure modes
# ----------------------------------------------------------------------
def test_load_events_reads_jsonl_and_bundles_identically(tmp_path):
    result = run_quickstart(nodes=3, seed=5, duration=0.5, crash=False)
    jsonl = tmp_path / "run.probes.jsonl"
    jsonl.write_text(events_to_jsonl(result.events))

    from repro.obs import build_bundle, dump_bundle

    bundle = build_bundle(
        "manual", detail="", at=0.5, events=result.events, context={}
    )
    bundle_path = dump_bundle(bundle, tmp_path / "run.bundle.json")

    from_jsonl = load_events(jsonl)
    from_bundle = load_events(bundle_path)
    assert from_jsonl == from_bundle
    assert first_divergence(from_jsonl, bundle_events(bundle)) is None


def test_load_events_failure_modes(tmp_path):
    with pytest.raises(ValueError, match="cannot read"):
        load_events(tmp_path / "missing.jsonl")

    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n\n")
    with pytest.raises(ValueError, match="empty"):
        load_events(empty)

    bad_line = tmp_path / "bad.jsonl"
    bad_line.write_text('{"n": 1, "at": 0.0, "node": "A", "kind": "core.wakeup", "args": []}\nnot json\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
        load_events(bad_line)

    not_events = tmp_path / "records.jsonl"
    not_events.write_text('{"metric": "x", "value": 1}\n')
    with pytest.raises(ValueError, match="not a probe event record"):
        load_events(not_events)

    foreign_bundle = tmp_path / "foreign.json"
    foreign_bundle.write_text(json.dumps({"schema": "other/1", "events": []}))
    with pytest.raises(ValueError, match="supported"):
        load_events(foreign_bundle)


def test_load_events_truncated_jsonl_names_the_line(tmp_path):
    """A JSONL export cut mid-record (crash during write, partial copy)
    fails with the exact line number of the torn record."""
    good = '{"n": 1, "at": 0.0, "node": "A", "kind": "core.wakeup", "args": []}'
    torn = tmp_path / "torn.jsonl"
    torn.write_text(good + "\n" + good[: len(good) // 2] + "\n")
    with pytest.raises(ValueError, match=r"torn\.jsonl:2: not JSON"):
        load_events(torn)


def test_load_events_record_missing_keys_names_line_and_keys(tmp_path):
    """A stream mixing probe records with some other JSONL schema fails at
    the first foreign line, naming the missing keys."""
    good = '{"n": 1, "at": 0.0, "node": "A", "kind": "core.wakeup", "args": []}'
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text(good + "\n" + '{"n": 2, "at": 0.1, "node": "A"}' + "\n")
    with pytest.raises(ValueError, match=r"mixed\.jsonl:2: not a probe event"):
        load_events(mixed)
    with pytest.raises(ValueError, match="kind, args"):
        load_events(mixed)


def test_load_events_v1_bundle_backfills_alerts(tmp_path):
    """A legacy /1 bundle (written before the alerts section existed)
    loads fine: load_bundle backfills ``alerts: []`` and load_events
    reads its events like any /2 bundle's."""
    from repro.obs import load_bundle

    events = quickstart_events()
    v1 = {
        "schema": "repro.obs.bundle/1",
        "reason": "manual",
        "detail": "",
        "at": 0.5,
        "nodes": sorted({e.node for e in events}),
        "context": {},
        "events": [event_record(e) for e in events],
        "metrics": {},
        "schedule": None,
    }
    assert "alerts" not in v1
    path = tmp_path / "legacy.bundle.json"
    path.write_text(json.dumps(v1, sort_keys=True, indent=2))
    loaded = load_bundle(path)
    assert loaded["alerts"] == []
    assert load_events(path) == [event_record(e) for e in events]


def test_load_events_single_record_line_is_jsonl_not_bundle(tmp_path):
    """Format sniffing edge: a one-line export starts with ``{`` and parses
    as a whole-file JSON object, but without a ``schema`` key it must be
    treated as JSONL, not rejected as a malformed bundle."""
    path = tmp_path / "one.jsonl"
    path.write_text(
        '{"n": 1, "at": 0.0, "node": "A", "kind": "core.wakeup", "args": []}\n'
    )
    records = load_events(path)
    assert len(records) == 1 and records[0]["kind"] == "core.wakeup"


# ----------------------------------------------------------------------
# load_events: raintap collector captures (docs/TELEMETRY.md)
# ----------------------------------------------------------------------
CAPTURE_HEADER = '{"reorder":0.05,"schema":"repro.obs.capture/1","silence":1.0,"t0":100.0}'
REC = '{"n": %d, "at": %s, "node": "A", "kind": "core.wakeup", "args": []}'


def write_capture(tmp_path, name, body, newline=True):
    path = tmp_path / name
    path.write_text(CAPTURE_HEADER + "\n" + body + ("\n" if newline else ""))
    return path


def test_load_events_sniffs_collector_captures(tmp_path):
    path = write_capture(
        tmp_path, "cap.jsonl", (REC % (1, "100.5")) + "\n" + (REC % (2, "100.6"))
    )
    records = load_events(path)
    # The header line is metadata, not an event; records pass through
    # with their wall-clock stamps intact.
    assert [r["n"] for r in records] == [1, 2]
    assert records[0]["at"] == 100.5
    # A capture diffs against itself like any export.
    assert first_divergence(records, load_events(path)) is None


def test_capture_torn_final_line_is_tolerated(tmp_path):
    """A live capture killed mid-write ends in a half-record with no
    newline; the loader drops exactly that line and keeps the rest."""
    torn = (REC % (1, "100.5")) + "\n" + (REC % (2, "100.6"))[:20]
    path = write_capture(tmp_path, "killed.jsonl", torn, newline=False)
    records = load_events(path)
    assert [r["n"] for r in records] == [1]


def test_capture_torn_midfile_line_still_raises(tmp_path):
    """A torn line *followed by* complete records is interleaved
    corruption (two writers, lost flush ordering), not a clean kill —
    the loader must not silently skip it."""
    body = (REC % (1, "100.5")) + "\n" + (REC % (2, "100.6"))[:20] + "\n" + (
        REC % (3, "100.7")
    )
    path = write_capture(tmp_path, "interleaved.jsonl", body)
    with pytest.raises(ValueError, match=r"interleaved\.jsonl:3: not JSON"):
        load_events(path)


def test_capture_complete_final_line_with_no_newline_loads(tmp_path):
    """Torn-tail tolerance is about *undecodable* tails: a final record
    that parses fine is kept even without its trailing newline."""
    body = (REC % (1, "100.5")) + "\n" + (REC % (2, "100.6"))
    path = write_capture(tmp_path, "flushcut.jsonl", body, newline=False)
    assert [r["n"] for r in load_events(path)] == [1, 2]


def test_capture_with_unsupported_schema_raises(tmp_path):
    path = tmp_path / "future.jsonl"
    path.write_text(
        '{"schema": "repro.obs.capture/9"}\n' + (REC % (1, "100.5")) + "\n"
    )
    with pytest.raises(ValueError, match="unsupported capture schema"):
        load_events(path)


def test_capture_with_only_a_header_is_empty(tmp_path):
    path = tmp_path / "header-only.jsonl"
    path.write_text(CAPTURE_HEADER + "\n")
    with pytest.raises(ValueError, match="no probe event records"):
        load_events(path)


def test_plain_jsonl_export_still_rejects_torn_tail(tmp_path):
    """Torn-tail tolerance applies to captures only: a deterministic
    export is written atomically, so a torn tail is real corruption."""
    path = tmp_path / "export.jsonl"
    path.write_text((REC % (1, "0.5")) + "\n" + (REC % (2, "0.6"))[:20])
    with pytest.raises(ValueError, match=r"export\.jsonl:2: not JSON"):
        load_events(path)
