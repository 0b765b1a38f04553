"""Attach runs: one ``mcast.attach`` per pack, and old artifacts read alike.

``MulticastService._couple`` emits one ``mcast.attach`` per pack: the
``count`` messages from ``msg_no`` on, ``size`` their payload bytes.
Files written while the attach was per message (bundle /1–/3, capture
/1–/2, six fields) load with each attach as a run of one, and the causal
chain of a span shows the attach run covering it.  ``small_ring()``'s
stream as the per-message attach emitter bundled it is
``tests/data/bundle_v3_per_message_attach.json`` (schema
``repro.obs.bundle/3``).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.diff import load_events
from repro.obs.probe import check_record, event_record
from repro.obs.recorder import (
    build_bundle,
    bundle_events,
    causal_chain,
    dump_bundle,
    load_bundle,
    trace_rows,
)

from .test_deliver_runs import attached_bytes, chain_rows, small_ring

V3_BUNDLE = Path(__file__).parent / "data" / "bundle_v3_per_message_attach.json"


def runs_now(tmp_path) -> list:
    """``small_ring()``'s stream through a bundle of this schema."""
    path = dump_bundle(build_bundle("runs", events=small_ring()), tmp_path / "runs.json")
    return bundle_events(load_bundle(path))


def test_a_v3_bundle_of_per_message_attaches_loads_as_runs_of_one(tmp_path):
    raw = json.loads(V3_BUNDLE.read_text())
    assert raw["schema"] == "repro.obs.bundle/3"
    assert {len(r["args"]) for r in raw["events"] if r["kind"] == "mcast.attach"} == {6}
    old, new = bundle_events(load_bundle(V3_BUNDLE)), runs_now(tmp_path)
    attaches = [[e for e in events if e.kind == "mcast.attach"] for events in (old, new)]
    assert {e.args[3] for e in attaches[0]} == {1}
    assert len(attaches[1]) < len(attaches[0])
    assert max(e.args[3] for e in attaches[1]) > 1
    assert trace_rows(old) == trace_rows(new)
    assert attached_bytes(old) == attached_bytes(new)
    spans = sorted((e.args[0], e.args[1]) for e in attaches[0])
    assert len(spans) == 9
    for origin, msg_no in spans:
        assert chain_rows(old, origin, msg_no) == chain_rows(new, origin, msg_no)
    # Every row but the attaches is the same stream, in the same order.
    def others(events):
        return [(e.at, e.node, e.kind, e.args) for e in events if e.kind != "mcast.attach"]

    assert others(old) == others(new)


def test_the_chain_of_a_later_message_shows_the_run_covering_it(tmp_path):
    events = runs_now(tmp_path)
    run = next(e for e in events if e.kind == "mcast.attach" and e.args[3] > 1)
    origin, first, count = run.args[0], run.args[1], run.args[3]
    for msg_no in range(first, first + count):
        chain = causal_chain(events, origin, msg_no)
        assert chain[0] is run
        assert [e for e in chain if e.kind == "mcast.attach"] == [run]
    after = causal_chain(events, origin, first + count)  # the next pack's span
    assert after and after[0] is not run


def test_check_record_backfills_the_count_of_a_per_message_attach():
    old = {"n": 1, "at": 0.5, "node": "A", "kind": "mcast.attach",
           "args": ["A", 7, "safe", 20, 3, "A.1"]}
    assert check_record(old)["args"] == ["A", 7, "safe", 1, 20, 3, "A.1"]
    run = dict(old, args=["A", 7, "safe", 2, 40, 3, "A.1"])
    assert check_record(run)["args"] == run["args"]


def test_a_v2_capture_of_per_message_attaches_loads_as_runs_of_one(tmp_path):
    records = [event_record(e) for e in bundle_events(load_bundle(V3_BUNDLE))]
    for record in records:
        if record["kind"] == "mcast.attach":
            del record["args"][3]  # the six fields a capture /2 carried
    path = tmp_path / "old.jsonl"
    lines = [{"schema": "repro.obs.capture/2"}, *records]
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    loaded = [r for r in load_events(path) if r["kind"] == "mcast.attach"]
    assert len(loaded) == 9
    assert all(len(r["args"]) == 7 and r["args"][3] == 1 for r in loaded)
