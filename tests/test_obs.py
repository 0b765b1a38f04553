"""Tests for repro.obs: probe bus, flight recorder, bundles.

Covers the observability contracts the rest of the repo leans on:

* ring-buffer eviction keeps the newest events per node;
* probe streams are byte-stable across same-seed runs and diverge across
  seeds (the determinism golden);
* token-carried trace context survives regeneration and merge, so a
  delivery on one node is causally linkable to the originating attach;
* failing chaos runs produce deterministic diagnostic bundles from which
  the causal chain of a multicast span can be reconstructed.
"""

from __future__ import annotations

import pytest

from repro.chaos.engine import ChaosEngine
from repro.chaos.schedule import ChaosParams, FaultOp, Schedule
from repro.cluster.harness import RaincoreCluster
from repro.net.eventloop import EventLoop
from repro.obs import (
    FlightRecorder,
    ProbeBus,
    ProbeLog,
    bundle_events,
    bundle_to_json,
    causal_chain,
    dump_bundle,
    events_to_jsonl,
    load_bundle,
    render_bundle,
    render_chain,
    rollup_json,
)
from repro.obs.scenario import run_quickstart


# ----------------------------------------------------------------------
# probe bus
# ----------------------------------------------------------------------
def test_emit_validates_kind_and_arity():
    bus = ProbeBus(EventLoop(seed=0))
    with pytest.raises(KeyError):
        bus.emit("A", "no.such.kind")
    with pytest.raises(TypeError):
        bus.emit("A", "fd.arm", "B")  # fd.arm takes (peer, seq)


def test_emission_ordinals_are_global_and_dense():
    bus = ProbeBus(EventLoop(seed=0))
    seen = ProbeLog(bus)
    bus.emit("A", "core.wakeup")
    bus.emit("B", "core.wakeup")
    bus.emit("A", "fd.arm", "B", 7)
    assert [e.n for e in seen] == [1, 2, 3]
    assert seen[2].data() == {"peer": "B", "seq": 7}


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------
def test_ring_buffer_evicts_oldest_per_node():
    bus = ProbeBus(EventLoop(seed=0))
    recorder = FlightRecorder(bus, capacity=4)
    for _ in range(10):
        bus.emit("A", "core.wakeup")
    for _ in range(3):
        bus.emit("B", "core.wakeup")
    assert recorder.events_seen == 13
    # A's ring kept only the 4 newest; B's is under capacity and complete.
    assert [e.n for e in recorder.node_events("A")] == [7, 8, 9, 10]
    assert [e.n for e in recorder.node_events("B")] == [11, 12, 13]
    # The snapshot is the union in global emission order.
    assert [e.n for e in recorder.snapshot()] == [7, 8, 9, 10, 11, 12, 13]
    assert recorder.nodes == ["A", "B"]


def test_recorder_close_stops_recording():
    bus = ProbeBus(EventLoop(seed=0))
    recorder = FlightRecorder(bus, capacity=4)
    bus.emit("A", "core.wakeup")
    recorder.close()
    bus.emit("A", "core.wakeup")
    assert recorder.events_seen == 1


# ----------------------------------------------------------------------
# determinism golden: the probed quickstart scenario
# ----------------------------------------------------------------------
def test_probe_stream_is_byte_stable_across_runs():
    a = run_quickstart(nodes=3, seed=5, duration=0.5, crash=False)
    b = run_quickstart(nodes=3, seed=5, duration=0.5, crash=False)
    ja, jb = events_to_jsonl(a.events), events_to_jsonl(b.events)
    assert ja == jb
    assert rollup_json(a.agg.to_dict()) == rollup_json(b.agg.to_dict())


def test_probe_stream_respects_the_seed():
    a = run_quickstart(nodes=3, seed=5, duration=0.5, crash=False)
    b = run_quickstart(nodes=3, seed=6, duration=0.5, crash=False)
    assert events_to_jsonl(a.events) != events_to_jsonl(b.events)


# ----------------------------------------------------------------------
# token-carried trace context across regeneration and merge
# ----------------------------------------------------------------------
def test_token_lineage_across_regeneration():
    cluster = RaincoreCluster(["A", "B", "C"], seed=9)
    events = []
    cluster.enable_probes().subscribe(events.extend)
    cluster.start_all()
    cluster.run(0.5)
    pre_gens = {e.args[1] for e in events if e.kind == "token.accept"}
    assert pre_gens  # the bootstrapped generation circulated
    cluster.faults.lose_token()
    cluster.run(15.0)  # long enough for 911 detection and regeneration
    regens = [e for e in events if e.kind == "token.regen"]
    assert regens, "911 must have regenerated the token"
    regen = regens[0]
    # The new generation is fresh, and its recorded parent is the lost one.
    assert regen.args[0] not in pre_gens
    assert regen.args[1] in pre_gens
    # Post-regen circulation carries the new generation on the wire.
    post = [e for e in events if e.kind == "token.accept" and e.n > regen.n]
    assert post and all(e.args[1] == regen.args[0] for e in post)


def test_token_lineage_across_merge():
    cluster = RaincoreCluster(["A", "B", "C", "D"], seed=3)
    events = []
    cluster.enable_probes().subscribe(events.extend)
    cluster.start_all()
    cluster.faults.partition(["A", "B"], ["C", "D"])
    cluster.run(4.0)
    split_gens = {e.args[1] for e in events if e.kind == "token.accept"}
    cluster.faults.heal_partition()
    assert cluster.run_until_converged(30.0, expected=set("ABCD"))
    merges = [e for e in events if e.kind == "token.merge"]
    assert merges, "healing the partition must merge the groups"
    merged_gen, left, right, _seq = merges[-1].args
    assert merged_gen not in split_gens
    assert left in split_gens and right in split_gens
    post = [e for e in events if e.kind == "token.accept" and e.n > merges[-1].n]
    assert post and post[-1].args[1] == merged_gen


def test_causal_chain_links_attach_to_remote_delivery():
    cluster = RaincoreCluster(["A", "B", "C"], seed=1)
    events = []
    cluster.enable_probes().subscribe(events.extend)
    cluster.start_all()
    cluster.node("A").multicast(b"chained")
    cluster.run(0.5)
    attaches = [e for e in events if e.kind == "mcast.attach"]
    assert len(attaches) == 1
    origin, msg_no = attaches[0].args[0], attaches[0].args[1]
    chain = causal_chain(events, origin, msg_no)
    kinds = [e.kind for e in chain]
    assert kinds[0] == "mcast.attach"
    assert "transport.tx" in kinds  # the token hop that carried it
    delivered_at = {e.node for e in chain if e.kind == "mcast.deliver"}
    assert delivered_at == {"A", "B", "C"}
    # Every hop in the chain carries the loaded token's trace context.
    for e in chain:
        if e.kind == "transport.tx":
            assert e.args[4][0] == "tok" and e.args[4][3] > 0


# ----------------------------------------------------------------------
# failing chaos runs produce deterministic diagnostic bundles
# ----------------------------------------------------------------------
def _forged_failure_schedule() -> Schedule:
    params = ChaosParams(nodes=4, seconds=4.0, seed=21, segments=2, strict=True)
    return Schedule(
        params=params,
        ops=[FaultOp(at=2.0, kind="forge_duplicate_token", args=())],
    )


def test_failing_chaos_run_builds_bundle(tmp_path):
    result = ChaosEngine(_forged_failure_schedule()).run()
    assert not result.ok
    assert result.failure == "invariant:token-uniqueness"
    bundle = result.bundle
    assert bundle is not None
    assert bundle["schema"] == "repro.obs.bundle/4"
    assert isinstance(bundle["alerts"], list)
    assert bundle["reason"] == result.failure
    assert bundle["nodes"] == ["n00", "n01", "n02", "n03"]
    assert bundle["context"]["seed"] == 21
    assert bundle["schedule"]["params"]["seed"] == 21
    assert bundle["events"]
    # The bundle snapshot was taken at first-violation time, not run end.
    assert bundle["at"] <= 4.0 + 2.0

    # Round-trips through disk, renders, and yields a causal chain.
    path = dump_bundle(bundle, tmp_path / "x.bundle.json")
    loaded = load_bundle(path)
    assert loaded == bundle
    events = bundle_events(loaded)
    rendered = render_bundle(loaded, kinds={"token.accept"}, limit=5)
    assert rendered.startswith("bundle: invariant:token-uniqueness")
    assert "token.accept" in rendered
    spans = sorted(
        {(e.args[0], e.args[1]) for e in events if e.kind == "mcast.attach"}
    )
    assert spans, "the background load must appear in the recorder window"
    origin, msg_no = spans[0]
    chain_text = render_chain(events, origin, msg_no)
    assert f"span {origin}#{msg_no}:" in chain_text
    assert "mcast.attach" in chain_text and "mcast.deliver" in chain_text


def test_bundle_is_byte_identical_across_same_seed_runs():
    a = ChaosEngine(_forged_failure_schedule()).run()
    b = ChaosEngine(_forged_failure_schedule()).run()
    assert a.bundle is not None and b.bundle is not None
    assert bundle_to_json(a.bundle) == bundle_to_json(b.bundle)


def test_load_bundle_rejects_foreign_json(tmp_path):
    path = tmp_path / "not-a-bundle.json"
    path.write_text('{"schema": "something/else"}')
    with pytest.raises(ValueError, match="supported"):
        load_bundle(path)


def test_load_bundle_failures_are_named_valueerrors(tmp_path):
    """Every corrupt-bundle shape raises ValueError naming the problem —
    never a bare KeyError/JSONDecodeError leaking to the caller."""
    missing = tmp_path / "no-such.bundle.json"
    with pytest.raises(ValueError, match="cannot read bundle"):
        load_bundle(missing)

    not_json = tmp_path / "truncated.bundle.json"
    not_json.write_text('{"schema": "repro.obs.bundle/2", "events": [')
    with pytest.raises(ValueError, match="not JSON"):
        load_bundle(not_json)

    not_dict = tmp_path / "list.bundle.json"
    not_dict.write_text('[1, 2, 3]')
    with pytest.raises(ValueError, match="top level is list"):
        load_bundle(not_dict)

    gutted = tmp_path / "gutted.bundle.json"
    gutted.write_text('{"schema": "repro.obs.bundle/2", "reason": "x"}')
    with pytest.raises(ValueError, match="missing required section"):
        load_bundle(gutted)

    bad_events = tmp_path / "bad-events.bundle.json"
    bad_events.write_text(
        '{"schema": "repro.obs.bundle/2", "reason": "x", "detail": "",'
        ' "at": 0, "nodes": [], "context": {}, "events": {}, "metrics": {}}'
    )
    with pytest.raises(ValueError, match="must be a list"):
        load_bundle(bad_events)


def test_load_bundle_accepts_v1_and_backfills_alerts(tmp_path):
    path = tmp_path / "old.bundle.json"
    path.write_text(
        '{"schema": "repro.obs.bundle/1", "reason": "x", "detail": "",'
        ' "at": 0, "nodes": [], "context": {}, "events": [], "metrics": {}}'
    )
    bundle = load_bundle(path)
    assert bundle["schema"] == "repro.obs.bundle/1"
    assert bundle["alerts"] == []  # one shape for downstream readers
