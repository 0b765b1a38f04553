"""Bounded-state session resync (repro.data.resync + repro.data.replica).

Four layers, mirroring docs/RESYNC.md:

* **SegmentedLog unit behaviour** — sealing, certification via the hash
  chain, segment-granular pruning, and the continuation point's
  monotonicity;
* **degradation-ladder boundaries** — a peer certified exactly at the
  window edge is served a delta, one past the edge degrades to a
  continuation-point snapshot, a disabled window (``resync_window_bytes
  = 0``) quarantines immediately, and repeated fallbacks quarantine with
  a structured reason;
* **partition rejoin end-to-end** — a strict-prefix merge peer catches
  up via one certified delta (O(window), no snapshot), while a partition
  whose missed traffic dwarfs the window degrades to the snapshot rung
  with retained bytes never exceeding the budget and zero contract
  alerts (the tentpole's deliverable soak);
* **determinism** — same seed, same resync probe stream, byte for byte.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster.harness import RaincoreCluster
from repro.core.config import RaincoreConfig
from repro.core.session import QUARANTINE_BACKOFF
from repro.data import SharedDict, resync
from repro.data.replica import QUARANTINE_AFTER
from repro.data.resync import (
    GENESIS_DIGEST,
    ContinuationPoint,
    ResyncAck,
    ResyncDelta,
    SegmentedLog,
    chain_digest,
    chain_identity,
)
from repro.obs.monitor import ContractMonitor, paper_contract_rules, render_alerts
from repro.obs.probe import ProbeLog, events_to_jsonl

pytestmark = pytest.mark.integration


# ----------------------------------------------------------------------
# SegmentedLog unit behaviour (pure, no cluster)
# ----------------------------------------------------------------------
def fill(log: SegmentedLog, n: int, size: int = 10, start: int = 0):
    """Append n string payloads, return the per-append sealed flags."""
    return [log.append(f"op{start + i}", size)[1] for i in range(n)]


def test_append_seals_at_segment_ops():
    log = SegmentedLog(4)
    sealed = fill(log, 9)
    assert sealed == [False, False, False, True] * 2 + [False]
    assert log.head_seq == 9
    assert log.segment_count() == 3  # two sealed + one open
    assert log.buffered_bytes() == 90


def test_digest_at_certifies_cont_and_retained_entries():
    log = SegmentedLog(4)
    assert log.digest_at(0) == GENESIS_DIGEST  # genesis continuation
    fill(log, 6)
    assert log.digest_at(0) == GENESIS_DIGEST  # still the cont point
    assert log.digest_at(3) is not None  # retained entry
    assert log.digest_at(6) == log.head_digest
    assert log.digest_at(7) is None  # ahead of our head: cannot vouch
    # Prune the first (sealed) segment away: seq 1-4 leave the window.
    log.prune_to(4, "state0")
    assert log.cont.upto_seq == 4
    assert log.digest_at(4) == log.cont.digest
    assert log.digest_at(3) is None  # out of window now
    assert log.digest_at(5) is not None  # still retained


def test_entries_after_returns_retained_tail():
    log = SegmentedLog(3)
    fill(log, 7)
    tail = log.entries_after(4)
    assert [e.seq for e in tail] == [5, 6, 7]
    assert log.entries_after(7) == []
    # The digests chain: each entry's digest folds the previous one.
    prev = log.digest_at(4)
    for e in tail:
        assert e.digest == chain_digest(prev, e.seq, chain_identity(e.payload, e.size))
        prev = e.digest


def test_prune_to_is_segment_granular_and_advances_continuation():
    log = SegmentedLog(4)
    fill(log, 10, size=5)
    # Floor mid-segment: only the fully-covered sealed segment drops.
    dropped, freed = log.prune_to(6, "stateA")
    assert (dropped, freed) == (1, 20)
    assert log.cont.upto_seq == 4
    assert log.buffered_bytes() == 30
    # The open segment never prunes cooperatively, whatever the floor.
    dropped, _ = log.prune_to(10, "stateB")
    assert dropped == 1  # the second sealed segment only
    assert log.cont.upto_seq == 8
    assert log.segment_count() == 1


def test_force_prune_seals_open_segment_to_meet_budget():
    log = SegmentedLog(4)
    fill(log, 6, size=10)  # one sealed segment (40 B) + open (20 B)
    dropped, freed = log.force_prune(25, "stateC")
    assert (dropped, freed) == (1, 40)
    assert log.buffered_bytes() == 20
    # Budget 0 sheds everything, including the (now sealed) open segment.
    dropped, freed = log.force_prune(0, "stateD")
    assert (dropped, freed) == (1, 20)
    assert log.buffered_bytes() == 0
    assert log.cont.upto_seq == 6
    assert log.head_digest == log.cont.digest


def test_adopt_resets_onto_continuation_point():
    log = SegmentedLog(4)
    fill(log, 6)
    log.adopt(40, "feedfeedfeedfeed")
    assert log.buffered_bytes() == 0
    assert log.segment_count() == 0
    assert log.head_seq == 40
    assert log.head_digest == "feedfeedfeedfeed"
    entry, sealed = log.append("next", 8)
    assert (entry.seq, sealed) == (41, False)
    assert entry.digest == chain_digest("feedfeedfeedfeed", 41, chain_identity("next", 8))


def test_continuation_point_is_monotone():
    log = SegmentedLog(2)
    horizons = [log.cont.upto_seq]
    for round_no in range(5):
        fill(log, 4, start=round_no * 4)
        log.prune_to(log.head_seq, f"s{round_no}")
        horizons.append(log.cont.upto_seq)
    assert horizons == sorted(horizons)
    assert horizons[-1] > horizons[0]


def test_chain_digest_is_history_sensitive():
    op = chain_identity("op", 10)
    a = chain_digest(GENESIS_DIGEST, 1, op)
    assert a == chain_digest(GENESIS_DIGEST, 1, op)
    assert a != chain_digest(GENESIS_DIGEST, 1, chain_identity("op!", 10))
    assert a != chain_digest(GENESIS_DIGEST, 1, chain_identity("op", 11))
    assert a != chain_digest(GENESIS_DIGEST, 2, op)
    assert a != chain_digest(a, 1, op)


def test_continuation_point_is_a_position_and_nothing_else():
    """``(upto_seq, chain digest)``: there is no state digest to reach, so
    nothing can make a prune cost O(state) again by filling one in."""
    assert [f.name for f in dataclasses.fields(ContinuationPoint)] == ["upto_seq", "digest"]
    assert not hasattr(resync, "state_digest")


def test_segmented_log_rejects_degenerate_segment_size():
    with pytest.raises(ValueError):
        SegmentedLog(0)


# ----------------------------------------------------------------------
# degradation-ladder boundaries (two live members + one modelled peer)
# ----------------------------------------------------------------------
def ladder_cluster(**overrides):
    """A formed 2-node cluster with probes and small (4-op) segments."""
    config = RaincoreConfig.tuned(ring_size=2, resync_segment_ops=4, **overrides)
    c = RaincoreCluster(["A", "B"], seed=21, config=config)
    events = ProbeLog(c.enable_probes())  # read between direct calls too
    dicts = {n: SharedDict(c.node(n)) for n in "AB"}
    c.start_all()
    return c, dicts, events


def pruned_window(c, dicts):
    """Write two sealed segments, let cooperative pruning burn them, then
    two more ops — leaving cont.upto_seq == 8 and seqs 9, 10 retained."""
    for i in range(8):
        dicts["A"].set(f"k{i}", i)
    c.run(3.0)
    cont = dicts["A"]._log.cont
    assert cont.upto_seq == 8, "cooperative pruning should have reached seq 8"
    dicts["A"].set("k8", 8)
    dicts["A"].set("k9", 9)
    c.run(1.0)
    return dicts["A"]._log.cont


def test_cooperative_prune_is_ack_driven_and_unforced(probes=None):
    c, dicts, events = ladder_cluster()
    pruned_window(c, dicts)
    prunes = [e for e in events if e.kind == "resync.prune"]
    assert prunes, "sealed fully-acked segments must burn"
    assert all(e.args[4] is False for e in prunes)  # forced=False
    # Both replicas burned the same horizons in the same order.
    by_node = {
        n: [e.args[1] for e in prunes if e.node == n] for n in "AB"
    }
    assert by_node["A"] == by_node["B"] != []


def test_peer_certified_at_window_edge_is_served_a_delta():
    c, dicts, events = ladder_cluster()
    cont = pruned_window(c, dicts)
    # A peer standing exactly on the continuation point: last position
    # that still certifies.  The answer must be the retained tail.
    dicts["A"]._serve_peer("Z", cont.upto_seq, cont.digest)
    c.run(1.0)
    deltas = [e for e in events if e.kind == "resync.delta" and e.args[1] == "Z"]
    assert len(deltas) == 1
    assert deltas[0].args[2] == cont.upto_seq  # from_seq == 8
    assert deltas[0].args[3] == 2  # entries: seqs 9 and 10
    assert not [
        e for e in events if e.kind == "resync.snapshot_fallback" and e.args[1] == "Z"
    ]
    assert "Z" not in c.node("A").quarantined


def test_peer_one_past_window_edge_falls_back_to_snapshot():
    c, dicts, events = ladder_cluster()
    cont = pruned_window(c, dicts)
    # One op earlier than the continuation point: burnt history, cannot
    # certify — the ladder degrades to a continuation-point snapshot.
    dicts["A"]._serve_peer("Z", cont.upto_seq - 1, "beefbeefbeefbeef")
    fallbacks = [
        e for e in events if e.kind == "resync.snapshot_fallback" and e.args[1] == "Z"
    ]
    assert len(fallbacks) == 1
    assert fallbacks[0].args[2] == cont.upto_seq - 1  # peer_seq
    assert fallbacks[0].args[3] == cont.upto_seq  # window_floor
    assert not [e for e in events if e.kind == "resync.delta" and e.args[1] == "Z"]
    assert "Z" not in c.node("A").quarantined


def test_window_disabled_quarantines_immediately_and_lifts():
    c, dicts, events = ladder_cluster(resync_window_bytes=0)
    dicts["A"]._serve_peer("Z", 0, GENESIS_DIGEST)
    assert c.node("A").quarantined.get("Z") == "resync-window-disabled"
    marks = [
        e for e in events if e.kind == "resync.quarantine" and e.args[0] == "Z"
    ]
    assert [(e.args[1], e.args[2]) for e in marks] == [
        ("resync-window-disabled", True)
    ]
    assert not [e for e in events if e.kind == "resync.delta"]
    # The quarantine lifts after the fixed backoff.
    c.run(QUARANTINE_BACKOFF + 1.0)
    assert "Z" not in c.node("A").quarantined
    lifted = [
        e
        for e in events
        if e.kind == "resync.quarantine" and e.args[0] == "Z" and not e.args[2]
    ]
    assert len(lifted) == 1


def test_repeated_fallbacks_quarantine_with_structured_reason():
    c, dicts, events = ladder_cluster()
    allowed = QUARANTINE_AFTER
    # Uncertifiable position, over and over, with no certified ack in
    # between: `allowed` snapshot fallbacks, then the ladder's last rung.
    for _ in range(allowed + 1):
        dicts["A"]._serve_peer("Z", 3, "beefbeefbeefbeef")
    fallbacks = [
        e for e in events if e.kind == "resync.snapshot_fallback" and e.args[1] == "Z"
    ]
    assert len(fallbacks) == allowed
    assert c.node("A").quarantined == {"Z": "resync-failed-repeatedly"}


def test_joiner_on_an_idle_dict_syncs_and_stops_asking():
    """Nothing was ever written: the group answers the joiner's genesis
    position with an empty certified delta.  That is a complete answer —
    the joiner is current — not a reason to keep re-asking forever."""
    c, dicts, events = ladder_cluster()
    c.add_node("C", start=False)
    dicts["C"] = SharedDict(c.node("C"))
    c.node("C").start_joining(["A", "B"])
    c.run(2.0)
    assert c.node("C").is_member
    assert dicts["C"].synced, "an empty certified delta must sync the joiner"
    assert dicts["C"]._sync_timer is None
    settled = len(events)
    c.run(5.0)  # many join_retry periods: an unsynced replica would re-ask
    assert [e for e in events[settled:] if e.kind == "state.sync_request"] == []
    # ...and it is a working replica, not just a flag.
    dicts["A"].set("k", 1)
    c.run(1.0)
    assert dicts["C"].get("k") == 1 and dicts["C"].applied_seq == 1


def forgetful_pair():
    """A and B agree on three order-sensitive writes; nothing is pruned
    (one open segment), then B loses its log and chain and is back at
    genesis, unsynced, with nobody answering it yet."""
    c, dicts, events = ladder_cluster()
    dicts["A"].set("k", 1)
    dicts["A"].set("k", 2)
    dicts["A"].set("j", 3)
    c.run(1.0)
    assert dicts["B"].snapshot() == {"k": 2, "j": 3}
    assert dicts["A"].continuation.upto_seq == 0
    dicts["B"].forget()
    tail = dicts["A"]._log.entries_after(0)
    assert [e.seq for e in tail] == [1, 2, 3]
    events = ProbeLog(c.probes)  # what happens from here on
    return c, dicts, events, tail


def test_honest_delta_syncs_in_one_step():
    c, dicts, events, tail = forgetful_pair()
    c.node("A").multicast(
        ResyncDelta(SharedDict.SERVICE, "B", 0, GENESIS_DIGEST, tuple(tail))
    )
    c.run(1.0)
    assert dicts["B"].synced and dicts["B"].applied_seq == 3
    assert dicts["B"]._log.head_digest == dicts["A"]._log.head_digest
    assert dicts["B"].snapshot() == {"k": 2, "j": 3}
    assert not [e for e in events if e.kind in ("state.sync_request", "state.snapshot")]


def test_forged_delta_tail_is_refused_and_reconciled_by_snapshot():
    """The base certifies and there is no overlap to check, but the tail
    has two entries swapped.  Chaining it locally cannot end on the digest
    the answerer shipped, so the receiver must not call itself synced or
    ack the fork: it re-asks, and the ladder hands it a snapshot."""
    c, dicts, events, tail = forgetful_pair()
    forged = (tail[1], tail[0], tail[2])
    c.node("A").multicast(
        ResyncDelta(SharedDict.SERVICE, "B", 0, GENESIS_DIGEST, forged)
    )
    for _ in range(200):
        c.run(0.005)
        if dicts["B"].applied_seq:
            break
    # The moment after delivery: the fork is held, and known to be one.
    assert dicts["B"].applied_seq == 3
    fork = dicts["B"]._log.head_digest
    assert fork != dicts["A"]._log.head_digest
    assert not dicts["B"].synced, "a forged tail must not sync the receiver"
    assert dicts["B"]._sync_timer is not None
    c.run(3.0)
    asked = [e for e in events if e.kind == "state.sync_request" and e.node == "B"]
    assert asked, "the refusal must be followed by a SyncRequest"
    assert [e for e in events if e.kind == "resync.snapshot_fallback" and e.args[1] == "B"]
    assert dicts["B"].synced
    assert dicts["B"].snapshot() == dicts["A"].snapshot() == {"k": 2, "j": 3}
    assert dicts["B"]._log.head_digest == dicts["A"]._log.head_digest
    assert not [
        d for d in c.listener("A").deliveries
        if isinstance(d.payload, ResyncAck) and d.payload.digest == fork
    ], "the fork was acked"


def test_uncertified_ack_does_not_clear_strikes_but_a_certified_one_does():
    c, dicts, _events = ladder_cluster()
    pruned_window(c, dicts)
    a = dicts["A"]
    a._serve_peer("Z", 3, "beefbeefbeefbeef")
    assert a._strikes == {"Z": 1}
    # Still standing somewhere we cannot vouch for: the strike stays.
    a._handle_ack(ResyncAck(SharedDict.SERVICE, "Z", 3, "beefbeefbeefbeef"))
    a._handle_ack(ResyncAck(SharedDict.SERVICE, "Z", 10, "beefbeefbeefbeef"))
    assert a._strikes == {"Z": 1}
    # A certified position is proof the resync worked: forgiven.
    a._handle_ack(ResyncAck(SharedDict.SERVICE, "Z", 10, a._log.digest_at(10)))
    assert a._strikes == {}


# ----------------------------------------------------------------------
# partition rejoin end-to-end
# ----------------------------------------------------------------------
def test_strict_prefix_merge_peer_rejoins_via_one_certified_delta():
    """A member partitioned away while the majority keeps writing has a
    history that is a strict *prefix* of the group's.  Rejoin must ride
    the continuation chain: one certified delta with exactly the missed
    ops — no snapshot, and no stale-state overwrite from the rejoiner's
    own growth coordination (the merged-back-singleton trap)."""
    c = RaincoreCluster(list("ABCD"), seed=5)
    events: list = []
    c.enable_probes().subscribe(events.extend)
    sds = {n: SharedDict(c.node(n)) for n in "ABCD"}
    c.start_all()
    sds["A"].set("stable", 1)
    c.run(1.0)
    c.faults.partition(["A", "B", "C"], ["D"])
    c.run(3.0)
    for i in range(6):
        sds["A"].set(f"k{i}", i)
    c.run(2.0)
    heal_at = c.loop.now
    c.faults.heal_partition()
    assert c.run_until_converged(12.0, expected=set("ABCD"))
    c.run(4.0)
    snaps = {n: sds[n].snapshot() for n in "ABCD"}
    assert all(s == snaps["A"] for s in snaps.values())
    # The majority's partition-era writes survived the merge everywhere.
    assert snaps["D"] == {"stable": 1, **{f"k{i}": i for i in range(6)}}
    deltas = [
        e for e in events
        if e.kind == "resync.delta" and e.at > heal_at and e.args[1] == "D"
    ]
    assert len(deltas) == 1
    assert deltas[0].args[3] == 6  # entries == exactly the missed ops
    assert not [
        e for e in events if e.kind == "state.snapshot" and e.at > heal_at
    ], "a strict-prefix rejoin must not cost a snapshot"


def test_long_partition_soak_rejoins_in_o_window_within_budget():
    """The tentpole's deliverable: partition two nodes while the majority
    writes traffic that dwarfs ``resync_window_bytes``.  The majority
    burns its log down to the budget the whole time, the rejoiners'
    positions no longer certify, and the ladder hands them one
    continuation-point snapshot each — O(window) + O(state), never
    O(partition-length history) — with zero contract alerts and retained
    bytes never exceeding the budget on any node."""
    ids = [f"n{i:02d}" for i in range(6)]
    config = RaincoreConfig.tuned(
        ring_size=6, resync_window_bytes=2048, resync_segment_ops=8
    )
    c = RaincoreCluster(ids, seed=11, config=config)
    bus = c.enable_probes()
    events: list = []
    bus.subscribe(events.extend)
    monitor = ContractMonitor(bus, paper_contract_rules(config, 6))
    sds = {n: SharedDict(c.node(n)) for n in ids}
    c.start_all()
    monitor.start()
    c.run(1.0)
    c.faults.partition(ids[:4], ids[4:])
    c.run(2.0)
    # ~26 B/op * 160 ops ≈ 4 KB of missed traffic against a 2 KB window.
    for i in range(160):
        sds["n00"].set(f"key{i % 20}", i)
        if i % 10 == 9:
            c.run(0.3)
    c.run(2.0)
    majority_prunes = [
        e for e in events if e.kind == "resync.prune" and e.node in ids[:4]
    ]
    assert majority_prunes, "the majority must burn segments while partitioned"
    heal_at = c.loop.now
    c.faults.heal_partition()
    assert c.run_until_converged(20.0, expected=set(ids))
    c.run(5.0)
    monitor.evaluate()

    # 1. Convergence on the majority's (lower-group-id) state.
    snaps = [sds[n].snapshot() for n in ids]
    assert all(s == snaps[0] for s in snaps)
    assert snaps[0]["key19"] == 159

    # 2. Hard budget: no resync.buffer sample ever exceeds its budget.
    for e in events:
        if e.kind == "resync.buffer" and e.args[2] > 0:
            assert e.args[1] <= e.args[2], f"budget exceeded: {e!r}"

    # 3. Zero contract alerts — in particular zero buffer-bound.
    assert monitor.alerts == [], render_alerts(monitor.alerts)

    # 4. O(window) rejoin: the rejoiners are out of window, so they take
    #    the snapshot rung; any delta served anywhere stays window-sized.
    fallbacks = [
        e for e in events
        if e.kind == "resync.snapshot_fallback" and e.at > heal_at
    ]
    assert {e.args[1] for e in fallbacks} & set(ids[4:])
    for e in events:
        if e.kind == "resync.delta":
            assert e.args[4] <= config.resync_window_bytes + 512

    # 5. Continuation points are monotone on every node.
    for n in ids:
        horizons = [
            e.args[1] for e in events if e.kind == "resync.prune" and e.node == n
        ]
        assert horizons == sorted(horizons)

    # 6. Nobody was quarantined in a healthy (if long) partition cycle.
    assert not [e for e in events if e.kind == "resync.quarantine"]


def test_budget_overflow_force_prunes_before_acks_catch_up():
    """A write burst inside one token visit outruns cooperative acks; the
    hard budget must force-prune instead of letting the log grow."""
    c, dicts, events = ladder_cluster(resync_window_bytes=256)
    for i in range(40):
        dicts["A"].set(f"k{i % 8}", i)
    c.run(3.0)
    forced = [e for e in events if e.kind == "resync.prune" and e.args[4] is True]
    assert forced, "burst past the budget must force-prune"
    for e in events:
        if e.kind == "resync.buffer":
            assert e.args[1] <= 256
    # The replicas still agree afterwards.
    assert dicts["A"].snapshot() == dicts["B"].snapshot()


@pytest.mark.parametrize("keys", [16, 4096])
def test_steady_state_writes_never_touch_the_whole_state(keys):
    """A prune is list surgery on the log.  Counted, not timed: however
    large the replica is, sealing, acking and burning ten segments after
    the key space is populated never materializes a snapshot of it."""
    snapshots: list[str] = []

    class CountingDict(SharedDict):
        def _snapshot_payload(self):
            snapshots.append(self.node.node_id)
            return super()._snapshot_payload()

    segment_ops = 32
    config = RaincoreConfig.tuned(ring_size=3, resync_segment_ops=segment_ops)
    c = RaincoreCluster(list("ABC"), seed=3, config=config)
    events: list = []
    c.enable_probes().subscribe(events.extend)
    dicts = {n: CountingDict(c.node(n)) for n in "ABC"}
    c.start_all()
    c.run(1.0)
    assert all(d.synced for d in dicts.values())
    del snapshots[:]  # formation may transfer state; steady state may not
    for i in range(keys + 10 * segment_ops):
        dicts["ABC"[i % 3]].set(f"key{i % keys}", i)
        if i % 64 == 63:
            c.run(0.1)
    c.run(2.0)
    assert all(len(d) == keys for d in dicts.values())
    prunes = [e for e in events if e.kind == "resync.prune"]
    assert len(prunes) >= 3 * 10 and not any(e.args[4] for e in prunes)
    assert dicts["A"].continuation.upto_seq >= 10 * segment_ops
    assert snapshots == []


# ----------------------------------------------------------------------
# determinism: pruning and resync decisions are byte-stable per seed
# ----------------------------------------------------------------------
def test_resync_probe_stream_is_byte_identical_across_same_seed_runs():
    def one_run() -> str:
        config = RaincoreConfig.tuned(
            ring_size=4, resync_window_bytes=1024, resync_segment_ops=4
        )
        c = RaincoreCluster(list("ABCD"), seed=17, config=config)
        events: list = []
        c.enable_probes().subscribe(events.extend)
        sds = {n: SharedDict(c.node(n)) for n in "ABCD"}
        c.start_all()
        for i in range(24):
            sds["B"].set(f"k{i % 6}", i)
        c.run(2.0)
        c.faults.partition(["A", "B"], ["C", "D"])
        c.run(2.0)
        sds["A"].set("side", "AB")
        sds["C"].set("side", "CD")
        c.run(1.0)
        c.faults.heal_partition()
        c.run_until_converged(15.0, expected=set("ABCD"))
        c.run(2.0)
        resync = [e for e in events if e.kind.startswith("resync.")]
        return events_to_jsonl(resync)

    first, second = one_run(), one_run()
    assert "resync.prune" in first
    assert first == second


# ----------------------------------------------------------------------
# docs drift: RESYNC.md's knob table names only what exists
# ----------------------------------------------------------------------
def test_resync_doc_table_names_live_fields_and_constants():
    import importlib
    import re
    from pathlib import Path

    doc = Path(__file__).resolve().parent.parent / "docs" / "RESYNC.md"
    rows = re.findall(
        r"^\| `(\w+)` \| `([\w.]+)` \| ([^|]+) \|", doc.read_text(), re.M
    )
    assert {name for name, _, _ in rows} >= {"QUARANTINE_AFTER", "resync_window_bytes"}
    fields = {f.name: f.default for f in dataclasses.fields(RaincoreConfig)}
    for name, where, value in rows:
        if where == "RaincoreConfig":
            assert name in fields, f"{name} is not a RaincoreConfig field"
            actual = fields[name]
        else:
            module = importlib.import_module(where)
            assert hasattr(module, name), f"{where} has no constant {name}"
            actual = getattr(module, name)
        assert float(value) == actual, f"{name}: documented {value}, is {actual}"
