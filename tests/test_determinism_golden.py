"""Golden-artifact determinism tests for the simulation substrate.

The repo's determinism rule — same seed, same run — is what makes chaos
traces replayable and failures shrinkable, so the hot-path optimizations
(per-pack token copies, cached routes, tuple-keyed timers, RNG fast paths)
must not move a single random draw or event.  These tests replay two
fixed-seed scenarios recorded *before* the overhaul and require the
results to match byte for byte:

* ``golden_packet_trace_seed11.json`` — every send attempt (time, route,
  payload type, size, fate) of a 6-node dual-segment cluster with loss,
  burst loss, duplication, delay spikes, and a crash/recovery.
* ``golden_chaos_seed7.json`` — the schedule hash and end-of-run facts of
  a seeded chaos engine run.

If an intentional model change invalidates them, regenerate with
``python tests/test_determinism_golden.py`` and justify the diff in the PR.
"""

from __future__ import annotations

import hashlib
import json
import os

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
PACKET_GOLDEN = os.path.join(DATA_DIR, "golden_packet_trace_seed11.json")
CHAOS_GOLDEN = os.path.join(DATA_DIR, "golden_chaos_seed7.json")


def record_packet_trace(seed=11, nodes=6, seconds=3.0):
    """The recorded scenario: every adversity knob on, plus churn."""
    from repro.cluster.harness import RaincoreCluster
    from repro.core.config import RaincoreConfig

    cluster = RaincoreCluster(
        [f"n{i}" for i in range(nodes)],
        seed=seed,
        segments=2,
        loss=0.02,
        config=RaincoreConfig.tuned(ring_size=nodes, hop_interval=0.005),
    )
    records = []

    def tap(packet, sent):
        records.append(
            [
                round(cluster.loop.now, 9),
                packet.src,
                packet.dst,
                type(packet.payload).__name__,
                packet.size,
                bool(sent),
            ]
        )

    cluster.network.trace = tap
    cluster.start_all()
    cluster.faults.set_duplication(0.05)
    cluster.faults.set_delay_spikes(0.03, 0.02)
    cluster.faults.set_burst_loss(0.02, 0.4)
    for i in range(30):
        cluster.node(f"n{i % nodes}").multicast(f"m{i}", size=150)
    cluster.faults.crash_node("n3")
    cluster.run(seconds)
    cluster.faults.recover_node("n3")
    cluster.run(seconds)
    return records


def run_chaos_facts():
    from repro.chaos import ChaosEngine, ChaosParams, Schedule

    params = ChaosParams(nodes=6, seconds=8.0, seed=7, segments=2, intensity=1.0)
    schedule = Schedule.generate(params)
    result = ChaosEngine(schedule).run()
    return {
        "schedule_sha256": hashlib.sha256(schedule.to_json().encode()).hexdigest(),
        "ok": result.ok,
        "failure": result.failure,
        "stats": result.stats,
    }


def test_packet_trace_replays_byte_identically():
    blob = json.dumps(record_packet_trace(), separators=(",", ":"))
    with open(PACKET_GOLDEN, encoding="utf-8") as fh:
        golden = fh.read()
    # Compare hashes first for a readable failure, then the full trace.
    assert (
        hashlib.sha256(blob.encode()).hexdigest()
        == hashlib.sha256(golden.encode()).hexdigest()
    ), "packet trace diverged from the pre-overhaul golden recording"
    assert blob == golden


def test_chaos_run_matches_golden_facts():
    with open(CHAOS_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert run_chaos_facts() == golden


def test_packet_trace_is_self_deterministic():
    """Two in-process runs must agree even without the golden file."""
    a = record_packet_trace(seconds=1.0)
    b = record_packet_trace(seconds=1.0)
    assert a == b


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    with open(PACKET_GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record_packet_trace(), separators=(",", ":")))
    with open(CHAOS_GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(run_chaos_facts(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"regenerated {PACKET_GOLDEN} and {CHAOS_GOLDEN}")
