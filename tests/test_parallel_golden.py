"""Golden byte-identity of the lockstep-epoch harness.

docs/PARALLEL.md's determinism contract says: for a fixed seed, the
canonical probe stream of a harness run is a function of the workload and
horizon alone.  The stream's sha256, its event counts and a digest of the
end-of-run facts are pinned in ``golden_parallel_seed7.json``, so a change
that moves a byte of the multi-ring run trips the committed artifact.

If an intentional model change invalidates the artifact, regenerate with
``python tests/test_parallel_golden.py`` and justify the diff in the PR.
"""

from __future__ import annotations

import hashlib
import json
import os

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
PARALLEL_GOLDEN = os.path.join(DATA_DIR, "golden_parallel_seed7.json")

SEED = 7
PARAMS = {"rings": 4, "ring_size": 3}
HORIZON = 2.0


def record_golden():
    from repro.parallel import ParallelSimulator

    result = ParallelSimulator("multi_ring", SEED, PARAMS).run(
        HORIZON, probes=True
    )
    stream = result.stream_jsonl()
    return {
        "workload": dict(PARAMS, seed=SEED, horizon=HORIZON),
        "stream_sha256": hashlib.sha256(stream.encode()).hexdigest(),
        "probe_events": len(result.probe_events()),
        "loop_events": result.events,
        "facts_sha256": hashlib.sha256(
            json.dumps(result.facts, sort_keys=True, default=str).encode()
        ).hexdigest(),
    }


def test_serial_stream_matches_committed_golden():
    with open(PARALLEL_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert record_golden() == golden, (
        "sharded-engine golden artifact diverged; if the model change is "
        "intentional, regenerate with `python tests/test_parallel_golden.py` "
        "and justify the diff in the PR"
    )


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    with open(PARALLEL_GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(record_golden(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PARALLEL_GOLDEN}")
