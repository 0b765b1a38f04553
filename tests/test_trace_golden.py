"""Golden tests: the protocol trace renders byte-identically.

The golden files were captured from the pre-probe-bus trace recorder (its
own listeners + network wiretap).  The trace is now ``trace_rows`` over a
``ProbeLog``; these tests pin the rendered timeline and swimlanes to the
exact bytes the old implementation produced for the same seeded scenario.
"""

from __future__ import annotations

from pathlib import Path

from repro.cluster.harness import RaincoreCluster
from repro.obs import ProbeLog, render_swimlanes, render_timeline, trace_rows

DATA = Path(__file__).parent / "data"
KINDS = {"state", "view", "token", "deliver", "shutdown"}


def _run_scenario() -> tuple[ProbeLog, RaincoreCluster]:
    cluster = RaincoreCluster(["A", "B", "C"], seed=1)
    log = ProbeLog(cluster.enable_probes())
    cluster.start_all()
    cluster.node("A").multicast(b"traced")
    cluster.run(0.25)
    return log, cluster


def test_timeline_matches_pre_retrofit_golden():
    log, _ = _run_scenario()
    rendered = render_timeline(trace_rows(log, KINDS), limit=60) + "\n"
    golden = (DATA / "golden_trace_timeline_seed1.txt").read_text()
    assert rendered == golden


def test_swimlanes_match_pre_retrofit_golden():
    log, cluster = _run_scenario()
    rows = trace_rows(log, KINDS)
    rendered = render_swimlanes(rows, cluster.node_ids, limit=60) + "\n"
    golden = (DATA / "golden_trace_swimlanes_seed1.txt").read_text()
    assert rendered == golden
