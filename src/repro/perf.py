"""Rate floor for the simulation substrate.

The protocol stack is exercised entirely in virtual time, but the repo also
cares about how fast the *simulator itself* runs: slow hot paths cap how
much virtual time the chaos campaigns and soak tests can afford.  This
module measures wall-clock throughput of the three hot paths the substrate
optimizes — the bare event loop, a loaded 8-node token ring, and the token
hop pipeline — and reports machine-readable rates for regression tracking.

.. note::
   This is the one module under ``src/`` allowed to read the wall clock
   (``time.perf_counter``): its entire purpose is measuring real elapsed
   time.  Protocol and simulation code must keep using virtual time only.

Metrics (all higher-is-better except ``wall_clock_per_sim_second``):

* ``event_loop_events_per_sec`` — callbacks dispatched per wall second by
  an :class:`~repro.net.eventloop.EventLoop` with no protocol on top.
* ``loaded_ring_events_per_sec`` — events per wall second for an 8-node
  Raincore ring circulating a token with 50 queued multicasts.
* ``token_hops_per_sec`` — token forwards per wall second in that ring.
* ``wall_clock_per_sim_second`` — wall seconds needed to simulate one
  virtual second of the loaded ring (lower is better).

Disabled probes and a detached profiler are one attribute load and a
``None`` test per hot-path site, so their cost is covered by the ring
rates.  What observability, the data service and tracing cost when they
*are* attached is priced per layer by the benchmark ledger
(``benchmarks/ledger``), not here.

``repro bench`` (see :mod:`repro.cli`) runs the suite, writes a JSON
report, appends a row to ``benchmarks/BENCH_history.json`` (``--record``)
and gates on the floor in ``benchmarks/BENCH_baseline.json`` (``--check``).
"""

from __future__ import annotations

import json
import time
from typing import Any

__all__ = [
    "QUICK",
    "FULL",
    "TOLERANCE",
    "bench_event_loop",
    "bench_loaded_ring",
    "run_suite",
    "write_report",
    "append_history",
    "compare",
]

#: Workload knobs: (bare-loop events, loaded-ring virtual seconds, repeats).
FULL = {"loop_events": 50_000, "ring_sim_seconds": 1.0, "repeats": 5}
#: Reduced workload for CI smoke runs; same *rate* metrics, smaller sample.
QUICK = {"loop_events": 10_000, "ring_sim_seconds": 0.5, "repeats": 3}

#: How much worse than the baseline a metric may read before
#: :func:`compare` calls it a regression (0.30 = 30%).
TOLERANCE = 0.30

#: Metrics where smaller values are improvements.
_LOWER_IS_BETTER = {"wall_clock_per_sim_second"}


def bench_event_loop(n_events: int) -> float:
    """Dispatch ``n_events`` no-op callbacks; return events per wall second."""
    from repro.net.eventloop import EventLoop

    loop = EventLoop(seed=1)
    callback = lambda: None  # noqa: E731 - cheapest possible event body
    for i in range(n_events):
        loop.call_later(i * 1e-6, callback)
    t0 = time.perf_counter()
    loop.run_until_idle()
    t1 = time.perf_counter()
    return n_events / (t1 - t0)


def bench_loaded_ring(sim_seconds: float) -> tuple[float, float, float]:
    """Run the reference loaded ring; return (events/s, hops/s, wall per sim s).

    The workload is fixed — 8 nodes, seed 2, a 5 ms hop interval, and 50
    multicasts of 200 bytes queued up front — so every row of
    ``benchmarks/BENCH_history.json`` stays comparable.
    """
    from repro.cluster.harness import RaincoreCluster
    from repro.core.config import RaincoreConfig

    cluster = RaincoreCluster(
        [f"n{i}" for i in range(8)],
        seed=2,
        config=RaincoreConfig.tuned(ring_size=8, hop_interval=0.005),
    )
    cluster.start_all()
    for i in range(50):
        cluster.node(f"n{i % 8}").multicast(f"m{i}", size=200)
    t0 = time.perf_counter()
    cluster.run(sim_seconds)
    t1 = time.perf_counter()
    wall = t1 - t0
    events = cluster.loop.events_processed
    hops = max(cluster.node(nid).local_copy_seq for nid in cluster.node_ids)
    return events / wall, hops / wall, wall / sim_seconds


def run_suite(quick: bool = False, repeats: int | None = None) -> dict[str, Any]:
    """Run all benchmarks and return a report dict (see ``write_report``).

    Each benchmark runs ``repeats`` times and reports its best run, the
    standard way to suppress scheduler noise when measuring a
    deterministic workload.
    """
    knobs = QUICK if quick else FULL
    if repeats is None:
        repeats = knobs["repeats"]
    best_loop = max(bench_event_loop(knobs["loop_events"]) for _ in range(repeats))
    best_ring = max(
        (bench_loaded_ring(knobs["ring_sim_seconds"]) for _ in range(repeats)),
        key=lambda r: r[0],
    )
    events_per_s, hops_per_s, wall_per_sim = best_ring
    return {
        "schema": 1,
        "quick": quick,
        "repeats": repeats,
        "workload": {
            "loop_events": knobs["loop_events"],
            "ring_sim_seconds": knobs["ring_sim_seconds"],
            "ring_nodes": 8,
            "ring_multicasts": 50,
        },
        "metrics": {
            "event_loop_events_per_sec": round(best_loop),
            "loaded_ring_events_per_sec": round(events_per_s),
            "token_hops_per_sec": round(hops_per_s),
            "wall_clock_per_sim_second": round(wall_per_sim, 6),
        },
    }


def write_report(path: str, report: dict[str, Any]) -> None:
    """Write a report (stable key order, trailing newline) to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def append_history(
    path: str,
    report: dict[str, Any],
    git_sha: str,
    date: str | None = None,
    label: str = "",
) -> dict[str, Any]:
    """Append one ``{git_sha, date, label, metrics}`` row to a history file.

    The file is a JSON object ``{"schema": 1, "rows": [...]}``; rows are
    kept in append order (oldest first).  Created if missing.  Returns the
    appended row.  ``date`` defaults to today — stamped here because
    perf.py is the one module allowed to read the wall clock (RC101).
    """
    if date is None:
        import datetime

        date = datetime.date.today().isoformat()
    try:
        with open(path, encoding="utf-8") as fh:
            history = json.load(fh)
    except FileNotFoundError:
        history = {"schema": 1, "rows": []}
    if "rows" not in history:
        raise ValueError(f"{path} is not a bench history file (no 'rows')")
    row = {
        "git_sha": git_sha,
        "date": date,
        "label": label,
        "quick": bool(report.get("quick", False)),
        "metrics": dict(report.get("metrics", {})),
    }
    history["rows"].append(row)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(history, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return row


def compare(current: dict[str, Any], baseline: dict[str, Any]) -> list[str]:
    """Check ``current`` metrics against the ``baseline`` floor.

    Both arguments are report dicts (only their ``"metrics"`` maps are
    consulted; a bare metrics map is also accepted).  Returns a list of
    human-readable problems — empty when every baseline metric is reported
    and at most :data:`TOLERANCE` worse than its floor.  A baseline metric
    the report lacks is a problem, so the floor of a renamed or retired
    metric cannot silently stop gating; a metric only the report has is
    ignored, so a new metric can land before its floor.
    """
    cur = current.get("metrics", current)
    base = baseline.get("metrics", baseline)
    problems: list[str] = []
    for name, base_value in base.items():
        value = cur.get(name)
        if value is None:
            problems.append(f"{name}: in baseline, not reported")
            continue
        if not isinstance(base_value, (int, float)) or base_value <= 0:
            continue
        ratio = value / base_value
        if name in _LOWER_IS_BETTER:
            slower = ratio
            regressed = ratio > 1.0 + TOLERANCE
        else:
            slower = 1 / ratio if ratio > 0 else float("inf")
            regressed = ratio < 1.0 - TOLERANCE
        if regressed:
            problems.append(
                f"{name}: {value} vs baseline {base_value} "
                f"({slower:.2f}x slower, tolerance {TOLERANCE:.0%})"
            )
    return problems
