"""Performance-regression harness for the simulation substrate.

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
* ``probe_overhead_ratio`` — wall-clock cost of running the same ring with
  the probe bus and flight recorder attached, relative to running it with
  probes disabled (lower is better; 1.0 means observability is free).  The
  probes-disabled cost itself is covered by ``loaded_ring_events_per_sec``:
  a disabled probe is one attribute load and a None test, so any
  measurable regression there would trip the existing rate gate.
* ``monitor_overhead_ratio`` — wall-clock cost of the same probed ring
  with the contract monitor evaluating the full paper rule set on top,
  relative to probes + recorder alone (lower is better; isolates what the
  *rules engine* adds over the instrumentation it rides on).
* ``resync_overhead_ratio`` — wall-clock cost of driving the reference
  ring through replicated SharedDict writes (segmented op log, hash
  chaining, acks and pruning — the whole docs/RESYNC.md bookkeeping)
  relative to plain multicasts of the same count (lower is better).
* ``prof_overhead_ratio`` — wall-clock cost of the reference ring with the
  hot-path profiler (:mod:`repro.obs.prof`) attached to the event loop,
  relative to running unprofiled (lower is better).  The profiler reads
  the wall clock twice per dispatched event, so this prices the whole
  ``repro prof`` attribution channel (docs/PROFILING.md).
* ``agg_overhead_ratio`` — wall-clock cost of the probed reference ring
  with a :class:`~repro.obs.agg.StreamAggregator` folding every probe
  into bounded per-node state, relative to probes + recorder alone
  (lower is better; isolates what *streaming aggregation* adds on top of
  the instrumentation it rides on).
* ``telemetry_overhead_ratio`` — wall-clock cost of the probed reference
  ring with a :class:`~repro.runtime.telemetry.TelemetryShipper`
  subscribed (take every probe event, restamp + JSON-frame them a batch
  at a time, sink discarded), relative to probes + recorder alone (lower
  is better; prices what the raintap shipping plane adds per event
  before the socket, docs/TELEMETRY.md).

``repro bench`` (see :mod:`repro.cli`) runs the suite, writes a JSON
report, and can gate on a committed baseline with a relative tolerance.
"""

from __future__ import annotations

import json
import time
from typing import Any

__all__ = [
    "QUICK",
    "FULL",
    "SCALING_WORKLOAD",
    "bench_event_loop",
    "bench_loaded_ring",
    "bench_probe_overhead",
    "bench_monitor_overhead",
    "bench_resync_overhead",
    "bench_prof_overhead",
    "bench_agg_overhead",
    "bench_telemetry_overhead",
    "bench_shard_scaling",
    "run_suite",
    "write_report",
    "append_history",
    "compare",
]

#: Workload knobs: (bare-loop events, loaded-ring virtual seconds, repeats).
FULL = {"loop_events": 50_000, "ring_sim_seconds": 1.0, "repeats": 5, "scaling_sim_seconds": 4.0}
#: Reduced workload for CI smoke runs; same *rate* metrics, smaller sample.
QUICK = {"loop_events": 10_000, "ring_sim_seconds": 0.5, "repeats": 3, "scaling_sim_seconds": 1.5}

#: Multi-ring workload for the shard-scaling curve: 8 natural groups so
#: every shard count up to 8 has work.  The 20 ms trunk latency (= epoch
#: length) and the dense per-ring load keep per-epoch compute well above
#: the barrier cost — the regime the sharded engine is built for; shorter
#: lookaheads shift the bill toward synchronization on any machine.
SCALING_WORKLOAD = {
    "rings": 8,
    "ring_size": 6,
    "hop_interval": 0.001,
    "mcast_interval": 0.004,
    "trunk_latency": 0.02,
}

#: Metrics where smaller values are improvements.
_LOWER_IS_BETTER = {
    "wall_clock_per_sim_second",
    "probe_overhead_ratio",
    "monitor_overhead_ratio",
    "resync_overhead_ratio",
    "prof_overhead_ratio",
    "agg_overhead_ratio",
    "telemetry_overhead_ratio",
}


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

    The workload mirrors ``benchmarks/bench_simulator.py``: 8 nodes, seed 2,
    a 5 ms hop interval, and 50 multicasts of 200 bytes queued up front, so
    numbers stay comparable across harnesses.
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


def bench_probe_overhead(sim_seconds: float) -> float:
    """Instrumentation-overhead ratio of the loaded reference ring.

    Runs the :func:`bench_loaded_ring` workload twice — once as shipped
    (every probe point is a disabled ``if probe is not None`` check) and
    once with the probe bus enabled and a flight recorder subscribed —
    and returns ``enabled_wall / disabled_wall``.
    """
    from repro.cluster.harness import RaincoreCluster
    from repro.core.config import RaincoreConfig

    def one_run(probed: bool) -> float:
        cluster = RaincoreCluster(
            [f"n{i}" for i in range(8)],
            seed=2,
            config=RaincoreConfig.tuned(ring_size=8, hop_interval=0.005),
        )
        if probed:
            from repro.obs import FlightRecorder

            FlightRecorder(cluster.enable_probes())
        cluster.start_all()
        for i in range(50):
            cluster.node(f"n{i % 8}").multicast(f"m{i}", size=200)
        t0 = time.perf_counter()
        cluster.run(sim_seconds)
        t1 = time.perf_counter()
        return t1 - t0

    disabled = one_run(False)
    enabled = one_run(True)
    return enabled / disabled


def bench_monitor_overhead(sim_seconds: float) -> float:
    """Contract-monitor overhead ratio over the probed reference ring.

    Runs the probed :func:`bench_loaded_ring` workload (bus + flight
    recorder, the ``probe_overhead_ratio`` numerator) twice — with and
    without a :class:`~repro.obs.monitor.ContractMonitor` evaluating the
    full paper rule set — and returns ``monitored_wall / probed_wall``:
    what *watching* the contracts costs on top of emitting the probes.
    """
    from repro.cluster.harness import RaincoreCluster
    from repro.core.config import RaincoreConfig

    def one_run(monitored: bool) -> float:
        config = RaincoreConfig.tuned(ring_size=8, hop_interval=0.005)
        cluster = RaincoreCluster(
            [f"n{i}" for i in range(8)], seed=2, config=config
        )
        from repro.obs import ContractMonitor, FlightRecorder, paper_contract_rules

        bus = cluster.enable_probes()
        FlightRecorder(bus)
        monitor = None
        if monitored:
            monitor = ContractMonitor(bus, paper_contract_rules(config, 8))
        cluster.start_all()
        if monitor is not None:
            monitor.start()
        for i in range(50):
            cluster.node(f"n{i % 8}").multicast(f"m{i}", size=200)
        t0 = time.perf_counter()
        cluster.run(sim_seconds)
        t1 = time.perf_counter()
        return t1 - t0

    probed = one_run(False)
    monitored = one_run(True)
    return monitored / probed


def bench_resync_overhead(sim_seconds: float) -> float:
    """Bounded-resync bookkeeping overhead on the reference ring.

    Runs the :func:`bench_loaded_ring` workload twice — once with the 50
    messages as plain multicasts, once as replicated SharedDict writes
    (which ride the identical agreed-order path but additionally append
    to the hash-chained segmented log, multicast seal acks and prune on
    full acknowledgement) — and returns ``replicated_wall / plain_wall``.
    This prices the *entire* Data Service write path, so it is a coarse
    upper bound on what the resync layer alone costs.
    """
    from repro.cluster.harness import RaincoreCluster
    from repro.core.config import RaincoreConfig
    from repro.data import SharedDict

    def one_run(replicated: bool) -> float:
        cluster = RaincoreCluster(
            [f"n{i}" for i in range(8)],
            seed=2,
            config=RaincoreConfig.tuned(ring_size=8, hop_interval=0.005),
        )
        dicts = (
            {nid: SharedDict(cluster.node(nid)) for nid in cluster.node_ids}
            if replicated
            else None
        )
        cluster.start_all()
        for i in range(50):
            if dicts is not None:
                dicts[f"n{i % 8}"].set(f"k{i % 16}", i)
            else:
                cluster.node(f"n{i % 8}").multicast(f"m{i}", size=200)
        t0 = time.perf_counter()
        cluster.run(sim_seconds)
        t1 = time.perf_counter()
        return t1 - t0

    plain = one_run(False)
    replicated = one_run(True)
    return replicated / plain


def bench_prof_overhead(sim_seconds: float) -> float:
    """Profiler-overhead ratio of the loaded reference ring.

    Runs the :func:`bench_loaded_ring` workload twice — once as shipped
    (``loop.profile is None``, one attribute load per dispatch) and once
    with a :class:`~repro.obs.prof.Profiler` attached to the event loop —
    and returns ``profiled_wall / plain_wall``.
    """
    from repro.cluster.harness import RaincoreCluster
    from repro.core.config import RaincoreConfig

    def one_run(profiled: bool) -> float:
        cluster = RaincoreCluster(
            [f"n{i}" for i in range(8)],
            seed=2,
            config=RaincoreConfig.tuned(ring_size=8, hop_interval=0.005),
        )
        if profiled:
            from repro.obs.prof import Profiler

            Profiler().attach(cluster.loop)
        cluster.start_all()
        for i in range(50):
            cluster.node(f"n{i % 8}").multicast(f"m{i}", size=200)
        t0 = time.perf_counter()
        cluster.run(sim_seconds)
        t1 = time.perf_counter()
        return t1 - t0

    plain = one_run(False)
    profiled = one_run(True)
    return profiled / plain


def bench_agg_overhead(sim_seconds: float) -> float:
    """Streaming-aggregation overhead ratio over the probed reference ring.

    Runs the probed :func:`bench_loaded_ring` workload (bus + flight
    recorder, the ``probe_overhead_ratio`` numerator) twice — with and
    without a :class:`~repro.obs.agg.StreamAggregator` subscribed — and
    returns ``aggregated_wall / probed_wall``: what folding every probe
    into bounded per-node reducers costs on top of emitting the probes.
    """
    from repro.cluster.harness import RaincoreCluster
    from repro.core.config import RaincoreConfig

    def one_run(aggregated: bool) -> float:
        cluster = RaincoreCluster(
            [f"n{i}" for i in range(8)],
            seed=2,
            config=RaincoreConfig.tuned(ring_size=8, hop_interval=0.005),
        )
        from repro.obs import FlightRecorder

        bus = cluster.enable_probes()
        FlightRecorder(bus)
        if aggregated:
            from repro.obs.agg import StreamAggregator

            StreamAggregator().attach(bus)
        cluster.start_all()
        for i in range(50):
            cluster.node(f"n{i % 8}").multicast(f"m{i}", size=200)
        t0 = time.perf_counter()
        cluster.run(sim_seconds)
        t1 = time.perf_counter()
        return t1 - t0

    probed = one_run(False)
    aggregated = one_run(True)
    return aggregated / probed


def bench_telemetry_overhead(sim_seconds: float) -> float:
    """Probe-shipping overhead ratio over the probed reference ring.

    Runs the probed :func:`bench_loaded_ring` workload (bus + flight
    recorder, the ``probe_overhead_ratio`` numerator) twice — with and
    without a :class:`~repro.runtime.telemetry.TelemetryShipper`
    subscribed, its sink a no-op — and returns ``shipped_wall /
    probed_wall``: the intake plus batched restamp + JSON framing cost
    of the raintap plane, measured without socket noise.
    """
    from repro.cluster.harness import RaincoreCluster
    from repro.core.config import RaincoreConfig

    def one_run(shipped: bool) -> float:
        cluster = RaincoreCluster(
            [f"n{i}" for i in range(8)],
            seed=2,
            config=RaincoreConfig.tuned(ring_size=8, hop_interval=0.005),
        )
        from repro.obs import FlightRecorder

        bus = cluster.enable_probes()
        recorder = FlightRecorder(bus)
        if shipped:
            from repro.runtime.telemetry import TelemetryShipper

            shipper = TelemetryShipper(
                "bench", lambda data: None, recorder=recorder
            )
            bus.subscribe(shipper.on_probe)
        cluster.start_all()
        for i in range(50):
            cluster.node(f"n{i % 8}").multicast(f"m{i}", size=200)
        t0 = time.perf_counter()
        cluster.run(sim_seconds)
        t1 = time.perf_counter()
        return t1 - t0

    probed = one_run(False)
    shipped = one_run(True)
    return shipped / probed


def bench_shard_scaling(
    sim_seconds: float,
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    repeats: int = 3,
) -> dict[str, Any]:
    """Measure the sharded engine's scaling curve on the multi-ring workload.

    Runs :data:`SCALING_WORKLOAD` once per shard count — ``shards=1``
    through the serial engine (the reference), higher counts through the
    process engine — and reports wall seconds, raw speedup vs serial, and
    **core-normalized efficiency**: ``speedup / min(shards, cpu_count)``.

    Raw speedup is an honest machine-dependent number: on a single-core
    container 4 workers timeslice one CPU and raw speedup *cannot* exceed
    1.0, while the identical run on a 4-core machine approaches the
    efficiency bound × 4.  Efficiency is the machine-portable figure the
    baseline floors (see benchmarks/BENCH_baseline.json): on a >=4-core
    machine an efficiency of 0.5 *is* a 2x raw speedup at 4 shards.
    """
    from repro.parallel import ParallelSimulator, available_cpus

    walls: dict[int, float] = {}
    events: dict[int, int] = {}
    for shards in shard_counts:
        mode = "serial" if shards == 1 else "process"
        best = float("inf")
        for _ in range(repeats):
            sim = ParallelSimulator(
                "multi_ring", seed=11, params=SCALING_WORKLOAD
            )
            t0 = time.perf_counter()
            result = sim.run(sim_seconds, shards=shards, mode=mode)
            best = min(best, time.perf_counter() - t0)
            events[shards] = result.events
        walls[shards] = best
    cpus = available_cpus()
    curve = {
        str(shards): {
            "wall_seconds": round(walls[shards], 6),
            "speedup": round(walls[shard_counts[0]] / walls[shards], 4),
        }
        for shards in shard_counts
    }
    efficiency_4x = None
    if 4 in walls:
        efficiency_4x = round((walls[shard_counts[0]] / walls[4]) / min(4, cpus), 4)
    return {
        "workload": dict(SCALING_WORKLOAD, sim_seconds=sim_seconds),
        "cpu_count": cpus,
        "events": events[shard_counts[0]],
        "curve": curve,
        "shard_scaling_efficiency_4x": efficiency_4x,
    }


def run_suite(quick: bool = False, repeats: int | None = None) -> dict[str, Any]:
    """Run all benchmarks and return a report dict (see ``write_report``).

    Each benchmark runs ``repeats`` times; the best run is reported, which
    is the standard way to suppress scheduler noise when measuring a
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
    best_overhead = min(
        bench_probe_overhead(knobs["ring_sim_seconds"]) for _ in range(repeats)
    )
    best_monitor = min(
        bench_monitor_overhead(knobs["ring_sim_seconds"]) for _ in range(repeats)
    )
    best_resync = min(
        bench_resync_overhead(knobs["ring_sim_seconds"]) for _ in range(repeats)
    )
    best_prof = min(
        bench_prof_overhead(knobs["ring_sim_seconds"]) for _ in range(repeats)
    )
    best_agg = min(
        bench_agg_overhead(knobs["ring_sim_seconds"]) for _ in range(repeats)
    )
    best_telemetry = min(
        bench_telemetry_overhead(knobs["ring_sim_seconds"]) for _ in range(repeats)
    )
    # The scaling curve spawns process fleets; cap its repeats at 2 to
    # keep suite time sane (the floor on its metric is a coarse guard, not
    # a tight gate — see benchmarks/BENCH_baseline.json).
    scaling = bench_shard_scaling(
        knobs["scaling_sim_seconds"], repeats=min(repeats, 2)
    )
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
            "probe_overhead_ratio": round(best_overhead, 4),
            "monitor_overhead_ratio": round(best_monitor, 4),
            "resync_overhead_ratio": round(best_resync, 4),
            "prof_overhead_ratio": round(best_prof, 4),
            "agg_overhead_ratio": round(best_agg, 4),
            "telemetry_overhead_ratio": round(best_telemetry, 4),
            "shard_scaling_efficiency_4x": scaling["shard_scaling_efficiency_4x"],
        },
        "shard_scaling": scaling,
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


def compare(
    current: dict[str, Any], baseline: dict[str, Any], tolerance: float
) -> list[str]:
    """Check ``current`` metrics against ``baseline`` metrics.

    Both arguments are report dicts (only their ``"metrics"`` maps are
    consulted; a bare metrics map is also accepted).  Returns a list of
    human-readable regression descriptions — empty when every shared metric
    is within ``tolerance`` (e.g. ``0.30`` = may be up to 30% worse).
    Metrics present on only one side are ignored, so the baseline file can
    gain metrics without breaking old checkouts.
    """
    cur = current.get("metrics", current)
    base = baseline.get("metrics", baseline)
    problems: list[str] = []
    for name, base_value in base.items():
        if name not in cur or not isinstance(base_value, (int, float)):
            continue
        if base_value <= 0:
            continue
        value = cur[name]
        if name in _LOWER_IS_BETTER:
            ratio = value / base_value  # >1 means slower
            if ratio > 1.0 + tolerance:
                problems.append(
                    f"{name}: {value} vs baseline {base_value} "
                    f"({ratio:.2f}x slower, tolerance {tolerance:.0%})"
                )
        else:
            ratio = value / base_value  # <1 means slower
            if ratio < 1.0 - tolerance:
                problems.append(
                    f"{name}: {value} vs baseline {base_value} "
                    f"({1 / ratio:.2f}x slower, tolerance {tolerance:.0%})"
                )
    return problems
