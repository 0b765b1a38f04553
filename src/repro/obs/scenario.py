"""The shared observability quickstart scenario.

``repro quickstart`` / ``repro obs export`` and the determinism tests all
need the *same* short, fully seeded scenario so that their outputs are
comparable (and, for the tests, byte-identical across runs).  This module
is that scenario: form a group, multicast, crash the last member, recover
it — with the probe bus, a flight recorder and the stream rollup attached
from the first event.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.harness import RaincoreCluster
from repro.obs.agg import StreamAggregator
from repro.obs.probe import ProbeBus, ProbeEvent
from repro.obs.recorder import FlightRecorder

__all__ = ["ScenarioRun", "run_quickstart"]


@dataclass
class ScenarioRun:
    """Everything the quickstart scenario observed."""

    cluster: RaincoreCluster
    bus: ProbeBus
    #: complete probe stream in emission order (not ring-bounded)
    events: list[ProbeEvent]
    recorder: FlightRecorder
    agg: StreamAggregator


def run_quickstart(
    nodes: int = 4,
    seed: int = 2024,
    duration: float = 1.0,
    *,
    crash: bool = True,
) -> ScenarioRun:
    """Run the quickstart scenario with full observability attached.

    Deterministic in ``(nodes, seed, duration, crash)``: the returned
    event stream and rollup are byte-stable across runs with equal
    arguments (the determinism golden test pins this).
    """
    ids = [chr(ord("A") + i) for i in range(nodes)]
    cluster = RaincoreCluster(ids, seed=seed)
    bus = cluster.enable_probes()
    run = ScenarioRun(
        cluster=cluster,
        bus=bus,
        events=[],
        recorder=FlightRecorder(bus),
        agg=StreamAggregator().attach(bus),
    )
    bus.subscribe(run.events.extend)

    cluster.start_all()
    cluster.node(ids[0]).multicast(b"obs-quickstart")
    cluster.run(duration)
    if crash and nodes > 2:
        victim = ids[-1]
        cluster.faults.crash_node(victim)
        cluster.run_until_converged(5.0, expected=set(ids) - {victim})
        cluster.faults.recover_node(victim)
        cluster.run_until_converged(8.0, expected=set(ids))
    return run
