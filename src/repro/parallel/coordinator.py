"""Lockstep-epoch coordinator: the sharded engine's determinism harness.

:class:`ParallelSimulator` partitions a registered workload's topology
into natural shard groups and runs every group on one in-process event
loop in lockstep epochs of the plan's lookahead, with a
:class:`~repro.parallel.exchange.SerialExchange` batching trunk packets
per epoch and re-injecting them in canonical order at each boundary.

Epoch boundaries are computed as ``(k + 1) * lookahead`` from epoch
*indices* — never by accumulating floats — and the recorded probe stream
is canonicalized (stable sort by ``(at, node)``, then renumbered), so for
a fixed seed the trace bytes are a function of the workload and horizon
alone (docs/PARALLEL.md).
"""

from __future__ import annotations

from typing import Any

from repro.obs.probe import ProbeEvent, events_to_jsonl, renumber_events
from repro.parallel.exchange import SerialExchange
from repro.parallel.partition import ShardPlan, partition_topology
from repro.parallel.workloads import build_workload

__all__ = ["ParallelRunResult", "ParallelSimulator", "epoch_boundaries"]


def epoch_boundaries(horizon: float, epoch: float) -> list[float]:
    """Exclusive epoch end times covering ``[0, horizon]``.

    Boundaries are ``epoch, 2*epoch, ...`` computed by multiplication (one
    rounding each), with the final boundary clamped to ``horizon``.
    """
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if epoch <= 0.0:
        raise ValueError(f"epoch length must be positive, got {epoch}")
    ends: list[float] = []
    k = 1
    while True:
        end = k * epoch
        if end >= horizon:
            ends.append(horizon)
            return ends
        ends.append(end)
        k += 1


class ParallelRunResult:
    """Outcome of one lockstep-epoch run."""

    __slots__ = ("events", "epochs", "facts", "_recorded")

    def __init__(
        self,
        events: int,
        epochs: int,
        facts: dict[str, Any],
        recorded: list[ProbeEvent],
    ) -> None:
        #: Total events executed by the loop.
        self.events = events
        self.epochs = epochs
        #: Deterministic end-of-run facts (``WorkloadInstance.collect``).
        self.facts = facts
        self._recorded = recorded

    def probe_events(self) -> list[ProbeEvent]:
        """The canonical probe stream: stably sorted by ``(at, node)``,
        then renumbered ``n = 1..N`` in that order."""
        events = sorted(self._recorded, key=lambda e: (e.at, e.node))
        return renumber_events(events)

    def stream_jsonl(self) -> str:
        """Canonical probe stream as JSONL (golden-trace format)."""
        return events_to_jsonl(self.probe_events())


class ParallelSimulator:
    """Plan and run a registered workload in lockstep epochs."""

    def __init__(
        self, workload: str, seed: int, params: dict | None = None
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.params = dict(params or {})
        self._plan: ShardPlan | None = None

    def plan(self) -> ShardPlan:
        """The natural shard plan (computed once, from topology alone)."""
        if self._plan is None:
            skeleton = build_workload(self.workload, self.seed, self.params)
            self._plan = partition_topology(
                skeleton.topology,
                trunk_segments=skeleton.trunk_segments or None,
            )
        return self._plan

    def run(
        self,
        horizon: float,
        probes: bool = False,
        prepare: Any = None,
    ) -> ParallelRunResult:
        """Run to ``horizon``.

        ``probes=True`` records the probe stream (see
        :meth:`ParallelRunResult.stream_jsonl`).  ``prepare`` is an
        optional callable receiving the built
        :class:`~repro.parallel.workloads.WorkloadInstance` before it
        starts — the chaos campaign uses it to arm fault timers.
        """
        plan = self.plan()
        instance = build_workload(self.workload, self.seed, self.params)

        recorded: list[ProbeEvent] = []
        if probes:
            instance.enable_probes().subscribe(recorded.extend)
        if prepare is not None:
            prepare(instance)
        instance.start()
        events = 0
        epochs = 0
        if not plan.cut:
            # No trunk segments: nothing to exchange, classic single loop.
            events = instance.loop.run_until(horizon)
        else:
            exchange = SerialExchange(instance.network)
            instance.network.set_exchange(exchange, frozenset(plan.trunks))
            for end in epoch_boundaries(horizon, plan.lookahead):
                events += instance.loop.run_epoch(end)
                exchange.flush_epoch()
                epochs += 1
        return ParallelRunResult(events, epochs, instance.collect(), recorded)
