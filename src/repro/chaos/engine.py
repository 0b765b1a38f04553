"""The chaos campaign engine: run fault schedules against a loaded cluster.

One :class:`ChaosEngine` run is a complete experiment:

1. build a fresh :class:`~repro.cluster.harness.RaincoreCluster` from the
   schedule's parameters (the run RNG seed is part of the trace);
2. attach a :class:`~repro.data.shared_dict.SharedDict` replica per node and
   start a continuous :class:`~repro.cluster.invariants.InvariantMonitor`;
3. drive background multicast + replicated-write load while applying every
   scheduled fault op at its virtual time;
4. quiesce — force-heal all link faults and adversities, recover crashed
   nodes — and demand reconvergence;
5. check the global correctness properties: convergence, continuous
   invariants, bounded double-token time, zero duplicate deliveries,
   pairwise prefix-consistent delivery orders, and replica agreement.

A run is deterministic in its schedule: replaying a trace reproduces the
identical execution, which is what makes the shrinker's candidates
meaningful.  :func:`run_campaign` strings many runs together (seed, seed+1,
...), shrinks any failure, writes artifacts, and renders a summary table
through :mod:`repro.metrics`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

from repro.chaos.schedule import ChaosParams, FaultOp, Schedule, node_names
from repro.chaos.shrink import shrink_schedule
from repro.cluster.harness import RaincoreCluster
from repro.cluster.invariants import InvariantMonitor
from repro.core.config import RaincoreConfig
from repro.core.states import NodeState
from repro.data import SharedDict
from repro.metrics import Table
from repro.metrics.analysis import duplicate_deliveries, prefix_consistency_violations
from repro.obs import (
    ContractMonitor,
    FlightRecorder,
    StreamAggregator,
    build_bundle,
    bundle_to_json,
    paper_contract_rules,
)

__all__ = ["ChaosEngine", "RunResult", "CampaignResult", "run_campaign"]

#: Virtual seconds allowed for reconvergence after the fault window.
QUIESCE_BUDGET = 60.0
#: Extra virtual seconds after convergence for replicated state to finish
#: propagating before the final checks.
SETTLE = 3.0
#: Invariant sampling period, virtual seconds.
MONITOR_INTERVAL = 0.002
#: Period of the background load: one multicast per tick, one replicated
#: write every other tick.
BACKGROUND_TICK = 0.25


@dataclass
class RunResult:
    """Outcome of one chaos run."""

    schedule: Schedule
    ok: bool
    failure: str | None = None  #: failure kind, e.g. "invariant:seq-monotonicity"
    detail: str = ""
    stats: dict = field(default_factory=dict)
    #: Diagnostic bundle (repro.obs) built for failing runs; None when ok.
    bundle: dict | None = None
    #: Contract-monitor alerts fired during the run (Alert.record() dicts).
    #: Observational: alerts do not fail a run by themselves — the caller
    #: decides (e.g. ``repro chaos --fail-on-alerts``, the CI clean gate).
    alerts: list[dict] = field(default_factory=list)

    @property
    def seed(self) -> int:
        return self.schedule.params.seed


class ChaosEngine:
    """Executes one :class:`~repro.chaos.schedule.Schedule`.

    Parameters
    ----------
    schedule:
        The plan to run (generated or loaded from a trace).
    instrument:
        Optional callback ``instrument(cluster, bus)`` invoked once the
        cluster is built and its probe bus enabled, before formation.
        Any observational attachment (a streaming aggregator, a
        recorder, extra monitors) fits here.

    A non-strict run may spend ``max(1.0, 5% of the fault window)``
    cumulative seconds with two tokens: false alarms and ack blackouts
    legitimately create short duplicate windows that the seq guard heals;
    unbounded growth is the bug.
    """

    def __init__(
        self,
        schedule: Schedule,
        *,
        instrument: Callable | None = None,
    ) -> None:
        self.schedule = schedule
        self.instrument = instrument
        self.ids = node_names(schedule.params.nodes)
        self._sent = 0
        self._writes = 0
        self._ops_applied = 0

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        params = self.schedule.params
        cluster = RaincoreCluster(
            self.ids,
            seed=params.seed,
            segments=params.segments,
            config=RaincoreConfig.tuned(ring_size=params.nodes),
        )
        self.cluster = cluster
        bus = cluster.enable_probes()
        if self.instrument is not None:
            self.instrument(cluster, bus)
        recorder = FlightRecorder(bus)
        agg = StreamAggregator().attach(bus)
        dicts = {nid: SharedDict(cluster.node(nid)) for nid in self.ids}
        # Contract monitor: the paper's SLO bounds, derived from the same
        # config the cluster was provisioned with, watched live.  It must
        # subscribe *before* formation (its view/uptime tracking is fed by
        # node.state and view.change probes), but only starts ticking after,
        # so bootstrap is not judged against steady-state bounds.  Purely
        # observational: no probes, no RNG, no mutation.
        contract = ContractMonitor(
            bus,
            paper_contract_rules(
                cluster.config, params.nodes, segments=params.segments
            ),
        )
        cluster.start_all(form_time=30.0 + params.nodes)
        contract.start()
        monitor = InvariantMonitor(
            cluster, interval=MONITOR_INTERVAL, strict=params.strict
        )
        # Snapshot the rings the moment the *first* violation is flagged —
        # by the end of quiescence the interesting events would have been
        # evicted by healthy reconvergence traffic.
        first_violation: dict = {}

        def on_violation(violation) -> None:
            if not first_violation:
                first_violation["at"] = violation.at
                first_violation["events"] = recorder.snapshot()

        monitor.on_violation = on_violation
        monitor.start()

        t0 = cluster.loop.now
        self._t_end = t0 + params.seconds
        for op in self.schedule.ops:
            at = t0 + min(max(op.at, 0.0), params.seconds)
            cluster.loop.call_at(at, self._apply, op)
        self._background(dicts)
        cluster.run(params.seconds)

        converged = self._quiesce()
        monitor.stop()
        contract.evaluate()  # final sweep at quiesce end
        contract.stop()

        failure, detail = self._check(converged, monitor, dicts)
        stats = self._stats(monitor)
        alerts = contract.alert_records()
        bundle = None
        if failure is not None:
            bundle = build_bundle(
                failure,
                detail=detail,
                at=first_violation.get("at", cluster.loop.now),
                events=first_violation.get("events") or recorder.snapshot(),
                context={
                    "seed": params.seed,
                    "nodes": params.nodes,
                    "seconds": params.seconds,
                    "segments": params.segments,
                    "strict": params.strict,
                    "ops": len(self.schedule.ops),
                    "events_seen": recorder.events_seen,
                },
                metrics=agg.to_dict(),
                schedule=json.loads(self.schedule.to_json()),
                alerts=alerts,
            )
        recorder.close()
        return RunResult(
            schedule=self.schedule,
            ok=failure is None,
            failure=failure,
            detail=detail,
            stats=stats,
            bundle=bundle,
            alerts=alerts,
        )

    # ------------------------------------------------------------------
    # background load
    # ------------------------------------------------------------------
    def _background(self, dicts: dict[str, SharedDict]) -> None:
        cluster = self.cluster
        rng = cluster.loop.rng

        def tick() -> None:
            if cluster.loop.now >= self._t_end:
                return
            members = [
                n
                for n in cluster.live_nodes()
                if n.state in (NodeState.HUNGRY, NodeState.EATING)
            ]
            if members:
                origin = members[rng.randrange(len(members))]
                origin.multicast(f"bg-{self._sent}")
                self._sent += 1
                if self._sent % 2 == 0:
                    writer = members[rng.randrange(len(members))]
                    dicts[writer.node_id].set(
                        f"k{self._writes % 16}", self._writes
                    )
                    self._writes += 1
            cluster.loop.call_later(BACKGROUND_TICK, tick)

        cluster.loop.call_later(BACKGROUND_TICK, tick)

    # ------------------------------------------------------------------
    # fault op application
    # ------------------------------------------------------------------
    def _apply(self, op: FaultOp) -> None:
        """Apply one op, guarded so any op subset is a valid schedule.

        Guards (skip rather than raise) keep shrunk and hand-edited traces
        runnable: crashing a dead node, recovering a live one, or accusing
        a crashed peer are no-ops, deterministically.
        """
        cluster = self.cluster
        faults = cluster.faults
        k, a = op.kind, op.args
        live = {n.node_id for n in cluster.live_nodes()}
        self._ops_applied += 1
        if k == "crash":
            if a[0] in live and len(live) > 2:
                faults.crash_node(a[0])
        elif k == "recover":
            if a[0] not in live:
                faults.recover_node(a[0])
        elif k == "cut_link":
            faults.cut_link(a[0], a[1])
        elif k == "restore_link":
            faults.restore_link(a[0], a[1])
        elif k == "partition":
            faults.partition(*[list(group) for group in a])
        elif k == "heal_partition":
            faults.heal_partition()
        elif k == "long_partition":
            # The resync soak primitive: isolate the named nodes from the
            # rest for a *long* window (typically many times the resync
            # byte budget's worth of traffic), then heal.  The heal is
            # scheduled here rather than as a separate op so a shrunk
            # trace can never strand the cluster partitioned.
            isolated = [n for n in a[0] if n in self.ids]
            rest = [n for n in self.ids if n not in isolated]
            if isolated and rest:
                faults.partition(isolated, rest)
                heal_at = min(
                    cluster.loop.now + a[1], self._t_end
                )
                cluster.loop.call_at(heal_at, faults.heal_partition)
        elif k == "unplug":
            faults.unplug_cable(a[0], segment_index=a[1])
        elif k == "replug":
            faults.replug_cable(cluster.topology.addresses_of(a[0])[a[1]])
        elif k == "flap_nic":
            node, seg_idx, period, duration = a
            remaining = self._t_end - cluster.loop.now - 0.05
            if remaining > 0.1:
                faults.flap_nic(
                    node,
                    segment_index=seg_idx,
                    period=period,
                    duration=min(duration, remaining),
                )
        elif k == "lose_token":
            faults.lose_token()
        elif k == "lose_token_in_flight":
            faults.lose_token_in_flight(timeout=a[0])
        elif k == "false_alarm":
            if a[0] in live and a[1] in live:
                faults.false_alarm(a[0], a[1])
        elif k == "ack_blackout":
            faults.ack_blackout(a[0], a[1], a[2])
        elif k == "forge_duplicate_token":
            faults.forge_duplicate_token()
        elif k == "duplicate":
            faults.set_duplication(a[1], segment=a[0])
        elif k == "burst":
            faults.set_burst_loss(a[1], a[2], loss_bad=a[3], segment=a[0])
        elif k == "burst_off":
            faults.clear_burst_loss(segment=a[0])
        elif k == "spike":
            faults.set_delay_spikes(a[1], a[2], segment=a[0])
        elif k == "spike_off":
            faults.set_delay_spikes(0.0, 0.0, segment=a[0])
        else:  # pragma: no cover - from_obj validates kinds
            raise ValueError(f"unknown fault op {k!r}")

    # ------------------------------------------------------------------
    # quiescence and checks
    # ------------------------------------------------------------------
    def _quiesce(self) -> bool:
        """Heal everything, recover everyone, and wait for convergence."""
        cluster = self.cluster
        cluster.network.clear_filters()
        cluster.topology.clear_link_faults()
        for nid in self.ids:
            if cluster.node(nid).state is NodeState.DOWN:
                cluster.faults.recover_node(nid)
        converged = cluster.run_until_converged(
            QUIESCE_BUDGET, expected=set(self.ids)
        )
        cluster.run(SETTLE)
        return converged

    def _check(
        self,
        converged: bool,
        monitor: InvariantMonitor,
        dicts: dict[str, SharedDict],
    ) -> tuple[str | None, str]:
        cluster = self.cluster
        if not converged:
            return "no-convergence", f"views={cluster.membership_views()}"
        if monitor.violations:
            first = monitor.violations[0]
            return (
                f"invariant:{first.kind}",
                f"{len(monitor.violations)} violations; first at "
                f"t={first.at:.3f}: {first.detail}",
            )
        allowance = max(1.0, 0.05 * self.schedule.params.seconds)
        if monitor.double_token_time > allowance:
            return (
                "double-token-time",
                f"{monitor.double_token_time:.3f}s exceeds allowance "
                f"{allowance:.3f}s",
            )
        dupes = {n: d for n, d in duplicate_deliveries(cluster).items() if d}
        if dupes:
            return "duplicate-delivery", f"per-node duplicates: {dupes}"
        divergent = prefix_consistency_violations(cluster.all_delivery_orders())
        if divergent:
            return "order-divergence", f"disagreeing pairs: {divergent[:5]}"
        snaps = {nid: dicts[nid].snapshot() for nid in self.ids}
        reference = snaps[self.ids[0]]
        differing = [nid for nid in self.ids if snaps[nid] != reference]
        if differing:
            return "replica-divergence", f"nodes differing from {self.ids[0]}: {differing}"
        return None, ""

    def _stats(self, monitor: InvariantMonitor) -> dict:
        cluster = self.cluster
        return {
            "ops": len(self.schedule.ops),
            "ops_applied": self._ops_applied,
            "multicasts": self._sent,
            "writes": self._writes,
            "deliveries": cluster.total_deliveries(),
            "violations": len(monitor.violations),
            "double_token_time": monitor.double_token_time,
            "samples": monitor.samples,
            "packets_delivered": cluster.network.packets_delivered,
            "packets_dropped": cluster.network.packets_dropped,
            "packets_duplicated": cluster.network.packets_duplicated,
            "regenerations": sum(
                cluster.node(nid).recovery.regenerations for nid in self.ids
            ),
        }


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------
@dataclass
class CampaignResult:
    """All runs of one campaign plus any shrunk reproducers."""

    results: list[RunResult] = field(default_factory=list)
    #: run index -> (shrunk schedule, engine runs spent shrinking)
    shrunk: dict[int, tuple[Schedule, int]] = field(default_factory=dict)
    artifacts: list[str] = field(default_factory=list)

    @property
    def failures(self) -> list[RunResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary_table(self) -> Table:
        table = Table(
            "Chaos campaign summary",
            [
                "seed",
                "ops",
                "result",
                "deliveries",
                "dup 2x-time (s)",
                "pkts dropped",
                "pkts duped",
                "911 regens",
                "shrunk ops",
            ],
        )
        for idx, r in enumerate(self.results):
            shrunk = self.shrunk.get(idx)
            table.add_row(
                r.seed,
                r.stats.get("ops", 0),
                "ok" if r.ok else r.failure,
                r.stats.get("deliveries", 0),
                r.stats.get("double_token_time", 0.0),
                r.stats.get("packets_dropped", 0),
                r.stats.get("packets_duplicated", 0),
                r.stats.get("regenerations", 0),
                len(shrunk[0].ops) if shrunk else None,
            )
        for r in self.failures:
            table.add_note(f"seed {r.seed} failed [{r.failure}]: {r.detail}")
        return table


def run_campaign(
    nodes: int,
    seconds: float,
    seed: int,
    *,
    campaign: int = 1,
    segments: int = 2,
    intensity: float = 1.0,
    strict: bool = False,
    artifacts_dir: str | None = None,
    shrink: bool = True,
    log: Callable[[str], None] | None = None,
) -> CampaignResult:
    """Run ``campaign`` schedules with seeds ``seed, seed+1, ...``.

    Every failing schedule's trace is written to ``artifacts_dir`` (when
    given), then shrunk to a minimal reproducer which is written alongside
    it as ``*.min.json``.
    """
    say = log if log is not None else (lambda _msg: None)
    out = CampaignResult()
    for k in range(campaign):
        params = ChaosParams(
            nodes=nodes,
            seconds=seconds,
            seed=seed + k,
            segments=segments,
            intensity=intensity,
            strict=strict,
        )
        schedule = Schedule.generate(params)
        say(
            f"run {k + 1}/{campaign}: seed={params.seed} "
            f"ops={len(schedule.ops)} window={seconds:g}s"
        )
        result = ChaosEngine(schedule).run()
        out.results.append(result)
        if result.alerts:
            say(f"  {len(result.alerts)} contract alert(s) fired")
        if result.ok:
            say(f"  clean ({result.stats['deliveries']} deliveries)")
            continue
        say(f"  FAILED [{result.failure}] {result.detail}")
        if artifacts_dir is not None:
            path = _write_artifact(
                artifacts_dir, f"trace-seed{params.seed}.json", schedule.to_json()
            )
            out.artifacts.append(path)
            say(f"  trace written to {path}")
            if result.bundle is not None:
                path = _write_artifact(
                    artifacts_dir,
                    f"trace-seed{params.seed}.bundle.json",
                    bundle_to_json(result.bundle),
                )
                out.artifacts.append(path)
                say(f"  diagnostic bundle written to {path}")
        if shrink:
            say("  shrinking ...")
            minimal, tests = shrink_schedule(
                schedule,
                lambda s: not ChaosEngine(s).run().ok,
                max_tests=48,
            )
            out.shrunk[k] = (minimal, tests)
            say(
                f"  shrunk {len(schedule.ops)} -> {len(minimal.ops)} ops "
                f"in {tests} runs"
            )
            if artifacts_dir is not None:
                path = _write_artifact(
                    artifacts_dir,
                    f"trace-seed{params.seed}.min.json",
                    minimal.to_json(),
                )
                out.artifacts.append(path)
                say(f"  minimal trace written to {path}")
                # Re-run the minimal schedule once more for its own bundle:
                # the shrinker's predicate runs discard results, and the
                # minimized failure is the one worth reading.
                min_result = ChaosEngine(minimal).run()
                if min_result.bundle is not None:
                    path = _write_artifact(
                        artifacts_dir,
                        f"trace-seed{params.seed}.min.bundle.json",
                        bundle_to_json(min_result.bundle),
                    )
                    out.artifacts.append(path)
                    say(f"  minimal diagnostic bundle written to {path}")
    return out


def _write_artifact(directory: str, name: str, text: str) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path
