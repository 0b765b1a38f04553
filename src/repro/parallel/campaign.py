"""Sharded chaos campaign: seeded faults against the multi-ring workload.

``repro chaos --shards K`` runs this campaign: the lockstep-epoch
harness drives a multi-ring workload (``max(4, K)`` rings) while a
seeded fault schedule crashes and recovers ring members and flips
adversity knobs on ring segments.  Faults never touch gateways or the
trunk, so the shard cut stays deterministic throughout.

End-of-run checks are phrased as **alerts** (strings), mirroring the
contract-monitor style:

* every ring re-converges — each live member sees the full ring;
* multicast sequence numbers advance after the last fault heals;
* cross-ring pings stay live — every gateway keeps receiving.

All randomness comes from ``derive_rng_seed(seed, "chaos")`` and all
faults are armed as virtual-time timers before the run starts, so a
campaign is exactly replayable from its seed.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.net.topology import derive_rng_seed
from repro.parallel.coordinator import ParallelRunResult, ParallelSimulator
from repro.parallel.workloads import WorkloadInstance, multi_ring_node_ids

__all__ = ["ShardedChaosResult", "run_sharded_campaign"]

#: Ring-segment adversity applied during a fault window.
_FLIP_LOSS = 0.05
_FLIP_JITTER = 300e-6


class ShardedChaosResult:
    """One campaign run: alerts (empty = clean) plus run facts."""

    __slots__ = ("seed", "shards", "alerts", "faults", "result")

    def __init__(
        self,
        seed: int,
        shards: int,
        alerts: list[str],
        faults: list[str],
        result: ParallelRunResult,
    ) -> None:
        self.seed = seed
        self.shards = shards
        self.alerts = alerts
        #: Human-readable fault schedule, in injection order.
        self.faults = faults
        self.result = result

    @property
    def ok(self) -> bool:
        return not self.alerts


def _schedule_faults(
    rng: random.Random,
    rings: int,
    ring_size: int,
    seconds: float,
    faults: list[str],
) -> Callable[[WorkloadInstance], None]:
    """Draw the fault schedule now; return the hook that arms it later.

    Drawing before the build keeps the schedule a pure function of the
    seed.  Every fault is shard-local: victims are non-gateway ring
    members and adversity flips hit ring segments only.
    """
    ring_ids = multi_ring_node_ids(rings, ring_size)
    heal_by = seconds - 4.0
    plans: list[tuple[str, float, float, int, Any]] = []
    for i in range(rings):
        if ring_size >= 3 and rng.random() < 0.75:
            victim = rng.choice(ring_ids[i][1:])
            crash_at = rng.uniform(1.0, max(1.0, heal_by - 3.0))
            recover_at = crash_at + rng.uniform(1.5, 2.5)
            plans.append(("crash", crash_at, recover_at, i, victim))
            faults.append(
                f"t={crash_at:.3f} crash {victim} (recover t={recover_at:.3f})"
            )
        if rng.random() < 0.5:
            flip_at = rng.uniform(1.0, max(1.0, heal_by - 2.0))
            clear_at = flip_at + rng.uniform(1.0, 2.0)
            plans.append(("flip", flip_at, clear_at, i, None))
            faults.append(
                f"t={flip_at:.3f} adversity ring{i:02d} "
                f"loss={_FLIP_LOSS:g} (clear t={clear_at:.3f})"
            )

    def prepare(instance: WorkloadInstance) -> None:
        loop = instance.loop
        topology = instance.topology
        for kind, at, until, ring, victim in plans:
            if kind == "crash":
                members = ring_ids[ring]
                contacts = [n for n in members if n != victim]

                def crash(victim: str = victim) -> None:
                    instance.nodes[victim].crash()
                    topology.set_node_up(victim, False)

                def recover(
                    victim: str = victim, contacts: list[str] = contacts
                ) -> None:
                    topology.set_node_up(victim, True)
                    instance.nodes[victim].start_joining(contacts)

                loop.call_at(at, crash)
                loop.call_at(until, recover)
            else:
                seg = topology.segment(f"ring{ring:02d}")

                def flip(seg: Any = seg) -> None:
                    seg.loss = _FLIP_LOSS
                    seg.jitter = seg.jitter + _FLIP_JITTER

                def clear(seg: Any = seg) -> None:
                    seg.loss = 0.0
                    seg.jitter = seg.jitter - _FLIP_JITTER

                loop.call_at(at, flip)
                loop.call_at(until, clear)

    return prepare


def run_sharded_campaign(
    seed: int,
    shards: int,
    seconds: float = 12.0,
    rings: int | None = None,
    ring_size: int = 3,
    log: Callable[[str], None] | None = None,
) -> ShardedChaosResult:
    """Run one seeded sharded chaos campaign; returns alerts and facts."""
    if seconds < 8.0:
        raise ValueError(
            f"campaign needs >= 8 virtual seconds (faults heal by "
            f"seconds-4), got {seconds:g}"
        )
    if rings is None:
        rings = max(4, shards)
    params = {"rings": rings, "ring_size": ring_size}
    rng = random.Random(derive_rng_seed(seed, "chaos"))
    faults: list[str] = []
    prepare = _schedule_faults(rng, rings, ring_size, seconds, faults)

    # Sequence snapshot 2s before the end: progress after this instant
    # proves the rings kept multicasting after every fault healed.
    snapshot: dict[str, int] = {}

    def prepare_with_snapshot(instance: WorkloadInstance) -> None:
        prepare(instance)

        def snap() -> None:
            for node_id in sorted(instance.nodes):
                snapshot[node_id] = instance.nodes[node_id].local_copy_seq

        instance.loop.call_at(seconds - 2.0, snap)

    sim = ParallelSimulator("multi_ring", seed, params)
    if log is not None:
        log(sim.plan().render_report())
        for line in faults:
            log(f"fault: {line}")
    result = sim.run(seconds, prepare=prepare_with_snapshot)

    ring_ids = multi_ring_node_ids(rings, ring_size)
    alerts: list[str] = []
    for i, members in enumerate(ring_ids):
        expected = set(members)
        for node_id in members:
            got = set(result.facts[f"{node_id}.members"])
            if got != expected:
                alerts.append(
                    f"ring{i:02d}: {node_id} sees {sorted(got)} instead of "
                    f"the full ring after heal"
                )
        for node_id in members:
            end_seq = result.facts[f"{node_id}.seq"]
            if end_seq <= snapshot.get(node_id, 0):
                alerts.append(
                    f"ring{i:02d}: {node_id} multicast seq stalled at "
                    f"{end_seq} after faults healed"
                )
    if rings > 1:
        for i in range(rings):
            rx = result.facts[f"ping_rx.ring{i:02d}"]
            tx_prev = result.facts[f"ping_tx.ring{(i - 1) % rings:02d}"]
            if rx < tx_prev - 1:
                alerts.append(
                    f"trunk: ring{i:02d} received {rx} pings of {tx_prev} "
                    f"sent by its predecessor (one may be in flight)"
                )
    return ShardedChaosResult(seed, shards, alerts, faults, result)
