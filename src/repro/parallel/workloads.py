"""Registered workloads for the lockstep-epoch harness.

A workload is a registered builder that constructs a whole topology —
every node, NIC and segment — with its protocol nodes and load timers,
and returns a :class:`WorkloadInstance` that
:class:`~repro.parallel.coordinator.ParallelSimulator` partitions and
runs.

Determinism contract for builders (docs/PARALLEL.md):

* no draw from ``loop.rng`` — every random source must be keyed to an
  entity that lives entirely inside one shard group (the builder calls
  ``topology.seed_segment_rngs``, which covers the datagram layer);
* all load is scheduled as virtual-time timers before the run starts —
  no imperative mid-run driving;
* cross-group traffic only on deterministic trunk segments.

The reference workload is ``multi_ring``: R independent Raincore token
rings (one LAN segment each, eligibility confined to the ring) joined by
one deterministic trunk segment carrying gateway-to-gateway pings — the
shape of the ROADMAP's multi-ring hierarchy experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.probe import ProbeBus

from repro.core.config import RaincoreConfig
from repro.core.events import RecordingListener
from repro.core.session import RaincoreNode
from repro.net.datagram import Datagram, DatagramNetwork
from repro.net.eventloop import EventLoop
from repro.net.topology import Segment, Topology, derive_rng_seed

__all__ = [
    "TrunkPing",
    "WorkloadInstance",
    "build_workload",
    "multi_ring_node_ids",
    "WORKLOADS",
]


@dataclass(frozen=True, slots=True)
class TrunkPing:
    """Cross-ring gateway ping payload (rides the trunk segment)."""

    ring: int
    n: int


class WorkloadInstance:
    """One built workload."""

    def __init__(
        self,
        loop: EventLoop,
        topology: Topology,
        network: DatagramNetwork,
        trunk_segments: tuple[str, ...],
    ) -> None:
        self.loop = loop
        self.topology = topology
        self.network = network
        #: Segments the builder intends as the cut (partitioner input).
        self.trunk_segments = trunk_segments
        #: Protocol nodes by id (gateways are plain endpoints, not nodes).
        self.nodes: dict[str, RaincoreNode] = {}
        self.listeners: dict[str, RecordingListener] = {}
        #: Deterministic per-instance counters collected at end of run.
        self.counters: dict[str, int] = {}
        self.probes: ProbeBus | None = None
        self._starters: list[Callable[[], None]] = []

    def enable_probes(self) -> ProbeBus:
        """Attach one probe bus to the network and every node."""
        if self.probes is None:
            from repro.obs.probe import ProbeBus

            bus = ProbeBus(self.loop)
            self.network.probe = bus
            for node_id in sorted(self.nodes):
                node = self.nodes[node_id]
                node.probe = bus
                node.transport.probe = bus
            self.probes = bus
        return self.probes

    def start(self) -> None:
        """Kick off formation and load timers."""
        for starter in self._starters:
            starter()

    def collect(self) -> dict[str, object]:
        """Deterministic end-of-run facts, keyed disjointly per node."""
        facts: dict[str, object] = {}
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            facts[f"{node_id}.members"] = list(node.members)
            facts[f"{node_id}.seq"] = node.local_copy_seq
            facts[f"{node_id}.deliveries"] = len(
                self.listeners[node_id].deliveries
            )
        for key in sorted(self.counters):
            facts[key] = self.counters[key]
        return facts


def multi_ring_node_ids(rings: int, ring_size: int) -> list[list[str]]:
    """Node ids per ring: ``r<i>n<j>`` with zero-padded, sortable indices."""
    return [
        [f"r{i:02d}n{j:02d}" for j in range(ring_size)] for i in range(rings)
    ]


def build_multi_ring(seed: int, params: dict) -> WorkloadInstance:
    """R Raincore rings + one deterministic trunk with gateway pings.

    ``params`` knobs (all optional):

    * ``rings`` (4), ``ring_size`` (4) — shape;
    * ``hop_interval`` (0.005) — token hop period per ring;
    * ``ring_latency`` (100e-6), ``ring_jitter`` (20e-6), ``ring_loss``
      (0.0) — per-ring LAN model (jitter/loss draws use the segment's own
      RNG stream);
    * ``trunk_latency`` (0.005) — trunk one-way delay = the lookahead;
    * ``ping_interval`` (0.05), ``ping_start`` (0.5), ``ping_size`` (64) —
      gateway ping traffic to the next ring;
    * ``mcast_interval`` (0.02), ``mcast_start`` (0.25), ``mcast_size``
      (200) — per-node multicast load inside each ring.
    """
    rings = int(params.get("rings", 4))
    ring_size = int(params.get("ring_size", 4))
    if rings < 1 or ring_size < 1:
        raise ValueError("rings and ring_size must be at least 1")
    hop_interval = float(params.get("hop_interval", 0.005))
    ring_latency = float(params.get("ring_latency", 100e-6))
    ring_jitter = float(params.get("ring_jitter", 20e-6))
    ring_loss = float(params.get("ring_loss", 0.0))
    trunk_latency = float(params.get("trunk_latency", 0.005))
    ping_interval = float(params.get("ping_interval", 0.05))
    ping_start = float(params.get("ping_start", 0.5))
    ping_size = int(params.get("ping_size", 64))
    mcast_interval = float(params.get("mcast_interval", 0.02))
    mcast_start = float(params.get("mcast_start", 0.25))
    mcast_size = int(params.get("mcast_size", 200))

    # The loop seed is deliberately segregated from every draw the workload
    # makes: all randomness is per-segment (seed_segment_rngs), so no draw
    # depends on how the loop interleaves the groups (docs/PARALLEL.md
    # determinism contract).
    loop = EventLoop(seed=derive_rng_seed(seed, "loop"))
    topology = Topology()
    ring_ids = multi_ring_node_ids(rings, ring_size)

    for i in range(rings):
        topology.add_segment(
            Segment(
                name=f"ring{i:02d}",
                latency=ring_latency,
                jitter=ring_jitter,
                loss=ring_loss,
            )
        )
    if rings > 1:
        topology.add_segment(
            Segment(name="trunk", latency=trunk_latency, jitter=0.0, loss=0.0)
        )
    for i, members in enumerate(ring_ids):
        for node_id in members:
            topology.add_node(node_id)
            topology.attach(node_id, f"{node_id}@ring{i:02d}", f"ring{i:02d}")
        if rings > 1:
            # Dedicated gateway element per ring (paper's hierarchy): an
            # application endpoint on both the ring and the trunk.  It is
            # *not* a RaincoreNode, so its trunk binding is never clobbered
            # by a transport rebinding the node's addresses at start().
            gw = f"r{i:02d}gw"
            topology.add_node(gw)
            topology.attach(gw, f"{gw}@ring{i:02d}", f"ring{i:02d}")
            topology.attach(gw, f"{gw}@trunk", "trunk")
    topology.seed_segment_rngs(seed)

    network = DatagramNetwork(loop, topology)
    trunks = ("trunk",) if rings > 1 else ()
    instance = WorkloadInstance(loop, topology, network, trunks)
    config = RaincoreConfig.tuned(ring_size=ring_size, hop_interval=hop_interval)

    for i, members in enumerate(ring_ids):
        for node_id in members:
            listener = RecordingListener()
            node = RaincoreNode(node_id, loop, network, config, listener)
            node.set_eligible(members)
            instance.nodes[node_id] = node
            instance.listeners[node_id] = listener

        def start_ring(members: list[str] = members) -> None:
            first, *rest = members
            instance.nodes[first].start_new_group()
            for node_id in rest:
                instance.nodes[node_id].start_joining([first])

        instance._starters.append(start_ring)

        # Per-node multicast load: self-rescheduling timers, staggered by
        # a fixed per-node phase so the schedule is a pure function of the
        # node id.
        for j, node_id in enumerate(members):
            phase = mcast_start + (i * ring_size + j) * 1e-4

            def arm_mcast(node_id: str = node_id, phase: float = phase) -> None:
                state = {"k": 0}

                def tick() -> None:
                    node = instance.nodes[node_id]
                    if node.is_member:
                        node.multicast(
                            f"{node_id}.{state['k']}", size=mcast_size
                        )
                        state["k"] += 1
                    loop.call_later(mcast_interval, tick)

                loop.call_at(phase, tick)

            instance._starters.append(arm_mcast)

    # Gateway pings over the trunk: ring i pings ring (i+1) % rings.  Each
    # gateway counts what it sends and what arrives at its own address.
    if rings > 1:
        for i in range(rings):
            gateway = f"r{i:02d}gw"
            src_addr = f"{gateway}@trunk"
            dst_addr = f"r{(i + 1) % rings:02d}gw@trunk"
            instance.counters[f"ping_tx.ring{i:02d}"] = 0
            instance.counters[f"ping_rx.ring{i:02d}"] = 0

            def on_ping(packet: Datagram, ring: int = i) -> None:
                instance.counters[f"ping_rx.ring{ring:02d}"] += 1

            network.bind(src_addr, on_ping)

            def arm_ping(
                ring: int = i, src: str = src_addr, dst: str = dst_addr
            ) -> None:
                state = {"n": 0}

                def tick() -> None:
                    network.send(
                        src, dst, TrunkPing(ring, state["n"]), size=ping_size
                    )
                    instance.counters[f"ping_tx.ring{ring:02d}"] += 1
                    state["n"] += 1
                    loop.call_later(ping_interval, tick)

                loop.call_at(ping_start + ring * 1e-4, tick)

            instance._starters.append(arm_ping)

    return instance


WORKLOADS: dict[str, Callable[..., WorkloadInstance]] = {
    "multi_ring": build_multi_ring,
}


def build_workload(name: str, seed: int, params: dict) -> WorkloadInstance:
    """Build a registered workload by name (raises on unknown names)."""
    try:
        builder = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; registered: {sorted(WORKLOADS)}"
        ) from None
    return builder(seed, params)
