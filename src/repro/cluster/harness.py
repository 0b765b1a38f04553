"""Cluster harness: build and drive a simulated Raincore cluster.

Wires together the event loop, topology, datagram network and one
:class:`~repro.core.session.RaincoreNode` per member, with a
:class:`~repro.core.events.RecordingListener` on each — the standard setup
used by the tests, the benchmarks and the examples.  The harness also hosts
the convergence predicates (membership agreement, token liveness) that the
paper's Quiescent Period arguments (§2.5) are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.faults import FaultInjector
from repro.core.config import RaincoreConfig
from repro.core.events import RecordingListener
from repro.core.session import RaincoreNode
from repro.core.states import NodeState
from repro.net.datagram import DatagramNetwork
from repro.net.eventloop import EventLoop
from repro.net.topology import Segment, Topology, build_switched_cluster

__all__ = ["RaincoreCluster", "ClusterNode"]


@dataclass
class ClusterNode:
    """One harness-managed node with its recording listener."""

    node: RaincoreNode
    listener: RecordingListener
    addresses: list[str] = field(default_factory=list)

    @property
    def node_id(self) -> str:
        return self.node.node_id


class RaincoreCluster:
    """A simulated cluster of Raincore session-service nodes.

    Parameters
    ----------
    node_ids:
        Member names; ring/group ids use lexicographic order, so name nodes
        ``A, B, C, ...`` or ``n00, n01, ...`` for readable group ids.
    seed:
        Event-loop RNG seed; same seed → identical run.
    segments:
        Number of redundant switched LAN segments (NICs per node).
    config:
        Shared protocol config; defaults to
        :meth:`RaincoreConfig.tuned` for the cluster size.
    loss:
        Per-segment packet loss probability.

    Every node's Eligible Membership is the full node list, so healed
    partitions re-merge automatically (paper §2.4).
    """

    def __init__(
        self,
        node_ids: list[str],
        *,
        seed: int = 0,
        segments: int = 1,
        config: RaincoreConfig | None = None,
        loss: float = 0.0,
        jitter: float = Segment.jitter,
    ) -> None:
        if not node_ids:
            raise ValueError("cluster needs at least one node")
        if len(set(node_ids)) != len(node_ids):
            raise ValueError("node ids must be unique")
        self.node_ids = list(node_ids)
        self.loop = EventLoop(seed=seed)
        self.topology = Topology()
        addr_map = build_switched_cluster(
            self.topology,
            self.node_ids,
            segments=segments,
            loss=loss,
            jitter=jitter,
        )
        self.network = DatagramNetwork(self.loop, self.topology)
        self.config = (
            config
            if config is not None
            else RaincoreConfig.tuned(ring_size=len(node_ids))
        )
        self.nodes: dict[str, ClusterNode] = {}
        for node_id in self.node_ids:
            listener = RecordingListener()
            node = RaincoreNode(
                node_id, self.loop, self.network, self.config, listener
            )
            node.set_eligible(self.node_ids)
            self.nodes[node_id] = ClusterNode(node, listener, addr_map[node_id])
        self.faults = FaultInjector(self)
        # Probe bus (repro.obs): None until enable_probes() opts in, so the
        # default harness pays nothing for observability.
        self.probes = None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def enable_probes(self):
        """Attach one probe bus to every layer of the cluster; idempotent.

        Returns the :class:`~repro.obs.probe.ProbeBus`.  Imported lazily so
        clusters that never observe pay no import cost either.
        """
        if self.probes is None:
            from repro.obs.probe import ProbeBus

            bus = ProbeBus(self.loop)
            self.network.probe = bus
            for cn in self.nodes.values():
                cn.node.probe = bus
                cn.node.transport.probe = bus
            self.probes = bus
        return self.probes

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __getitem__(self, node_id: str) -> ClusterNode:
        return self.nodes[node_id]

    def node(self, node_id: str) -> RaincoreNode:
        return self.nodes[node_id].node

    def listener(self, node_id: str) -> RecordingListener:
        return self.nodes[node_id].listener

    def live_nodes(self) -> list[RaincoreNode]:
        return [
            cn.node for cn in self.nodes.values() if cn.node.state is not NodeState.DOWN
        ]

    @property
    def stats(self):
        return self.network.stats

    # ------------------------------------------------------------------
    # startup patterns
    # ------------------------------------------------------------------
    def start_all(self, form_time: float | None = None) -> None:
        """Bootstrap: first node forms the group, the rest join it, then run
        until the full membership converges.

        ``form_time`` bounds the virtual time spent waiting (default: scales
        with cluster size and join timers).
        """
        first, *rest = self.node_ids
        self.node(first).start_new_group()
        for node_id in rest:
            self.node(node_id).start_joining([first])
        budget = (
            form_time
            if form_time is not None
            else 2.0 + len(self.node_ids) * (self.config.join_retry + 0.5)
        )
        if not self.run_until_converged(budget):
            raise RuntimeError(
                f"cluster failed to form within {budget}s: "
                f"{ {n: self.node(n).members for n in self.node_ids} }"
            )

    def run(self, duration: float) -> None:
        """Advance virtual time by ``duration`` seconds."""
        self.loop.run_for(duration)

    def run_until_converged(
        self, budget: float, expected: set[str] | None = None, step: float = 0.05
    ) -> bool:
        """Run until every live node agrees on the membership ``expected``
        (default: the set of currently-live nodes).  Returns True on
        convergence within ``budget`` virtual seconds."""
        deadline = self.loop.now + budget
        while self.loop.now < deadline:
            self.loop.run_for(step)
            if self.converged(expected):
                return True
        return self.converged(expected)

    def converged(self, expected: set[str] | None = None) -> bool:
        """All live nodes are members and share the same membership view."""
        live = self.live_nodes()
        if not live:
            return False
        want = expected if expected is not None else {n.node_id for n in live}
        views = {frozenset(n.members) for n in live}
        states_ok = all(
            n.state in (NodeState.HUNGRY, NodeState.EATING) for n in live
        )
        return states_ok and views == {frozenset(want)}

    def membership_views(self) -> dict[str, tuple[str, ...]]:
        """Current membership view at every live node."""
        return {
            n.node_id: n.members
            for n in self.live_nodes()
        }

    def token_holders(self) -> list[str]:
        """Nodes currently holding a live token (normally zero or one)."""
        return [n.node_id for n in self.live_nodes() if n.has_token]

    # ------------------------------------------------------------------
    # elasticity
    # ------------------------------------------------------------------
    def add_node(
        self, node_id: str, contacts: list[str] | None = None, start: bool = True
    ) -> ClusterNode:
        """Grow a *running* cluster: provision a new member and join it.

        Attaches one NIC per existing segment, registers the node with the
        harness, extends every member's Eligible Membership (so partitions
        involving the newcomer re-merge), and — unless ``start=False`` —
        immediately starts the 911 join via ``contacts`` (default: all
        current members).
        """
        if node_id in self.nodes:
            raise ValueError(f"duplicate node {node_id!r}")
        self.topology.add_node(node_id)
        addresses = []
        for seg in self.topology.segments():
            addr = f"{node_id}@{seg.name}"
            self.topology.attach(node_id, addr, seg.name)
            addresses.append(addr)
        listener = RecordingListener()
        node = RaincoreNode(node_id, self.loop, self.network, self.config, listener)
        if self.probes is not None:
            node.probe = self.probes
            node.transport.probe = self.probes
        self.node_ids.append(node_id)
        self.nodes[node_id] = ClusterNode(node, listener, addresses)
        for cn in self.nodes.values():
            cn.node.set_eligible(self.node_ids)
        if start:
            pool = contacts if contacts is not None else [
                n.node_id for n in self.live_nodes() if n.node_id != node_id
            ]
            if pool:
                node.start_joining(pool)
            else:
                node.start_new_group()
        return self.nodes[node_id]

    # ------------------------------------------------------------------
    # open group communication (paper §2.6)
    # ------------------------------------------------------------------
    def add_external_client(
        self, client_id: str, contacts: list[str] | None = None, **kwargs
    ):
        """Attach an outside (non-member) node and return its
        :class:`~repro.core.opengroup.OpenGroupClient`."""
        from repro.core.opengroup import OpenGroupClient

        self.topology.add_node(client_id)
        self.topology.attach(client_id, f"{client_id}@net0", "net0")
        return OpenGroupClient(
            client_id,
            self.loop,
            self.network,
            contacts if contacts is not None else list(self.node_ids),
            **kwargs,
        )

    # ------------------------------------------------------------------
    # aggregate observations
    # ------------------------------------------------------------------
    def all_delivery_orders(self) -> dict[str, list[tuple[str, int]]]:
        """Per-node delivery order of multicast ids, for ordering checks."""
        return {
            node_id: cn.listener.delivery_keys for node_id, cn in self.nodes.items()
        }

    def total_deliveries(self) -> int:
        return sum(len(cn.listener.deliveries) for cn in self.nodes.values())
