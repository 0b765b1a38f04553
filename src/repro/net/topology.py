"""Cluster topology: nodes, NICs, network segments, link faults, partitions.

The paper's cluster is a set of networking elements on one or more switched
LAN segments.  Raincore's Transport Service explicitly supports *multiple
physical addresses per node* (paper §2.1 item 2) — i.e. several NICs on
redundant segments — to make partitions less likely.  This module models:

* **Node sites** — a node id owning one or more NIC addresses, with an
  up/down flag (node crash/recovery).
* **Segments** — broadcast domains (switches) with per-segment latency,
  jitter and loss probability; two NICs can exchange datagrams only if they
  share a segment.
* **Link faults** — individual NIC detachment (cable unplug, the paper's
  §3.2 fail-over experiment) and blocked address pairs (asymmetric or
  pairwise link failure, the paper's §2.3 "link between A and B fails"
  example).
* **Partitions** — named splits of a segment into isolated halves
  (split-brain injection for the §2.4 merge protocol).

Every per-packet random draw (loss, burst, jitter, spike, duplication) is
made by the datagram layer from the event loop's one seeded RNG, so faulty
runs replay deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.net.adversity import GilbertElliott

__all__ = ["Segment", "NodeSite", "Topology"]


@dataclass
class Segment:
    """One switched LAN segment.

    Parameters mirror what the protocols can observe: propagation latency
    (plus uniform jitter) and independent per-packet loss probability.  A
    segment has no bandwidth: the datagram layer does not rate-limit
    protocol packets, whose bandwidth is negligible by design, and the
    paper's 100 Mbps Fast Ethernet NICs appear only in the flow-level
    traffic model (``GatewayPort.capacity_bps`` in :mod:`repro.apps.traffic`).

    The adversity knobs (``duplicate``, ``spike_prob``/``spike_extra``,
    ``burst``) default to off, preserving the paper's benign-LAN model;
    the chaos engine flips them mid-run through
    :class:`~repro.cluster.faults.FaultInjector`.
    """

    name: str
    latency: float = 100e-6  #: one-way propagation delay in seconds
    jitter: float = 20e-6  #: uniform extra delay in [0, jitter)
    loss: float = 0.0  #: independent per-packet drop probability
    duplicate: float = 0.0  #: probability a delivered packet arrives twice
    spike_prob: float = 0.0  #: probability of a delay spike per packet
    spike_extra: float = 0.0  #: extra one-way delay of a spiked packet
    burst: GilbertElliott | None = None  #: correlated (burst) loss channel
    attached: set[str] = field(default_factory=set)  #: NIC addresses on segment

    def __post_init__(self) -> None:
        for name in ("loss", "duplicate", "spike_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        for name in ("latency", "jitter", "spike_extra"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value}"
                )

    def clear_adversities(self) -> None:
        """Reset duplication, spikes and burst loss to the benign model."""
        self.duplicate = 0.0
        self.spike_prob = 0.0
        self.spike_extra = 0.0
        self.burst = None


@dataclass
class NodeSite:
    """A node's physical presence: its NICs and liveness."""

    node_id: str
    addresses: list[str] = field(default_factory=list)
    up: bool = True


class Topology:
    """Mutable cluster topology with fault-injection hooks."""

    def __init__(self) -> None:
        self._segments: dict[str, Segment] = {}
        self._sites: dict[str, NodeSite] = {}
        self._addr_owner: dict[str, str] = {}  # address -> node_id
        self._addr_up: dict[str, bool] = {}  # NIC liveness (cable state)
        self._blocked_pairs: set[frozenset[str]] = set()  # address pairs
        self._partition_groups: dict[str, int] = {}  # node_id -> group index
        #: Bumped on every mutation that can change reachability; consumers
        #: (the datagram layer's route cache) invalidate on mismatch.
        self.version = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_segment(self, segment: Segment) -> Segment:
        if segment.name in self._segments:
            raise ValueError(f"duplicate segment {segment.name!r}")
        self._segments[segment.name] = segment
        self.version += 1
        return segment

    def add_node(self, node_id: str) -> NodeSite:
        if node_id in self._sites:
            raise ValueError(f"duplicate node {node_id!r}")
        site = NodeSite(node_id)
        self._sites[node_id] = site
        return site

    def attach(self, node_id: str, address: str, segment_name: str) -> None:
        """Give ``node_id`` a NIC with ``address`` on ``segment_name``."""
        if node_id not in self._sites:
            raise KeyError(f"unknown node {node_id!r}")
        if segment_name not in self._segments:
            raise KeyError(f"unknown segment {segment_name!r}")
        if address in self._addr_owner:
            raise ValueError(f"address {address!r} already in use")
        self._sites[node_id].addresses.append(address)
        self._addr_owner[address] = node_id
        self._addr_up[address] = True
        self._segments[segment_name].attached.add(address)
        self.version += 1

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def segment(self, name: str) -> Segment:
        return self._segments[name]

    def segments(self) -> list[Segment]:
        return list(self._segments.values())

    def site(self, node_id: str) -> NodeSite:
        return self._sites[node_id]

    def nodes(self) -> list[str]:
        return list(self._sites)

    def owner_of(self, address: str) -> str:
        """Node id owning a NIC address."""
        return self._addr_owner[address]

    def addresses_of(self, node_id: str) -> list[str]:
        """All NIC addresses of a node, in attach order."""
        return list(self._sites[node_id].addresses)

    def segment_of(self, address: str) -> Segment:
        for seg in self._segments.values():
            if address in seg.attached:
                return seg
        raise KeyError(f"address {address!r} not attached to any segment")

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def set_node_up(self, node_id: str, up: bool) -> None:
        """Crash (``False``) or recover (``True``) a whole node."""
        self._sites[node_id].up = up
        self.version += 1

    def set_nic_up(self, address: str, up: bool) -> None:
        """Unplug / replug one NIC's cable."""
        if address not in self._addr_up:
            raise KeyError(f"unknown address {address!r}")
        self._addr_up[address] = up
        self.version += 1

    def nic_up(self, address: str) -> bool:
        return self._addr_up[address]

    def block_pair(self, addr_a: str, addr_b: str) -> None:
        """Cut the (bidirectional) path between two NIC addresses only.

        This reproduces the paper's §2.3 scenario where the A–B link fails
        while both nodes stay reachable through other peers.
        """
        self._blocked_pairs.add(frozenset((addr_a, addr_b)))
        self.version += 1

    def unblock_pair(self, addr_a: str, addr_b: str) -> None:
        self._blocked_pairs.discard(frozenset((addr_a, addr_b)))
        self.version += 1

    def block_node_pair(self, node_a: str, node_b: str) -> None:
        """Block every NIC pair between two nodes."""
        for a in self.addresses_of(node_a):
            for b in self.addresses_of(node_b):
                self.block_pair(a, b)

    def unblock_node_pair(self, node_a: str, node_b: str) -> None:
        for a in self.addresses_of(node_a):
            for b in self.addresses_of(node_b):
                self.unblock_pair(a, b)

    def partition(self, groups: list[list[str]]) -> None:
        """Split the cluster: nodes may only talk within their group.

        ``groups`` must cover disjoint node sets; nodes not listed stay
        reachable from everyone (they form an implicit extra group only for
        nodes that appear nowhere).
        """
        assignment: dict[str, int] = {}
        for idx, group in enumerate(groups):
            for node_id in group:
                if node_id in assignment:
                    raise ValueError(f"node {node_id!r} listed in two groups")
                if node_id not in self._sites:
                    raise KeyError(f"unknown node {node_id!r}")
                assignment[node_id] = idx
        self._partition_groups = assignment
        self.version += 1

    def heal_partition(self) -> None:
        """Remove any partition; blocked pairs are unaffected."""
        self._partition_groups = {}
        self.version += 1

    def clear_link_faults(self) -> None:
        """Heal every link-level fault at once: partitions gone, all
        blocked pairs unblocked, every NIC replugged, every per-segment
        adversity reset.  Node up/down state is untouched — recovering
        crashed nodes is a protocol action, not a cable repair."""
        self._partition_groups = {}
        self._blocked_pairs.clear()
        for address in self._addr_up:
            self._addr_up[address] = True
        for seg in self._segments.values():
            seg.clear_adversities()
        self.version += 1

    # ------------------------------------------------------------------
    # reachability
    # ------------------------------------------------------------------
    def can_deliver(self, src_addr: str, dst_addr: str) -> bool:
        """True when a datagram from ``src_addr`` can reach ``dst_addr`` now.

        Checks, in order: both NICs exist and are plugged in, both owning
        nodes are up, the NICs share a segment, the address pair is not
        blocked, and the owners are not separated by a partition.
        Loss is *not* applied here — it is a random per-packet draw done by
        the datagram layer.
        """
        if src_addr not in self._addr_owner or dst_addr not in self._addr_owner:
            return False
        if not (self._addr_up[src_addr] and self._addr_up[dst_addr]):
            return False
        src_node = self._addr_owner[src_addr]
        dst_node = self._addr_owner[dst_addr]
        if not (self._sites[src_node].up and self._sites[dst_node].up):
            return False
        if frozenset((src_addr, dst_addr)) in self._blocked_pairs:
            return False
        if self._partition_groups:
            ga = self._partition_groups.get(src_node)
            gb = self._partition_groups.get(dst_node)
            if ga is not None and gb is not None and ga != gb:
                return False
        seg = self._shared_segment(src_addr, dst_addr)
        return seg is not None

    def _shared_segment(self, addr_a: str, addr_b: str) -> Segment | None:
        for seg in self._segments.values():
            if addr_a in seg.attached and addr_b in seg.attached:
                return seg
        return None

    def path_params(self, src_addr: str, dst_addr: str) -> Segment:
        """Segment whose latency/loss applies to this address pair."""
        seg = self._shared_segment(src_addr, dst_addr)
        if seg is None:
            raise KeyError(f"{src_addr!r} and {dst_addr!r} share no segment")
        return seg


def build_switched_cluster(
    topology: Topology,
    node_ids: list[str],
    *,
    segments: int = 1,
    latency: float = Segment.latency,
    jitter: float = Segment.jitter,
    loss: float = 0.0,
) -> dict[str, list[str]]:
    """Convenience builder: ``segments`` redundant switched LANs, one NIC per
    node per segment.  Returns node id → address list.

    Addresses are formatted ``"<node>@net<k>"`` so traces are readable.
    """
    if segments < 1:
        raise ValueError("need at least one segment")
    for k in range(segments):
        topology.add_segment(
            Segment(name=f"net{k}", latency=latency, jitter=jitter, loss=loss)
        )
    addresses: dict[str, list[str]] = {}
    for node_id in node_ids:
        topology.add_node(node_id)
        addrs = []
        for k in range(segments):
            addr = f"{node_id}@net{k}"
            topology.attach(node_id, addr, f"net{k}")
            addrs.append(addr)
        addresses[node_id] = addrs
    return addresses


__all__.append("build_switched_cluster")
