"""Locality-aware topology partitioner for the sharded simulator.

The partitioner splits a :class:`~repro.net.topology.Topology` into
**natural shard groups** — the connected components of the node graph once
*trunk* segments are removed — and reports the cut that separates them.

Trunk segments are the inter-shard links.  They must be *deterministic*
(no loss, jitter, duplication, spikes or burst channels): a trunk packet's
arrival time is then ``send_time + latency`` exactly, which gives the
engine its conservative lookahead bound (the epoch length) and keeps every
RNG stream private to one shard.  By default any deterministic segment is
a trunk *candidate*; a candidate whose attached nodes all fall inside one
component anyway is demoted back to a local segment.

The natural grouping is the unit of determinism: the engine routes *all*
trunk traffic through the epoch exchange, so the trace is a function of
the plan alone (docs/PARALLEL.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.net.topology import Topology

__all__ = ["ShardGroup", "CutEdge", "ShardPlan", "partition_topology"]


@dataclass(frozen=True)
class ShardGroup:
    """One natural shard: a connected island of nodes and local segments."""

    __slots__ = ("index", "nodes", "segments")

    index: int
    nodes: tuple[str, ...]
    segments: tuple[str, ...]


@dataclass(frozen=True)
class CutEdge:
    """One trunk segment of the cut, with the groups it bridges."""

    __slots__ = ("segment", "latency", "groups", "attached_nodes")

    segment: str
    latency: float
    groups: tuple[int, ...]
    attached_nodes: tuple[str, ...]


@dataclass(frozen=True)
class ShardPlan:
    """The partition: groups, cut edges, and the lookahead bound."""

    __slots__ = ("groups", "cut", "lookahead")

    groups: tuple[ShardGroup, ...]
    cut: tuple[CutEdge, ...]
    #: Minimum trunk latency — the epoch length.  Cross-shard packets sent
    #: during epoch k cannot arrive before epoch k+1.
    lookahead: float

    @property
    def trunks(self) -> tuple[str, ...]:
        return tuple(edge.segment for edge in self.cut)

    def cut_report(self) -> dict[str, Any]:
        """Machine-readable cut-cost report (stable key order when dumped)."""
        return {
            "groups": [
                {
                    "index": g.index,
                    "nodes": len(g.nodes),
                    "segments": list(g.segments),
                }
                for g in self.groups
            ],
            "cut_edges": [
                {
                    "segment": e.segment,
                    "latency": e.latency,
                    "bridges_groups": list(e.groups),
                    "attached_nodes": len(e.attached_nodes),
                }
                for e in self.cut
            ],
            "cut_cost_attachments": sum(len(e.attached_nodes) for e in self.cut),
            "lookahead": self.lookahead,
            "balance": {
                "largest_group": max(len(g.nodes) for g in self.groups),
                "smallest_group": min(len(g.nodes) for g in self.groups),
            },
        }

    def render_report(self) -> str:
        """Human-readable one-screen summary of the partition."""
        lines = [
            f"shard plan: {len(self.groups)} groups, "
            f"{len(self.cut)} cut segments, lookahead {self.lookahead:g}s"
        ]
        for g in self.groups:
            lines.append(
                f"  group {g.index}: {len(g.nodes)} nodes "
                f"[{g.nodes[0]}..{g.nodes[-1]}] segments={','.join(g.segments) or '-'}"
            )
        for e in self.cut:
            lines.append(
                f"  cut {e.segment}: latency={e.latency:g}s bridges groups "
                f"{list(e.groups)} ({len(e.attached_nodes)} attachments)"
            )
        return "\n".join(lines)


def partition_topology(
    topology: Topology, trunk_segments: tuple[str, ...] | None = None
) -> ShardPlan:
    """Compute the natural shard partition of ``topology``.

    ``trunk_segments`` names the cut explicitly; by default every
    deterministic segment (see ``Segment.is_deterministic``) is a
    candidate, and candidates that fail to bridge two components are
    demoted to local segments.  Raises ``ValueError`` when an explicit
    trunk has adversity knobs enabled or when the resulting lookahead
    would be zero.
    """
    all_segments = sorted(seg.name for seg in topology.segments())
    if trunk_segments is None:
        candidates = tuple(
            name
            for name in all_segments
            if topology.segment(name).is_deterministic()
        )
    else:
        for name in trunk_segments:
            if not topology.segment(name).is_deterministic():
                raise ValueError(
                    f"trunk segment {name!r} has adversity knobs enabled; "
                    "only deterministic segments may be cut"
                )
        candidates = tuple(sorted(trunk_segments))

    components = topology.connected_components(exclude_segments=candidates)
    component_of = {
        node_id: idx for idx, nodes in enumerate(components) for node_id in nodes
    }

    cut: list[CutEdge] = []
    trunk_names: set[str] = set()
    for name in candidates:
        attached = topology.nodes_on_segment(name)
        spanned = tuple(sorted({component_of[n] for n in attached}))
        if len(spanned) > 1:
            seg = topology.segment(name)
            if seg.latency <= 0.0:
                raise ValueError(
                    f"trunk segment {name!r} has zero latency: the lookahead "
                    "bound (epoch length) must be positive"
                )
            cut.append(CutEdge(name, seg.latency, spanned, attached))
            trunk_names.add(name)

    # Local segments of each group: every non-trunk segment falls entirely
    # inside one component (by construction of the components).
    group_segments: dict[int, list[str]] = {i: [] for i in range(len(components))}
    for name in all_segments:
        if name in trunk_names:
            continue
        attached = topology.nodes_on_segment(name)
        if attached:
            group_segments[component_of[attached[0]]].append(name)

    groups = tuple(
        ShardGroup(idx, nodes, tuple(group_segments[idx]))
        for idx, nodes in enumerate(components)
    )
    lookahead = min((e.latency for e in cut), default=0.0)
    return ShardPlan(groups=groups, cut=tuple(cut), lookahead=lookahead)
