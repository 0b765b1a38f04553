"""Streaming probe aggregation: bounded-state telemetry for scale runs.

At N=1000 a raw probe stream no longer fits in memory, but the questions
the ROADMAP's scale experiments ask — who talks, what drops where, how
fast tokens circulate — only need *reducers*.  :class:`StreamAggregator`
subscribes to a :class:`~repro.obs.probe.ProbeBus` and folds every event
into bounded per-node state (the Bert paper's bounded-per-node-state
discipline applied to the telemetry itself): integer counters, fixed
geometric-bucket histograms, and nothing proportional to the event count.

Determinism contract (pinned by tests/test_agg.py)
--------------------------------------------------
A rollup is a pure function of each node's own sub-stream, never of how
the nodes' events interleave.  The rules that make that true:

* All cross-node reductions are either integer sums or are computed at
  *export* time from the per-node state in sorted node order — never by
  folding floats in stream order, which would make the result depend on
  how nodes interleave.
* Per-node float state (histogram totals) is accumulated in that node's
  own event order.
* Top-K talkers are derived from exact per-node byte counters with a
  total ``(bytes desc, node asc)`` order — no approximate sketches.

The same aggregator works on simulated runs and real-UDP runs
(:mod:`repro.runtime.udp` emits the same ``net.*`` probe kinds).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import TYPE_CHECKING, Any, Iterable

from repro.obs.probe import ProbeConsumer

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.probe import ProbeBus, ProbeEvent

__all__ = [
    "DEFAULT_LATENCY_EDGES",
    "BoundedHistogram",
    "StreamAggregator",
    "rollup_json",
]

#: Geometric bucket edges (seconds) for latency-ish observations: 100 µs
#: to 10 s in a 1-2-5 ladder.  14 edges -> 15 buckets, fixed forever.
DEFAULT_LATENCY_EDGES: tuple[float, ...] = (
    0.0001,
    0.0002,
    0.0005,
    0.001,
    0.002,
    0.005,
    0.01,
    0.02,
    0.05,
    0.1,
    0.2,
    0.5,
    1.0,
    10.0,
)

_ROLLUP_SCHEMA = 1


class BoundedHistogram:
    """Fixed-bucket histogram: state is ``len(edges)+1`` integers + extrema.

    Bucket *i* counts observations ``v`` with ``edges[i-1] < v <= edges[i]``
    (first bucket: ``v <= edges[0]``; last: ``v > edges[-1]``).
    """

    __slots__ = ("edges", "counts", "count", "total", "vmin", "vmax")

    def __init__(self, edges: tuple[float, ...] = DEFAULT_LATENCY_EDGES) -> None:
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = 0.0
        self.vmax = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.edges, value)] += 1
        if self.count == 0 or value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        self.count += 1
        self.total += value

    def quantile(self, q: float) -> float:
        """Upper bucket edge covering quantile ``q`` (conservative bound)."""
        if self.count == 0:
            return 0.0
        exact = q * self.count
        rank = int(exact)
        if rank < exact:
            rank += 1  # nearest-rank: ceil(q * n)
        rank = max(1, rank)
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                return self.edges[i] if i < len(self.edges) else self.vmax
        return self.vmax

    def to_dict(self) -> dict[str, Any]:
        return {
            "counts": list(self.counts),
            "count": self.count,
            "total": round(self.total, 9),
            "min": round(self.vmin, 9),
            "max": round(self.vmax, 9),
        }


class _NodeAgg:
    """Bounded per-node reducer state (no event retention)."""

    __slots__ = (
        "events",
        "packets_sent",
        "bytes_sent",
        "packets_received",
        "bytes_received",
        "packets_dropped",
        "bytes_dropped",
        "token_accepts",
        "token_gap",
        "_last_token_at",
    )

    def __init__(self) -> None:
        self.events = 0
        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_received = 0
        self.bytes_received = 0
        self.packets_dropped = 0
        self.bytes_dropped = 0
        self.token_accepts = 0
        #: Inter-arrival of token.accept at this node (one lap of the ring).
        self.token_gap = BoundedHistogram()
        self._last_token_at: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "events": self.events,
            "packets_sent": self.packets_sent,
            "bytes_sent": self.bytes_sent,
            "packets_received": self.packets_received,
            "bytes_received": self.bytes_received,
            "packets_dropped": self.packets_dropped,
            "bytes_dropped": self.bytes_dropped,
            "token_accepts": self.token_accepts,
            "token_gap": self.token_gap.to_dict(),
        }


class StreamAggregator(ProbeConsumer):
    """Online reducers over the probe stream; subscribe-and-forget.

    ``observe`` folds a batch in O(1) dict work per event; nothing is
    retained.  ``to_dict`` (which drains an attached bus first) produces
    the canonical rollup.
    """

    __slots__ = ("events", "by_kind", "drops_by_where", "_nodes", "_feeds")

    def __init__(self) -> None:
        self.events = 0
        self.by_kind: dict[str, int] = {}
        self.drops_by_where: dict[str, int] = {}
        self._nodes: dict[str, _NodeAgg] = {}
        self._feeds: list[ProbeBus] = []

    # ------------------------------------------------------------------
    def attach(self, bus: "ProbeBus") -> "StreamAggregator":
        bus.subscribe(self.observe)
        return self

    def _node(self, node: str) -> _NodeAgg:
        agg = self._nodes.get(node)
        if agg is None:
            agg = self._nodes[node] = _NodeAgg()
        return agg

    def observe(self, events: Iterable["ProbeEvent"]) -> None:
        """Fold a batch of events (any iterable, in stream order)."""
        by_kind = self.by_kind
        nodes = self._nodes
        count = 0
        for event in events:
            count += 1
            kind = event.kind
            by_kind[kind] = by_kind.get(kind, 0) + 1
            node = nodes.get(event.node)
            if node is None:
                node = self._node(event.node)
            node.events += 1
            if kind == "net.send":
                node.packets_sent += 1
                node.bytes_sent += event.args[3]
            elif kind == "net.deliver":
                node.packets_received += 1
                node.bytes_received += event.args[3]
            elif kind == "net.drop":
                where = event.args[4]
                node.packets_dropped += 1
                node.bytes_dropped += event.args[3]
                self.drops_by_where[where] = self.drops_by_where.get(where, 0) + 1
            elif kind == "token.accept":
                node.token_accepts += 1
                last = node._last_token_at
                if last is not None:
                    node.token_gap.observe(event.at - last)
                node._last_token_at = event.at
        self.events += count

    # ------------------------------------------------------------------
    def to_dict(self, top_k: int = 8) -> dict[str, Any]:
        """The canonical rollup document (sorted keys, derived fields)."""
        self._catch_up()
        per_node = {
            node: self._nodes[node].to_dict() for node in sorted(self._nodes)
        }
        return _finalize(
            {
                "schema": _ROLLUP_SCHEMA,
                "events": self.events,
                "by_kind": dict(sorted(self.by_kind.items())),
                "drops_by_where": dict(sorted(self.drops_by_where.items())),
                "per_node": per_node,
            },
            top_k,
        )

    def to_json(self, top_k: int = 8) -> str:
        return rollup_json(self.to_dict(top_k))


def _finalize(state: dict[str, Any], top_k: int) -> dict[str, Any]:
    """Fill derived fields from per-node state in deterministic order.

    Every float reduction here walks ``per_node`` in sorted-node order,
    so derived values do not depend on how the nodes' events interleaved.
    """
    per_node = state["per_node"]
    talkers = sorted(
        ((d["bytes_sent"], node) for node, d in per_node.items()),
        key=lambda t: (-t[0], t[1]),
    )
    state["top_talkers"] = [
        {"node": node, "bytes_sent": sent}
        for sent, node in talkers[:top_k]
        if sent > 0
    ]
    state["totals"] = {
        "nodes": len(per_node),
        "packets_sent": sum(d["packets_sent"] for d in per_node.values()),
        "bytes_sent": sum(d["bytes_sent"] for d in per_node.values()),
        "packets_dropped": sum(
            d["packets_dropped"] for d in per_node.values()
        ),
        "token_accepts": sum(d["token_accepts"] for d in per_node.values()),
    }
    return state


def rollup_json(rollup: dict[str, Any]) -> str:
    """Canonical byte-stable serialization (compact, key-sorted)."""
    return json.dumps(rollup, sort_keys=True, separators=(",", ":"))
