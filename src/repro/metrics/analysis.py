"""Post-run analysis helpers over cluster observations.

The chaos engine and the tests check the same two
properties of :class:`~repro.core.events.RecordingListener` data — agreed
order across nodes and no duplicate delivery.  This module is the shared,
public home for those checks so downstream users analyze their own
scenarios the same way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.harness import RaincoreCluster

__all__ = ["prefix_consistency_violations", "duplicate_deliveries"]


def prefix_consistency_violations(
    orders: dict[str, list[tuple[str, int]]]
) -> list[tuple[str, str]]:
    """Pairs of nodes whose delivery orders disagree on common messages.

    Empty list = the agreed-ordering property (DESIGN.md P5) holds for
    this run.
    """
    violations: list[tuple[str, str]] = []
    items = list(orders.items())
    for i, (node_a, order_a) in enumerate(items):
        set_a = set(order_a)
        for node_b, order_b in items[i + 1:]:
            common = set_a & set(order_b)
            fa = [k for k in order_a if k in common]
            fb = [k for k in order_b if k in common]
            if fa != fb:
                violations.append((node_a, node_b))
    return violations


def duplicate_deliveries(cluster: "RaincoreCluster") -> dict[str, int]:
    """Node id → number of duplicated deliveries (should be all zero)."""
    out: dict[str, int] = {}
    for nid, cn in cluster.nodes.items():
        keys = cn.listener.delivery_keys
        out[nid] = len(keys) - len(set(keys))
    return out

