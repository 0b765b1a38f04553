"""Adapters and builders so benchmarks drive every protocol identically."""

from __future__ import annotations

from typing import Type

from repro.baselines.base import BaselineNode, DeliverCallback, GroupChannel
from repro.cluster.harness import RaincoreCluster
from repro.core.events import Delivery, SessionListener
from repro.core.session import RaincoreNode
from repro.net.datagram import DatagramNetwork
from repro.net.eventloop import EventLoop
from repro.net.topology import Topology, build_switched_cluster

__all__ = ["RaincoreChannel", "BaselineCluster", "build_baseline_cluster"]


class _ForwardingListener(SessionListener):
    def __init__(self) -> None:
        self.callback: DeliverCallback | None = None

    def on_deliver(self, delivery: Delivery) -> None:
        if self.callback is not None:
            self.callback(delivery.origin, delivery.payload)


class RaincoreChannel(GroupChannel):
    """Wrap a :class:`RaincoreNode` as a benchmark :class:`GroupChannel`."""

    def __init__(self, node: RaincoreNode) -> None:
        self.node = node
        if isinstance(node.listener, _ForwardingListener):
            self._listener = node.listener
        else:
            self._listener = _ForwardingListener()
            node.listener = self._listener

    def multicast(self, payload: object, size: int = 64) -> None:
        self.node.multicast(payload, size=size)

    def set_deliver(self, callback: DeliverCallback) -> None:
        self._listener.callback = callback

    @classmethod
    def cluster(cls, cluster: RaincoreCluster) -> dict[str, "RaincoreChannel"]:
        """One channel per already-formed cluster member."""
        return {nid: cls(cluster.node(nid)) for nid in cluster.node_ids}


class BaselineCluster:
    """A set of baseline protocol endpoints on one simulated network."""

    def __init__(
        self,
        node_cls: Type[BaselineNode],
        node_ids: list[str],
        *,
        seed: int = 0,
        loss: float = 0.0,
    ) -> None:
        self.node_ids = list(node_ids)
        self.loop = EventLoop(seed=seed)
        self.topology = Topology()
        build_switched_cluster(self.topology, self.node_ids, loss=loss)
        self.network = DatagramNetwork(self.loop, self.topology)
        self.nodes: dict[str, BaselineNode] = {
            nid: node_cls(nid, self.loop, self.network, self.node_ids)
            for nid in self.node_ids
        }

    def __getitem__(self, node_id: str) -> BaselineNode:
        return self.nodes[node_id]

    @property
    def stats(self):
        return self.network.stats

    def run(self, duration: float) -> None:
        self.loop.run_for(duration)


def build_baseline_cluster(node_cls, node_ids, **kwargs) -> BaselineCluster:
    """Convenience constructor mirroring :class:`RaincoreCluster`'s shape."""
    return BaselineCluster(node_cls, list(node_ids), **kwargs)
