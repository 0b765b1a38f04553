"""Common interface for group-communication comparators (paper §4.1).

The paper's overhead analysis compares Raincore's token-piggybacked
multicast against broadcast-style protocols emulated over unicast.  Every
comparator (and the Raincore adapter) implements :class:`GroupChannel`, so
the benchmark harness can run identical workloads over each and read the
same counters: CPU task-switches, packets and bytes.
"""

from __future__ import annotations

import abc
from typing import Callable

from repro.net.datagram import DatagramNetwork
from repro.net.eventloop import EventLoop
from repro.net.stats import NodeStats
from repro.transport.reliable import ReliableUnicast

__all__ = ["GroupChannel", "BaselineNode", "DeliverCallback"]

#: (origin node id, payload) delivered to the application.
DeliverCallback = Callable[[str, object], None]


class GroupChannel(abc.ABC):
    """One member's endpoint of a group-communication protocol."""

    @abc.abstractmethod
    def multicast(self, payload: object, size: int = 64) -> None:
        """Reliably send ``payload`` to every member of the group."""

    @abc.abstractmethod
    def set_deliver(self, callback: DeliverCallback) -> None:
        """Install the application delivery callback."""


class BaselineNode(GroupChannel):
    """Shared plumbing for the unicast-emulated broadcast baselines.

    Each baseline node owns a reliable-unicast transport endpoint (the same
    Raincore Transport Service the session layer uses, so acknowledgement
    and retransmission costs are identical across protocols) and a static
    member list — the baselines are overhead comparators, not full
    membership protocols, exactly as in the paper's analysis.
    """

    def __init__(
        self,
        node_id: str,
        loop: EventLoop,
        network: DatagramNetwork,
        members: list[str],
    ) -> None:
        if node_id not in members:
            raise ValueError(f"{node_id!r} must be in the member list")
        self.node_id = node_id
        self.loop = loop
        self.members = list(members)
        self.peers = [m for m in members if m != node_id]
        self.stats: NodeStats = network.stats.for_node(node_id)
        self.transport = ReliableUnicast(node_id, loop, network)
        self.transport.set_receiver(self._receive)
        self.transport.start()
        self._deliver: DeliverCallback | None = None
        self.delivered = 0
        # Protocol-level duplicate suppression: infinite retry re-sends a
        # frame under a fresh transport msg-id, so the transport's own
        # dedup cannot catch it.  Frames expose ``dedup_key()``.
        self._seen_frames: set[tuple] = set()

    def set_deliver(self, callback: DeliverCallback) -> None:
        self._deliver = callback

    def charge_send_wakeup(self) -> None:
        """Account the send-side GC activation of one ``multicast`` call.

        Emulating a broadcast requires the GC task to wake and fan the
        message out the moment the application sends it; Raincore instead
        queues locally and batches the fan-out into the next token wakeup.
        This asymmetry is exactly the paper's L vs M·N argument, so each
        baseline charges one wakeup per multicast here.
        """
        self.stats.gc_wakeup(self.loop.now)

    def stop(self) -> None:
        self.transport.stop()

    def _send_reliable(self, peer: str, frame: object) -> None:
        """Send with infinite retry.

        The baselines assume a static, fault-free membership (they are
        overhead comparators, not membership protocols), so a transport
        failure-on-delivery only ever means packet loss outlasted the
        transport's retry budget — keep going until the ack arrives.
        """

        def on_result(ok: bool) -> None:
            if not ok and self.transport.running:
                self._send_reliable(peer, frame)

        self.transport.send(peer, frame, on_result=on_result)

    # ------------------------------------------------------------------
    def _receive(self, src: str, payload: object) -> None:
        """Every protocol packet wakes the GC task — the paper's point."""
        self.stats.gc_wakeup(self.loop.now)
        key_fn = getattr(payload, "dedup_key", None)
        if key_fn is not None:
            key = key_fn()
            if key in self._seen_frames:
                return
            self._seen_frames.add(key)
        self._handle(src, payload)

    def _handle(self, src: str, payload: object) -> None:  # pragma: no cover
        raise NotImplementedError

    def _deliver_up(self, origin: str, payload: object) -> None:
        self.delivered += 1
        self.stats.messages_delivered += 1
        if self._deliver is not None:
            self._deliver(origin, payload)
