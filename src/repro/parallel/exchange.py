"""Epoch-batched exchange of trunk packets between shard groups.

Trunk packets are never scheduled directly: the datagram layer hands them
to an exchange (``DatagramNetwork.set_exchange``), which buffers them for
the current epoch and re-injects the whole batch — in **canonical order**
— at the epoch boundary via ``DatagramNetwork.deliver_trunk``.

Canonical order is the total order ``(arrival_time, src, dst, submit_idx)``
where ``submit_idx`` is the buffer's per-epoch counter.  Ties on the first
three keys come from one sender, whose submission order ``submit_idx``
preserves; everything else is ordered by the packets themselves.
"""

from __future__ import annotations

from repro.net.datagram import Datagram, DatagramNetwork

__all__ = ["BatchRecord", "SerialExchange", "inject_batch"]

#: One buffered trunk packet: (arrival_time, src, dst, submit_idx, packet).
#: The leading four fields are the canonical sort key; comparison never
#: reaches the packet object itself.
BatchRecord = tuple[float, str, str, int, Datagram]


def inject_batch(network: DatagramNetwork, records: list[BatchRecord]) -> None:
    """Sort a batch canonically and schedule every arrival.

    Injection order is preserved by the event loop's FIFO tie sequence at
    ``TRUNK_DELIVERY_PRIORITY``, so same-instant arrivals fire exactly in
    canonical order.
    """
    records.sort(key=lambda r: r[:4])
    for when, _src, _dst, _idx, packet in records:
        network.deliver_trunk(packet, when)


class SerialExchange:
    """In-process exchange: one loop hosts every shard group.

    Workloads with no trunk segments never buffer anything, so their runs
    are byte-identical to a classic single-loop run.
    """

    __slots__ = ("network", "_buffer", "_idx")

    def __init__(self, network: DatagramNetwork) -> None:
        self.network = network
        self._buffer: list[BatchRecord] = []
        self._idx = 0

    def submit(self, packet: Datagram, when: float) -> None:
        self._buffer.append((when, packet.src, packet.dst, self._idx, packet))
        self._idx += 1

    def flush_epoch(self) -> int:
        """Inject the epoch's batch; returns the number of packets moved."""
        moved = len(self._buffer)
        inject_batch(self.network, self._buffer)
        self._buffer = []
        self._idx = 0
        return moved
