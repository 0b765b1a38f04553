"""The transport's per-peer duplicate window, kept as the equivalence reference.

Before per-peer floors, ``ReliableUnicast`` remembered each peer's recent
``msg_id``s in a set beside a FIFO of the same ids in arrival order,
bounded by a 4,096-id window: an id in the set is a duplicate; a fresh id
is added, and once the FIFO holds more than the window the oldest id
leaves both.  It forgets by *count*, so a restarted sender (numbering from
1 again, with no incarnation on the wire) is heard once its old ids have
aged out, and is ignored until then.  ``test_transport_dedup.py`` holds
the production filter to this one, frame by frame.
"""

from __future__ import annotations

from collections import deque

__all__ = ["WINDOW", "WindowDedup"]

#: The window's size, as ``TransportConfig.dedup_window`` defaulted to it.
WINDOW = 4096


class WindowDedup:
    """Set + FIFO per peer, verbatim from the transport it replaced."""

    def __init__(self, window: int = WINDOW) -> None:
        self.window = window
        self._seen: dict[str, tuple[set[int], deque[int]]] = {}

    def is_duplicate(self, peer: str, msg_id: int) -> bool:
        if peer not in self._seen:
            self._seen[peer] = (set(), deque())
        ids, fifo = self._seen[peer]
        if msg_id in ids:
            return True
        ids.add(msg_id)
        fifo.append(msg_id)
        if len(fifo) > self.window:
            ids.discard(fifo.popleft())
        return False
