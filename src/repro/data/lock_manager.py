"""Distributed lock manager — part of the Raincore Distributed Data Service.

Paper §2.7: "a Raincore distributed lock manager is implemented as part of
the Raincore Distributed Data Service, using the mutual exclusion service to
acquire and release data locks.  The data locks ..., comparing to this
master-lock, can be associated with one or more shared data items, and can
be owned by a node without requiring the node to remain in the EATING
state."

Design
------
The lock table is replicated state driven exclusively by the group's
agreed-ordered multicast stream: every node applies the same
acquire/release/purge operations in the same order, so the tables agree
without any extra coordination — the token's total order *is* the lock
arbitration.  Each lock has an owner and a FIFO wait queue (fairness
mirrors the token's own round-robin fairness).

Fault tolerance: when a member disappears from the view, the lowest-id
surviving member multicasts a ``purge`` op for it.  Because the purge rides
the same ordered stream, every replica drops the dead node's ownerships and
queue entries at the same logical instant; waiting requesters are promoted
deterministically.  Purges are idempotent, so duplicated purges (e.g. after
a leadership change mid-purge) are harmless.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.core.events import Delivery, SessionListener, ViewChange, ensure_composite
from repro.core.session import RaincoreNode

__all__ = ["DistributedLockManager", "LockOp"]


@dataclass(frozen=True)
class LockOp:
    """One replicated lock-table operation."""

    kind: str  # "acquire" | "release" | "purge"
    lock: str  # lock name ("" for purge)
    node: str  # requester / releaser / purged node
    req_id: int  # correlates grants with acquire calls (0 for purge)

    def wire_size(self) -> int:
        return 24 + len(self.lock) + len(self.node)


@dataclass
class _LockState:
    """Owner plus FIFO waiters; queue[0] is the owner."""

    queue: deque = field(default_factory=deque)  # of (node, req_id)


class DistributedLockManager(SessionListener):
    """Named, fault-tolerant, fair distributed locks over one group.

    Attach one manager per node *before* driving traffic::

        dlm = DistributedLockManager(node)
        dlm.acquire("vip-table", on_granted=lambda: ...)
        ...
        dlm.release("vip-table")

    Grant callbacks fire on the acquiring node once its request reaches the
    front of the replicated queue.  ``acquire`` while already owning or
    waiting raises — locks are not reentrant (matching the paper's framing
    of locks as exclusive data-item ownership).
    """

    def __init__(self, node: RaincoreNode) -> None:
        self.node = node
        ensure_composite(node).add(self)
        self._locks: dict[str, _LockState] = {}
        self._req_ids = itertools.count(1)
        self._grant_callbacks: dict[int, Callable[[], None]] = {}
        self._my_requests: dict[str, int] = {}  # lock -> my outstanding req_id
        self._last_view: tuple[str, ...] = ()
        self._purged: set[tuple[str, int]] = set()  # (node, view_id) dedupe
        # Counters for tests/diagnostics.
        self.grants_seen = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def acquire(self, lock: str, on_granted: Callable[[], None] | None = None) -> int:
        """Request ``lock``; ``on_granted`` fires when we own it.

        Returns the request id.  The request is serialized through the
        token's agreed order, so concurrent acquires from different nodes
        are granted in a single well-defined order.
        """
        if lock in self._my_requests:
            raise RuntimeError(
                f"{self.node.node_id}: already holding or waiting for {lock!r}"
            )
        req_id = next(self._req_ids)
        self._my_requests[lock] = req_id
        if on_granted is not None:
            self._grant_callbacks[req_id] = on_granted
        self.node.multicast(LockOp("acquire", lock, self.node.node_id, req_id))
        return req_id

    def release(self, lock: str) -> None:
        """Release ``lock`` (or withdraw a queued request for it)."""
        if lock not in self._my_requests:
            raise RuntimeError(f"{self.node.node_id}: does not hold {lock!r}")
        req_id = self._my_requests.pop(lock)
        self._grant_callbacks.pop(req_id, None)
        self.node.multicast(LockOp("release", lock, self.node.node_id, req_id))

    def owner(self, lock: str) -> str | None:
        """Current owner of ``lock`` in this replica's table."""
        state = self._locks.get(lock)
        if state is None or not state.queue:
            return None
        return state.queue[0][0]

    def owns(self, lock: str) -> bool:
        return self.owner(lock) == self.node.node_id

    def waiters(self, lock: str) -> list[str]:
        state = self._locks.get(lock)
        if state is None:
            return []
        return [n for n, _ in list(state.queue)[1:]]

    def table(self) -> dict[str, str]:
        """Snapshot of lock → owner (diagnostics / agreement tests)."""
        return {
            name: state.queue[0][0]
            for name, state in self._locks.items()
            if state.queue
        }

    # ------------------------------------------------------------------
    # replicated state machine
    # ------------------------------------------------------------------
    def on_deliver(self, delivery: Delivery) -> None:
        op = delivery.payload
        if type(op) is not LockOp:
            return
        if op.kind == "acquire":
            self._apply_acquire(op)
        elif op.kind == "release":
            self._apply_release(op)
        elif op.kind == "purge":
            self._apply_purge(op.node)

    def _apply_acquire(self, op: LockOp) -> None:
        state = self._locks.setdefault(op.lock, _LockState())
        state.queue.append((op.node, op.req_id))
        if len(state.queue) == 1:
            self._granted(op.lock)

    def _apply_release(self, op: LockOp) -> None:
        state = self._locks.get(op.lock)
        if state is None:
            return
        had_owner = bool(state.queue)
        owner = state.queue[0] if had_owner else None
        try:
            state.queue.remove((op.node, op.req_id))
        except ValueError:
            return  # stale release (e.g. after a purge); ignore
        if had_owner and owner == (op.node, op.req_id) and state.queue:
            self._granted(op.lock)

    def _apply_purge(self, dead: str) -> None:
        for lock, state in self._locks.items():
            if not state.queue:
                continue
            owner = state.queue[0]
            state.queue = deque(
                (n, r) for n, r in state.queue if n != dead
            )
            if owner[0] == dead and state.queue:
                self._granted(lock)

    def _granted(self, lock: str) -> None:
        self.grants_seen += 1
        node_id, req_id = self._locks[lock].queue[0]
        if node_id == self.node.node_id:
            callback = self._grant_callbacks.pop(req_id, None)
            if callback is not None:
                callback()

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def on_view_change(self, view: ViewChange) -> None:
        removed = set(self._last_view) - set(view.members)
        self._last_view = view.members
        if not removed or not view.members:
            return
        if self.node.node_id != min(view.members):
            return  # the lowest-id survivor issues the purge
        for dead in sorted(removed):
            key = (dead, view.view_id)
            if key in self._purged:
                continue
            self._purged.add(key)
            self.node.multicast(LockOp("purge", "", dead, 0))
