"""Replicated dictionary — part of the Raincore Distributed Data Service.

Paper §5 (future work): "The ambition is to provide developers an
environment where they will be able to develop distributed networking
applications with the ease of developing a multi-thread shared-memory
application on a single processor."  This module is that environment's
first primitive: a key-value store replicated across the group by
agreed-ordered multicast.

Consistency model
-----------------
* Writes (``set`` / ``delete``) are multicast operations; every member
  applies them in the group's single total order, so replicas never
  diverge while co-members.
* Reads are local and therefore may momentarily lag the total order by the
  in-flight window — the standard trade of token-replicated state.
* **State transfer and anti-entropy** follow the Data Service replica
  discipline (:mod:`repro.data.replica`): join-time snapshots materialized
  at token-attach time, growth-triggered snapshots from the lowest-id
  synced member, sync-requests from unsynced replicas, and deterministic
  self-declaration when an entire group lacks history.
* **Merge reconciliation**: after a split-brain heals, the snapshot rules
  converge the cluster on the coordinator's state — the lower-group-id
  partition wins, mirroring the merge protocol's own tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.core.session import RaincoreNode
from repro.data.replica import ReplicaBase

__all__ = ["SharedDict", "DictOp", "DictSnapshot"]


def _estimate_size(obj: object) -> int:
    """Crude wire-size model for replicated values."""
    if isinstance(obj, (bytes, bytearray, str)):
        return len(obj)
    if isinstance(obj, dict):
        return sum(_estimate_size(k) + _estimate_size(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(_estimate_size(v) for v in obj)
    return 8


@dataclass(frozen=True)
class DictOp:
    """One replicated write: set or delete."""

    kind: str  # "set" | "del"
    key: str
    value: object  # None for del

    def __repr__(self) -> str:
        # The generated repr's exact string (it feeds the chain digest of
        # every logged write), without its recursion guard.
        return f"DictOp(kind={self.kind!r}, key={self.key!r}, value={self.value!r})"

    def wire_size(self) -> int:
        return 16 + len(self.key) + _estimate_size(self.value)


@dataclass(frozen=True)
class DictSnapshot:
    """Full-state transfer for joiners (and merge reconciliation)."""

    state: dict
    version: int  # ops applied at the sender when materialized

    def wire_size(self) -> int:
        return 16 + _estimate_size(self.state)


class SharedDict(ReplicaBase):
    """A group-replicated ``dict`` with local reads and multicast writes.

    Attach before starting the node (so the first view is observed)::

        shared = SharedDict(node)
        node.start_joining(["A"])
        ...
        shared.set("load:B", 17)
        shared.get("load:A")
    """

    SERVICE = "shared-dict"

    def __init__(self, node: RaincoreNode) -> None:
        self._state: dict[str, object] = {}
        self._version = 0
        super().__init__(node)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def set(self, key: str, value: object) -> None:
        """Replicate ``key = value`` to the whole group."""
        self.node.multicast(DictOp("set", key, value))

    def delete(self, key: str) -> None:
        """Replicate deletion of ``key``."""
        self.node.multicast(DictOp("del", key, None))

    def get(self, key: str, default: object = None) -> object:
        """Local read of this replica."""
        return self._state.get(key, default)

    def __contains__(self, key: str) -> bool:
        return key in self._state

    def __len__(self) -> int:
        return len(self._state)

    def keys(self) -> Iterator[str]:
        return iter(sorted(self._state))

    def snapshot(self) -> dict[str, object]:
        """Copy of the local replica state."""
        return dict(self._state)

    @property
    def version(self) -> int:
        """Number of operations applied at this replica."""
        return self._version

    # ------------------------------------------------------------------
    # ReplicaBase hooks
    # ------------------------------------------------------------------
    def _is_op(self, payload: Any) -> bool:
        return isinstance(payload, DictOp)

    def _is_snapshot(self, payload: Any) -> bool:
        return isinstance(payload, DictSnapshot)

    def _apply_op(self, op: DictOp) -> None:
        self._version += 1
        if op.kind == "set":
            self._state[op.key] = op.value
        elif op.kind == "del":
            self._state.pop(op.key, None)

    def _snapshot_payload(self) -> DictSnapshot:
        return DictSnapshot(dict(self._state), self._version)

    def _install_snapshot(self, snap: DictSnapshot) -> None:
        # Everyone applies snapshots in full: a no-op for in-sync members
        # by construction; after a merge it reconciles the partitions.
        self._state = dict(snap.state)
        self._version = snap.version
