"""Clustered stateful NAT — sharing *arbitrary application state* (paper §1).

    "This module can also be used to share arbitrary application state, to
    facilitate transparent fail-over of traffic from a failed node to a
    healthy node, without the clients or the servers aware of the failures."

A NAT gateway is the canonical stateful networking element: every
connection owns a translation entry (client endpoint ↔ public port), and
the entry must exist wherever the connection's packets might be forwarded.
Clustering NAT therefore needs two hard guarantees the Session Service
provides directly:

* **cluster-unique allocation** — two gateways must never hand out the same
  public port.  Allocation requests are multicast; every replica applies
  them in the token's total order against an identical free-port structure,
  so the n-th allocation gets the same port everywhere — no locking, no
  coordinator.
* **translation continuity** — because the whole table is replicated, a
  connection adopted by a surviving gateway after a failure keeps its
  public port; the far end never notices (the paper's transparent
  fail-over).

State transfer (join-time snapshots, anti-entropy, merge reconciliation)
follows the Data Service replica discipline (:mod:`repro.data.replica`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.core.session import RaincoreNode
from repro.data.replica import ReplicaBase
from repro.data.resync import chain_identity

__all__ = ["NatMapping", "NatOp", "NatSnapshot", "NatTable"]


@dataclass(frozen=True)
class NatMapping:
    """One replicated translation entry."""

    flow_id: int
    client: str  #: private endpoint ("10.0.0.7:4312")
    public_port: int
    gateway: str  #: gateway that requested the mapping


@dataclass(frozen=True)
class NatOp:
    """One replicated NAT-table operation.

    Its modelled wire ``size`` and chain ``identity`` are derived once,
    when it is built (see :class:`~repro.data.shared_dict.DictOp`).
    """

    kind: str  # "alloc" | "release"
    flow_id: int
    client: str
    requester: str
    size: int = field(init=False, repr=False, compare=False)
    identity: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        size = 24 + len(self.client)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "identity", chain_identity(self, size))

    def wire_size(self) -> int:
        return self.size


@dataclass(frozen=True)
class NatSnapshot:
    """Join-time state transfer: the whole allocator state at one position
    in the total order (materialized at token attach)."""

    mappings: tuple[NatMapping, ...]
    next_fresh: int
    freed: tuple[int, ...]

    def wire_size(self) -> int:
        return 16 + 16 * len(self.mappings) + 4 * len(self.freed)


class NatTable(ReplicaBase):
    """Per-gateway replica of the cluster's NAT translation table.

    All replicas must be constructed with the same ``port_range``.  Ports
    are assigned lowest-free-first from a deterministic structure, so the
    same total order of ops yields the same table at every gateway.
    """

    SERVICE = "nat-table"
    OP = NatOp
    SNAPSHOT = NatSnapshot

    def __init__(
        self,
        node: RaincoreNode,
        port_range: tuple[int, int] = (30000, 30999),
    ) -> None:
        lo, hi = port_range
        if lo > hi:
            raise ValueError("empty port range")
        self._next_fresh = lo
        self._limit = hi
        self._freed: deque[int] = deque()  # released ports, FIFO reuse
        self._by_flow: dict[int, NatMapping] = {}
        self._by_port: dict[int, int] = {}  # public port -> flow id
        self._callbacks: dict[int, Callable[[NatMapping | None], None]] = {}
        self.allocations = 0
        self.failures = 0  #: pool-exhaustion events observed
        super().__init__(node)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def allocate(
        self,
        flow_id: int,
        client: str,
        on_mapped: Callable[[NatMapping | None], None] | None = None,
    ) -> None:
        """Request a public port for ``flow_id``.

        ``on_mapped`` fires on this gateway when the allocation op is
        delivered: with the :class:`NatMapping` on success, or ``None`` if
        the pool is exhausted at the op's position in the total order.
        """
        if on_mapped is not None:
            self._callbacks[flow_id] = on_mapped
        self.node.multicast(NatOp("alloc", flow_id, client, self.node.node_id))

    def release(self, flow_id: int) -> None:
        """Return ``flow_id``'s port to the pool (connection teardown)."""
        self.node.multicast(NatOp("release", flow_id, "", self.node.node_id))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def translation(self, flow_id: int) -> NatMapping | None:
        return self._by_flow.get(flow_id)

    def flow_on_port(self, public_port: int) -> int | None:
        return self._by_port.get(public_port)

    def size(self) -> int:
        return len(self._by_flow)

    def available(self) -> int:
        fresh = max(0, self._limit - self._next_fresh + 1)
        return fresh + len(self._freed)

    def snapshot(self) -> dict[int, int]:
        """flow id → public port (for replica-agreement checks)."""
        return {fid: m.public_port for fid, m in self._by_flow.items()}

    # ------------------------------------------------------------------
    # ReplicaBase hooks
    # ------------------------------------------------------------------
    def _apply_op(self, op: NatOp) -> None:
        if op.kind == "alloc":
            self._apply_alloc(op)
        elif op.kind == "release":
            self._apply_release(op)

    def _snapshot_payload(self) -> NatSnapshot:
        return NatSnapshot(
            tuple(self._by_flow.values()),
            self._next_fresh,
            tuple(self._freed),
        )

    def _install_snapshot(self, snap: NatSnapshot) -> None:
        self._by_flow = {m.flow_id: m for m in snap.mappings}
        self._by_port = {m.public_port: m.flow_id for m in snap.mappings}
        self._next_fresh = snap.next_fresh
        self._freed = deque(snap.freed)

    # ------------------------------------------------------------------
    # allocator state machine
    # ------------------------------------------------------------------
    def _apply_alloc(self, op: NatOp) -> None:
        if op.flow_id in self._by_flow:
            mapping = self._by_flow[op.flow_id]  # duplicate alloc: idempotent
        else:
            port = self._take_port()
            if port is None:
                self.failures += 1
                if op.requester == self.node.node_id:
                    callback = self._callbacks.pop(op.flow_id, None)
                    if callback is not None:
                        callback(None)
                return
            mapping = NatMapping(op.flow_id, op.client, port, op.requester)
            self._by_flow[op.flow_id] = mapping
            self._by_port[port] = op.flow_id
            self.allocations += 1
        if op.requester == self.node.node_id:
            callback = self._callbacks.pop(op.flow_id, None)
            if callback is not None:
                callback(mapping)

    def _apply_release(self, op: NatOp) -> None:
        mapping = self._by_flow.pop(op.flow_id, None)
        if mapping is None:
            return
        self._by_port.pop(mapping.public_port, None)
        self._freed.append(mapping.public_port)

    def _take_port(self) -> int | None:
        if self._freed:
            return self._freed.popleft()
        if self._next_fresh <= self._limit:
            port = self._next_fresh
            self._next_fresh += 1
            return port
        return None
