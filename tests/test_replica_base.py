"""Tests for the Data Service replica discipline (repro.data.replica)."""

from dataclasses import dataclass, field

import pytest

from repro.data import SharedDict
from repro.data.replica import ReplicaBase
from repro.data.resync import chain_identity
from tests.conftest import make_cluster

pytestmark = pytest.mark.integration


def test_singleton_self_sync():
    """A founding singleton replica is synced from the first view."""
    c = make_cluster("A")
    d = SharedDict(c.node("A"))
    c.start_all()
    assert d.synced
    d.set("k", 1)
    c.run(0.5)
    assert d.get("k") == 1


def test_partitioned_away_unsynced_member_self_syncs_as_singleton():
    """A member stranded unsynced that becomes a singleton group declares
    its own (empty) state authoritative for that group."""
    c = make_cluster("ABC")
    dicts = {nid: SharedDict(c.node(nid)) for nid in "ABC"}
    c.start_all()
    # Force C unsynced artificially to model the formation race.
    dicts["C"]._synced = False
    c.faults.partition(["A", "B"], ["C"])
    c.run(3.0)
    assert dicts["C"].synced  # singleton self-sync
    c.faults.heal_partition()
    assert c.run_until_converged(15.0, expected=set("ABC"))
    c.run(3.0)
    snaps = [dicts[n].snapshot() for n in "ABC"]
    assert all(s == snaps[0] for s in snaps)


def test_sync_request_heals_stranded_member():
    """An unsynced member in a stable (no-growth) group gets synced via the
    SyncRequest path — growth snapshots alone would never fire."""
    c = make_cluster("ABCD")
    dicts = {nid: SharedDict(c.node(nid)) for nid in "ABCD"}
    c.start_all()
    dicts["A"].set("k", "v")
    c.run(1.0)
    # Artificially strand C: full amnesia (state, log and chain), as a
    # corrupted-journal restart would leave it.
    dicts["C"].forget()
    dicts["C"]._state = {}
    dicts["C"]._arm_sync_timer()
    c.run(5.0)  # no membership changes at all
    assert dicts["C"].synced
    assert dicts["C"].get("k") == "v"


def test_all_unsynced_group_self_declares_min():
    """If no member has history, the minimum-id member's local state
    becomes authoritative after bounded requests."""
    c = make_cluster("AB")
    dicts = {nid: SharedDict(c.node(nid)) for nid in "AB"}
    c.start_all()
    # Strand both; give them different local states.
    for nid, state in (("A", {"x": "from-A"}), ("B", {"x": "from-B"})):
        dicts[nid]._synced = False
        dicts[nid]._state = dict(state)
        dicts[nid]._arm_sync_timer()
    c.run(15.0)
    assert dicts["A"].synced and dicts["B"].synced
    # Deterministic winner: the minimum id (A).
    assert dicts["A"].snapshot() == dicts["B"].snapshot() == {"x": "from-A"}


def test_sync_requests_are_service_scoped():
    """A NAT table's sync request must not be answered with dict snapshots."""
    from repro.apps.nat import NatTable

    c = make_cluster("AB")
    d = {nid: SharedDict(c.node(nid)) for nid in "AB"}
    n = {nid: NatTable(c.node(nid)) for nid in "AB"}
    c.start_all()
    d["A"].set("k", 1)
    n["A"].allocate(1, "c1")
    c.run(1.0)
    # Strand B's NAT replica only: full amnesia back to construction state.
    from collections import deque

    n["B"].forget()
    n["B"]._by_flow = {}
    n["B"]._by_port = {}
    n["B"]._next_fresh = 30000
    n["B"]._freed = deque()
    n["B"]._arm_sync_timer()
    c.run(5.0)
    assert n["B"].synced
    assert n["B"].snapshot() == n["A"].snapshot()
    assert d["B"].get("k") == 1  # dict replica untouched throughout


def test_sync_timer_cancelled_on_view_departure():
    """Regression: back-to-back view changes that drop this node from the
    view must cancel an armed sync timer — a stale timer would fire after
    departure and multicast sync requests into a group we left."""
    from repro.core.events import ViewChange

    c = make_cluster("ABC")
    dicts = {nid: SharedDict(c.node(nid)) for nid in "ABC"}
    c.start_all()
    rb = dicts["C"]
    rb._synced = False
    rb._sync_requests_sent = 2
    rb._arm_sync_timer()
    assert rb._sync_timer is not None
    rb.on_view_change(ViewChange(9, ("A", "B"), c.loop.now))
    assert rb._sync_timer is None
    assert rb._sync_requests_sent == 0


def test_replica_requires_service_name():
    c = make_cluster("AB")
    with pytest.raises(TypeError):
        ReplicaBase(c.node("A"))


# ----------------------------------------------------------------------
# the subclass contract: SERVICE, OP, SNAPSHOT and three hooks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Bump:
    """A counter op: its size and chain identity are fixed when built."""

    amount: int
    size: int = field(init=False, repr=False, compare=False)
    identity: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", 8)
        object.__setattr__(self, "identity", chain_identity(self, 8))


@dataclass(frozen=True)
class Total:
    value: int


class Counter(ReplicaBase):
    """The smallest replica: a replicated integer."""

    SERVICE = "counter"
    OP = Bump
    SNAPSHOT = Total

    def __init__(self, node) -> None:
        self.total = 0
        super().__init__(node)

    def bump(self, amount: int) -> None:
        self.node.multicast(Bump(amount))

    def _apply_op(self, op: Bump) -> None:
        self.total += op.amount

    def _snapshot_payload(self) -> Total:
        return Total(self.total)

    def _install_snapshot(self, snap: Total) -> None:
        self.total = snap.value


@pytest.mark.parametrize("missing", ["OP", "SNAPSHOT"])
def test_replica_requires_op_and_snapshot_types(missing):
    incomplete = type("Incomplete", (Counter,), {missing: None})
    c = make_cluster("AB")
    with pytest.raises(TypeError, match="OP and SNAPSHOT"):
        incomplete(c.node("A"))


def test_a_replica_applies_only_its_own_op_type():
    """Two services on one ring: each routes by its ``OP`` type, logs only
    its own ops and resyncs a stranded replica by its own ``SNAPSHOT``."""
    c = make_cluster("ABC")
    counters = {nid: Counter(c.node(nid)) for nid in "ABC"}
    dicts = {nid: SharedDict(c.node(nid)) for nid in "ABC"}
    c.start_all()
    for amount in (1, 2, 3):
        counters["A"].bump(amount)
    dicts["B"].set("k", 1)
    c.run(1.0)
    assert [counters[n].total for n in "ABC"] == [6, 6, 6]
    assert [counters[n].applied_seq for n in "ABC"] == [3, 3, 3]
    assert all(dicts[n].applied_seq == 1 for n in "ABC")
    counters["C"].forget()
    counters["C"].total = 0
    counters["C"]._arm_sync_timer()
    c.run(5.0)
    assert counters["C"].synced and counters["C"].total == 6
    assert dicts["C"].get("k") == 1
