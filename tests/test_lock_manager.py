"""Tests for the distributed lock manager (Data Service, paper §2.7)."""

import pytest

from repro.data.lock_manager import DistributedLockManager
from tests.conftest import make_cluster

pytestmark = pytest.mark.integration


@pytest.fixture
def locked_cluster():
    c = make_cluster("ABCD")
    lms = {nid: DistributedLockManager(c.node(nid)) for nid in "ABCD"}
    c.start_all()
    return c, lms


def test_single_acquire_grants(locked_cluster):
    c, lms = locked_cluster
    granted = []
    lms["A"].acquire("db", on_granted=lambda: granted.append("A"))
    c.run(1.0)
    assert granted == ["A"]
    assert lms["A"].owns("db")


def test_all_replicas_agree_on_owner(locked_cluster):
    c, lms = locked_cluster
    lms["B"].acquire("db")
    c.run(1.0)
    assert {lms[n].owner("db") for n in "ABCD"} == {"B"}


def test_contended_lock_granted_exclusively(locked_cluster):
    c, lms = locked_cluster
    granted = []
    for nid in "ABCD":
        lms[nid].acquire("hot", on_granted=lambda nid=nid: granted.append(nid))
    c.run(1.0)
    assert len(granted) == 1
    owner = granted[0]
    waiters = lms[owner].waiters("hot")
    assert sorted(waiters + [owner]) == list("ABCD")


def test_release_promotes_next_waiter_fifo(locked_cluster):
    c, lms = locked_cluster
    granted = []
    for nid in "ABCD":
        lms[nid].acquire("q", on_granted=lambda nid=nid: granted.append(nid))
    c.run(1.0)
    # Release around the whole queue: everyone is granted exactly once, in
    # the replicated FIFO order.
    for _ in range(3):
        lms[granted[-1]].release("q")
        c.run(1.0)
    assert sorted(granted) == list("ABCD")
    # Replicas agree at every step (checked implicitly by grant uniqueness).
    assert len(set(granted)) == 4


def test_reacquire_after_release(locked_cluster):
    c, lms = locked_cluster
    lms["A"].acquire("x")
    c.run(1.0)
    lms["A"].release("x")
    c.run(1.0)
    granted = []
    lms["A"].acquire("x", on_granted=lambda: granted.append("again"))
    c.run(1.0)
    assert granted == ["again"]


def test_double_acquire_rejected(locked_cluster):
    c, lms = locked_cluster
    lms["A"].acquire("x")
    with pytest.raises(RuntimeError):
        lms["A"].acquire("x")


def test_release_without_hold_rejected(locked_cluster):
    c, lms = locked_cluster
    with pytest.raises(RuntimeError):
        lms["A"].release("nothing")


def test_queued_request_can_be_withdrawn(locked_cluster):
    c, lms = locked_cluster
    lms["A"].acquire("x")
    c.run(1.0)
    granted = []
    lms["B"].acquire("x", on_granted=lambda: granted.append("B"))
    lms["C"].acquire("x", on_granted=lambda: granted.append("C"))
    c.run(1.0)
    # B withdraws while queued; on A's release, C must be promoted.
    lms["B"].release("x")
    c.run(1.0)
    lms["A"].release("x")
    c.run(1.0)
    assert granted == ["C"]
    assert {lms[n].owner("x") for n in "ABCD"} == {"C"}


def test_owner_crash_releases_lock(locked_cluster):
    c, lms = locked_cluster
    granted = []
    lms["B"].acquire("x", on_granted=lambda: granted.append("B"))
    lms["C"].acquire("x", on_granted=lambda: granted.append("C"))
    c.run(1.0)
    owner = lms["A"].owner("x")
    assert granted == [owner]
    waiter = "C" if owner == "B" else "B"
    c.faults.crash_node(owner)
    c.run(4.0)
    survivors = [n for n in "ABCD" if n != owner]
    owners = {lms[n].owner("x") for n in survivors}
    assert owners == {waiter}
    # The purge hands the lock on: the promoted waiter hears its grant.
    assert granted == [owner, waiter]


def test_crash_of_waiter_cleans_queue(locked_cluster):
    c, lms = locked_cluster
    lms["A"].acquire("x")
    c.run(1.0)
    lms["D"].acquire("x")
    c.run(1.0)
    c.faults.crash_node("D")
    c.run(4.0)
    for n in "ABC":
        assert lms[n].waiters("x") == []
        assert lms[n].owner("x") == "A"


def test_locks_held_without_eating(locked_cluster):
    """The paper's key contrast with the master-lock: a data lock is held
    while the node keeps cycling through HUNGRY like everyone else."""
    c, lms = locked_cluster
    lms["A"].acquire("x")
    c.run(1.0)
    eating_count = 0
    for _ in range(100):
        c.run(0.005)
        assert lms["A"].owns("x")
        if not c.node("A").is_eating:
            eating_count += 1
    assert eating_count > 0  # A was HUNGRY at some sampled instants


def test_many_locks_independent(locked_cluster):
    c, lms = locked_cluster
    lms["A"].acquire("l1")
    lms["B"].acquire("l2")
    lms["C"].acquire("l3")
    c.run(1.0)
    table = lms["D"].table()
    assert table == {"l1": "A", "l2": "B", "l3": "C"}


def test_tables_identical_across_replicas(locked_cluster):
    c, lms = locked_cluster
    for i, nid in enumerate("ABCDABCD"):
        lms[nid].acquire(f"lock{i}")
    c.run(1.5)
    tables = [lms[n].table() for n in "ABCD"]
    assert all(t == tables[0] for t in tables)
