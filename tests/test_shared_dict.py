"""Tests for the replicated dictionary (Data Service)."""

import pytest

from repro.data.shared_dict import SharedDict
from tests.conftest import make_cluster

pytestmark = pytest.mark.integration


@pytest.fixture
def dict_cluster():
    c = make_cluster("ABCD")
    sds = {nid: SharedDict(c.node(nid)) for nid in "ABCD"}
    c.start_all()
    return c, sds


def test_set_replicates_everywhere(dict_cluster):
    c, sds = dict_cluster
    sds["A"].set("greeting", "hello")
    c.run(1.0)
    for n in "ABCD":
        assert sds[n].get("greeting") == "hello"


def test_delete_replicates(dict_cluster):
    c, sds = dict_cluster
    sds["A"].set("k", 1)
    c.run(1.0)
    sds["C"].delete("k")
    c.run(1.0)
    for n in "ABCD":
        assert "k" not in sds[n]


def test_concurrent_writes_converge(dict_cluster):
    """Two nodes write the same key concurrently: everyone converges to
    the same winner (the one ordered last by the token)."""
    c, sds = dict_cluster
    sds["B"].set("k", "from-B")
    sds["D"].set("k", "from-D")
    c.run(1.0)
    values = {sds[n].get("k") for n in "ABCD"}
    assert len(values) == 1
    assert values.pop() in {"from-B", "from-D"}


def test_replicas_identical_after_mixed_ops(dict_cluster):
    c, sds = dict_cluster
    for i in range(20):
        nid = "ABCD"[i % 4]
        if i % 5 == 4:
            sds[nid].delete(f"k{i % 3}")
        else:
            sds[nid].set(f"k{i % 3}", i)
    c.run(2.0)
    snaps = [sds[n].snapshot() for n in "ABCD"]
    assert all(s == snaps[0] for s in snaps)
    versions = {sds[n].version for n in "ABCD"}
    assert len(versions) == 1


def test_local_reads_and_dunder(dict_cluster):
    c, sds = dict_cluster
    sds["A"].set("x", 1)
    sds["A"].set("y", 2)
    c.run(1.0)
    d = sds["B"]
    assert len(d) == 2
    assert list(d.keys()) == ["x", "y"]
    assert d.get("missing", "dflt") == "dflt"


def test_joiner_receives_state_transfer():
    c = make_cluster("ABC")
    sds = {nid: SharedDict(c.node(nid)) for nid in "ABC"}
    c.node("A").start_new_group()
    c.run_until_converged(2.0, expected={"A"})
    sds["A"].set("pre", "existing")
    c.run(0.5)
    c.node("B").start_joining(["A"])
    c.run_until_converged(5.0, expected={"A", "B"})
    c.run(1.0)
    assert sds["B"].synced
    assert sds["B"].get("pre") == "existing"
    # And the late joiner too, transferred by the lowest-id member.
    c.node("C").start_joining(["B"])
    c.run_until_converged(5.0, expected={"A", "B", "C"})
    c.run(1.0)
    assert sds["C"].synced
    assert sds["C"].snapshot() == sds["A"].snapshot()


def test_crashed_member_resyncs_on_rejoin(dict_cluster):
    c, sds = dict_cluster
    sds["A"].set("k", "v0")
    c.run(1.0)
    c.faults.crash_node("D")
    c.run_until_converged(3.0, expected={"A", "B", "C"})
    sds["B"].set("k", "v1")  # D misses this
    sds["B"].set("new", True)
    c.run(1.0)
    c.faults.recover_node("D")
    c.run_until_converged(6.0, expected=set("ABCD"))
    c.run(1.5)
    assert sds["D"].get("k") == "v1"
    assert sds["D"].get("new") is True
    assert sds["D"].snapshot() == sds["A"].snapshot()


def test_merge_reconciles_to_lower_group_state(dict_cluster):
    """After a split-brain, the healed cluster converges on the lower-
    group-id partition's state for conflicting keys."""
    c, sds = dict_cluster
    sds["A"].set("stable", 1)
    c.run(1.0)
    c.faults.partition(["A", "B"], ["C", "D"])
    c.run(3.0)
    sds["A"].set("conflict", "AB-side")
    sds["C"].set("conflict", "CD-side")
    sds["C"].set("cd-only", True)
    c.run(2.0)
    c.faults.heal_partition()
    assert c.run_until_converged(12.0, expected=set("ABCD"))
    c.run(2.0)
    snaps = [sds[n].snapshot() for n in "ABCD"]
    assert all(s == snaps[0] for s in snaps)
    assert snaps[0]["conflict"] == "AB-side"  # lower group id wins
    assert snaps[0]["stable"] == 1


def test_writes_during_convergence_not_lost(dict_cluster):
    c, sds = dict_cluster
    c.faults.crash_node("C")
    # Write immediately, while the membership is still reacting.
    sds["A"].set("during", "churn")
    c.run(5.0)
    for n in "ABD":
        assert sds[n].get("during") == "churn"


def test_replicas_never_share_a_mutable_value():
    """Regression: a container value was one object held by the writer and
    every replica, so mutating it outside the multicast changed (or, over
    real UDP, split) the replicas.  Each replica now holds its own copy, and
    neither the writer's object nor a ``get`` result reaches one."""
    c = make_cluster("ABC")
    sds = {nid: SharedDict(c.node(nid)) for nid in "ABC"}
    c.node("A").start_new_group()
    c.run_until_converged(2.0, expected={"A"})
    value = [1, {"nested": [2]}]
    sds["A"].set("k", value)
    c.run(0.5)
    c.node("B").start_joining(["A"])  # B takes its copy by state transfer
    c.run_until_converged(5.0, expected={"A", "B"})
    c.node("C").start_joining(["A"])
    c.run_until_converged(5.0, expected={"A", "B", "C"})
    c.run(1.0)
    assert all(sds[n].synced for n in "ABC")
    value.append(3)
    value[1]["nested"].append(4)
    sds["B"].get("k").append(99)
    sds["C"].snapshot()["k"][1]["nested"].clear()
    for n in "ABC":
        assert sds[n].get("k") == [1, {"nested": [2]}], n
    assert len({id(sds[n]._state["k"]) for n in "ABC"}) == 3
    # Immutable values are shared as they are: one type test, no copy.
    text = "x" * 64
    sds["A"].set("s", text)
    c.run(0.5)
    assert all(sds[n].get("s") is text for n in "ABC")
