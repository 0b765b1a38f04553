"""Property-based tests for the Data Service replicated state machines.

The invariant behind all of them: because every replica applies the same
agreed-ordered operation stream, any deterministic state machine driven by
deliveries alone stays identical across replicas — under arbitrary op
schedules and even across membership churn (thanks to the ordered purge
pattern).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.harness import RaincoreCluster
from repro.data import DistributedLockManager, SharedDict

NODES = ["A", "B", "C", "D"]


def build_cluster(seed, service_factory):
    cluster = RaincoreCluster(NODES, seed=seed)
    services = {nid: service_factory(cluster.node(nid)) for nid in NODES}
    cluster.start_all()
    return cluster, services


dict_ops = st.lists(
    st.tuples(
        st.integers(0, 3),  # acting node
        st.sampled_from(["set", "del"]),
        st.sampled_from(["k1", "k2", "k3"]),
        st.integers(0, 100),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=dict_ops, seed=st.integers(0, 2**16))
def test_shared_dict_replicas_always_converge(ops, seed):
    cluster, dicts = build_cluster(seed, SharedDict)
    for node_idx, kind, key, value in ops:
        nid = NODES[node_idx]
        if kind == "set":
            dicts[nid].set(key, value)
        else:
            dicts[nid].delete(key)
    cluster.run(3.0)
    snaps = [dicts[nid].snapshot() for nid in NODES]
    assert all(s == snaps[0] for s in snaps)
    versions = {dicts[nid].version for nid in NODES}
    assert len(versions) == 1


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    ops=dict_ops,
    seed=st.integers(0, 2**16),
    crash_idx=st.integers(0, 3),
    crash_after=st.integers(0, 10),
)
def test_shared_dict_survivors_converge_despite_crash(ops, seed, crash_idx, crash_after):
    cluster, dicts = build_cluster(seed, SharedDict)
    victim = NODES[crash_idx]
    for i, (node_idx, kind, key, value) in enumerate(ops):
        if i == crash_after:
            cluster.faults.crash_node(victim)
        nid = NODES[node_idx]
        if nid == victim and i >= crash_after:
            continue
        if kind == "set":
            dicts[nid].set(key, value)
        else:
            dicts[nid].delete(key)
    cluster.run(6.0)
    survivors = [n for n in NODES if n != victim]
    snaps = [dicts[nid].snapshot() for nid in survivors]
    assert all(s == snaps[0] for s in snaps)


lock_schedules = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from(["acquire", "release"])),
    min_size=1,
    max_size=20,
)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(schedule=lock_schedules, seed=st.integers(0, 2**16))
def test_lock_tables_identical_and_owner_unique(schedule, seed):
    cluster, lms = build_cluster(seed, DistributedLockManager)
    holding: dict[str, bool] = {nid: False for nid in NODES}
    for node_idx, action in schedule:
        nid = NODES[node_idx]
        if action == "acquire" and not holding[nid]:
            lms[nid].acquire("L")
            holding[nid] = True
        elif action == "release" and holding[nid]:
            lms[nid].release("L")
            holding[nid] = False
        cluster.run(0.1)
    cluster.run(3.0)
    owners = {lms[nid].owner("L") for nid in NODES}
    assert len(owners) == 1  # all replicas agree (possibly None)
    owner = owners.pop()
    if owner is not None:
        # Exactly the nodes still logically holding can be the owner.
        assert holding[owner]
