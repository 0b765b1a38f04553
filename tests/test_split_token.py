"""The hardest failure mode: a duplicate token born from ack loss.

When every ack of a *successfully delivered* token forward is lost, the
sender's transport reports failure-on-delivery even though the receiver
took the token.  The sender then repairs the ring and re-accepts its local
copy — two token branches exist transiently.  The session layer's
strictly-greater sequence guard makes the branches collide at the first
node that has seen the newer one, where the stale branch dies; the
wrongly-removed node rejoins via 911 (a failure-detector false alarm,
paper §2.3).

These tests manufacture the scenario deterministically with the canned
``FaultInjector.ack_blackout`` drop rule and verify the healing end to
end.
"""

import pytest

from repro.transport.messages import AckFrame
from tests.conftest import make_cluster

pytestmark = pytest.mark.integration


def run_split_scenario(seed):
    cluster = make_cluster("ABCD", seed=seed)
    cluster.start_all()
    for i in range(4):
        cluster.node("ABCD"[i]).multicast(f"pre-{i}")
    cluster.run(0.5)
    # B's acks to A vanish: A's forwards to B "fail" while B proceeds.
    blackout = (
        cluster.config.transport.failure_detection_bound(1) * 3
    )
    cluster.faults.ack_blackout("B", "A", blackout)
    for i in range(4):
        cluster.node("ABCD"[i]).multicast(f"mid-{i}")
    cluster.run(blackout + 1.0)
    cluster.run(6.0)
    return cluster


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_ack_blackout_heals_completely(seed):
    cluster = run_split_scenario(seed)
    assert cluster.run_until_converged(10.0, expected=set("ABCD")), (
        cluster.membership_views()
    )


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_ack_blackout_no_duplicate_deliveries(seed):
    cluster = run_split_scenario(seed)
    for nid in "ABCD":
        keys = cluster.listener(nid).delivery_keys
        assert len(keys) == len(set(keys)), f"{nid} delivered duplicates"


@pytest.mark.parametrize("seed", [3, 17])
def test_ack_blackout_orders_stay_consistent(seed):
    from repro.metrics.analysis import prefix_consistency_violations

    cluster = run_split_scenario(seed)
    assert prefix_consistency_violations(cluster.all_delivery_orders()) == []


def test_ack_blackout_single_token_after_heal():
    cluster = run_split_scenario(seed=3)
    cluster.run_until_converged(10.0, expected=set("ABCD"))
    # Sampled uniqueness after quiescence.
    for _ in range(300):
        cluster.run(0.002)
        assert len(cluster.token_holders()) <= 1


def test_filter_hook_is_surgical():
    """A drop rule drops exactly what it matches, nothing else."""
    cluster = make_cluster("AB")
    cluster.start_all()
    dropped = []

    def spy(packet):
        if isinstance(packet.payload, AckFrame):
            dropped.append(packet)
            return True
        return False

    before = cluster.network.packets_dropped
    handle = cluster.faults.drop_matching(spy)
    cluster.run(0.2)
    cluster.faults.stop_dropping(handle)
    assert dropped  # acks were flowing and got dropped
    assert cluster.network.packets_dropped >= before + len(dropped)
    # The ring survives ack loss alone (tokens kept arriving, dedup+re-ack
    # handles the rest once the filter lifts).
    assert cluster.run_until_converged(8.0, expected={"A", "B"})
