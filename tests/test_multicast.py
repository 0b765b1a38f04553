"""Tests for reliable atomic multicast with consistent ordering (paper §2.6).

Covers the three advertised properties: reliability (all live members get
each message), atomicity under failures, and agreed/safe consistent
ordering — plus the bookkeeping edge cases (batch limits, duplicates,
self-delivery, singleton groups).
"""

import pytest

from repro.core.token import Ordering
from tests.conftest import make_cluster

pytestmark = pytest.mark.integration


def wait_deliveries(cluster, min_per_node, budget=5.0):
    deadline = cluster.loop.now + budget
    while cluster.loop.now < deadline:
        cluster.run(0.05)
        if all(
            len(cn.listener.deliveries) >= min_per_node
            for cn in cluster.nodes.values()
            if cn.node.state.value != "down"
        ):
            return True
    return False


# ----------------------------------------------------------------------
# reliability
# ----------------------------------------------------------------------
def test_every_member_delivers(abcd):
    abcd.node("A").multicast("hello")
    assert wait_deliveries(abcd, 1)
    for nid in "ABCD":
        assert abcd.listener(nid).delivered_payloads == ["hello"]


def test_originator_also_delivers_to_itself(abcd):
    abcd.node("B").multicast("self-inclusive")
    assert wait_deliveries(abcd, 1)
    assert abcd.listener("B").delivered_payloads == ["self-inclusive"]


def test_many_messages_from_many_origins(abcd):
    sent = []
    for i in range(5):
        for nid in "ABCD":
            abcd.node(nid).multicast(f"{nid}-{i}")
            sent.append(f"{nid}-{i}")
    assert wait_deliveries(abcd, 20)
    for nid in "ABCD":
        assert sorted(abcd.listener(nid).delivered_payloads) == sorted(sent)


def test_no_duplicate_deliveries(abcd):
    for i in range(10):
        abcd.node("A").multicast(f"m{i}")
    wait_deliveries(abcd, 10)
    abcd.run(2.0)  # extra rounds must not re-deliver
    for nid in "ABCD":
        keys = abcd.listener(nid).delivery_keys
        assert len(keys) == len(set(keys)) == 10


def test_messages_retire_from_token(abcd):
    abcd.node("A").multicast("x")
    wait_deliveries(abcd, 1)
    abcd.run(1.0)
    # The token must not keep retired messages (unbounded growth otherwise).
    for node in abcd.live_nodes():
        copy = node.local_copy
        assert copy is not None and len(copy.messages) == 0


def test_per_origin_msg_numbers_increase(abcd):
    ids = [abcd.node("A").multicast(f"m{i}") for i in range(3)]
    assert [msg_no for _, msg_no in ids] == [1, 2, 3]


# ----------------------------------------------------------------------
# agreed ordering (paper: "no extra cost")
# ----------------------------------------------------------------------
def test_agreed_ordering_identical_at_all_nodes(abcd):
    for i in range(8):
        for nid in "ABCD":
            abcd.node(nid).multicast(f"{nid}{i}")
    assert wait_deliveries(abcd, 32)
    orders = list(abcd.all_delivery_orders().values())
    assert all(o == orders[0] for o in orders[1:])


def test_per_origin_fifo(abcd):
    for i in range(10):
        abcd.node("C").multicast(i)
    assert wait_deliveries(abcd, 10)
    for nid in "ABCD":
        from_c = [d.payload for d in abcd.listener(nid).deliveries if d.origin == "C"]
        assert from_c == list(range(10))


# ----------------------------------------------------------------------
# safe ordering (paper: "travels one more round")
# ----------------------------------------------------------------------
def test_safe_message_delivered_everywhere(abcd):
    abcd.node("A").multicast("safe", ordering=Ordering.SAFE)
    assert wait_deliveries(abcd, 1)
    for nid in "ABCD":
        assert abcd.listener(nid).delivered_payloads == ["safe"]
        assert abcd.listener(nid).deliveries[0].ordering is Ordering.SAFE


def test_safe_costs_about_one_extra_round(abcd):
    """Measure delivery spread: safe completes within ~2 ring rounds."""
    t0 = abcd.loop.now
    abcd.node("A").multicast("safe", ordering=Ordering.SAFE)
    wait_deliveries(abcd, 1)
    last = max(
        cn.listener.deliveries[0].at for cn in abcd.nodes.values()
    )
    rounds = (last - t0) / (4 * abcd.config.hop_interval)
    assert rounds < 3.5  # ~2 rounds plus scheduling slack


def test_safe_delivered_later_than_agreed(abcd):
    """An agreed message sent at the same time arrives strictly earlier at
    the farthest node."""
    abcd.node("A").multicast("agreed", ordering=Ordering.AGREED)
    abcd.node("A").multicast("safe", ordering=Ordering.SAFE)
    assert wait_deliveries(abcd, 2)
    for nid in "BCD":
        deliveries = {d.payload: d.at for d in abcd.listener(nid).deliveries}
        assert deliveries["agreed"] <= deliveries["safe"]


def test_mixed_safe_agreed_same_total_order(abcd):
    import itertools
    orderings = itertools.cycle([Ordering.AGREED, Ordering.SAFE])
    for i, nid in enumerate("ABCDABCD"):
        abcd.node(nid).multicast(f"{nid}{i}", ordering=next(orderings))
    assert wait_deliveries(abcd, 8)
    orders = list(abcd.all_delivery_orders().values())
    assert all(o == orders[0] for o in orders[1:])


def test_safe_singleton_group():
    c = make_cluster("A")
    c.start_all()
    c.node("A").multicast("solo-safe", ordering=Ordering.SAFE)
    c.run(1.0)
    assert c.listener("A").delivered_payloads == ["solo-safe"]


# ----------------------------------------------------------------------
# atomicity under failures (paper: all-or-nothing per surviving audience)
# ----------------------------------------------------------------------
def test_atomic_despite_mid_flight_crash():
    c = make_cluster("ABCD")
    c.start_all()
    c.node("A").multicast("atomic")
    # Crash B almost immediately: whatever happens, every *surviving*
    # member must deliver (the token retransmits around the failure).
    c.run(0.001)
    c.faults.crash_node("B")
    c.run(5.0)
    for nid in "ACD":
        assert c.listener(nid).delivered_payloads == ["atomic"]


def test_atomicity_sweep_over_crash_times():
    """Crash a member at many offsets; survivors always deliver exactly once."""
    for offset_ms in (0, 3, 7, 12, 18, 25, 33, 41):
        c = make_cluster("ABCD", seed=offset_ms)
        c.start_all()
        c.node("A").multicast("payload")
        c.run(offset_ms / 1000.0)
        c.faults.crash_node("C")
        c.run(5.0)
        for nid in "ABD":
            assert c.listener(nid).delivered_payloads == ["payload"], (
                f"offset {offset_ms}ms: node {nid} saw "
                f"{c.listener(nid).delivered_payloads}"
            )


def test_joiner_does_not_receive_pre_join_messages():
    """Audience is fixed at attach time: late joiners miss old messages."""
    c = make_cluster("ABC")
    first, *rest = "ABC"
    c.node(first).start_new_group()
    c.run_until_converged(2.0, expected={"A"})
    c.node("A").multicast("pre-join")
    c.run(1.0)
    c.node("B").start_joining(["A"])
    c.node("C").start_joining(["A"])
    assert c.run_until_converged(5.0, expected={"A", "B", "C"})
    c.node("A").multicast("post-join")
    c.run(2.0)
    assert c.listener("A").delivered_payloads == ["pre-join", "post-join"]
    assert c.listener("B").delivered_payloads == ["post-join"]
    assert c.listener("C").delivered_payloads == ["post-join"]


# ----------------------------------------------------------------------
# batching
# ----------------------------------------------------------------------
def test_batch_limit_bounds_token_growth():
    from repro.core.config import RaincoreConfig

    cfg = RaincoreConfig.tuned(ring_size=2, max_batch_per_visit=3)
    c = make_cluster("AB", config=cfg)
    c.start_all()
    for i in range(10):
        c.node("A").multicast(i)
    assert c.node("A").multicast_service.outbox_depth() == 10
    c.run(5.0)
    # All eventually delivered despite the per-visit cap.
    assert [d.payload for d in c.listener("B").deliveries] == list(range(10))


def test_payload_size_defaults():
    c = make_cluster("AB")
    c.start_all()
    svc = c.node("A").multicast_service
    svc.multicast(b"12345")          # sized payload -> len()
    svc.multicast(12345)             # unsized -> default
    assert svc._outbox[0].size == 5
    assert svc._outbox[1].size == 64
    with pytest.raises(ValueError):
        svc.multicast("x", size=-1)


def _parent_size(payload) -> int:
    """How ``multicast`` sized a payload by calling ``len()`` and catching
    its TypeError."""
    try:
        return len(payload)
    except TypeError:
        return 64


def test_payload_sizes_match_len_with_its_typeerror_caught():
    from repro.core.multicast import DeferredPayload
    from repro.data.lock_manager import LockOp
    from repro.data.resync import ResyncAck
    from repro.data.shared_dict import DictOp

    c = make_cluster("AB")
    c.start_all()
    svc = c.node("A").multicast_service
    payloads = [
        b"", b"12345", bytearray(3), "", "héllo", (), (1, 2, 3), [4, 5], {"k": 1},
        frozenset("ab"), range(7), object(), 12345, 1.5, None, True,
        DictOp("set", "k", 1), LockOp("acquire", "db", "A", 1),
        ResyncAck("dict", "A", 3, "d"), DeferredPayload(lambda: (b"x", 1)),
    ]
    for payload in payloads:
        svc.multicast(payload)
    assert [m.size for m in svc._outbox] == [_parent_size(p) for p in payloads]


def _c_exceptions(action, code) -> int:
    """Exceptions raised by builtins called from frames of ``code`` while
    ``action`` runs."""
    import sys

    raised = 0

    def profile(frame, event, arg) -> None:
        nonlocal raised
        if event == "c_exception" and frame.f_code is code:
            raised += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return raised


def test_sizing_a_data_layer_op_raises_nothing():
    """A ``SharedDict.set`` and a lock acquire multicast ops with no
    length: sizing them is a type test, not a raised-and-caught
    TypeError."""
    from repro.core.multicast import MulticastService
    from repro.data.lock_manager import DistributedLockManager
    from repro.data.shared_dict import SharedDict

    c = make_cluster("AB")
    sd = SharedDict(c.node("A"))
    locks = DistributedLockManager(c.node("A"))
    c.start_all()
    outbox = c.node("A").multicast_service._outbox
    before = len(outbox)
    multicast = MulticastService.multicast.__code__
    assert _c_exceptions(lambda: sd.set("k", 1), multicast) == 0
    assert _c_exceptions(lambda: locks.acquire("db"), multicast) == 0
    assert len(outbox) == before + 2  # both calls did multicast
    # The count sees the len()-and-catch way raise, once per op.
    for msg in list(outbox)[before:]:
        assert _c_exceptions(lambda: _parent_size(msg.payload), _parent_size.__code__) == 1
