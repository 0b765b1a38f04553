"""Tests for the benchmark channel adapters and the asyncio scheduler."""

import asyncio

from repro.baselines import RaincoreChannel
from repro.runtime import AsyncioScheduler
from tests.conftest import make_cluster


# ----------------------------------------------------------------------
# RaincoreChannel: the GroupChannel adapter used by the benchmarks
# ----------------------------------------------------------------------
def test_raincore_channel_multicast_and_deliver():
    cluster = make_cluster("ABC")
    cluster.start_all()
    channels = RaincoreChannel.cluster(cluster)
    got = {nid: [] for nid in "ABC"}
    for nid in "ABC":
        channels[nid].set_deliver(lambda o, p, nid=nid: got[nid].append((o, p)))
    channels["B"].multicast("via-channel", size=50)
    cluster.run(1.0)
    for nid in "ABC":
        assert got[nid] == [("B", "via-channel")]


def test_raincore_channel_idempotent_wrapping():
    cluster = make_cluster("AB")
    cluster.start_all()
    ch1 = RaincoreChannel(cluster.node("A"))
    ch2 = RaincoreChannel(cluster.node("A"))
    got = []
    ch2.set_deliver(lambda o, p: got.append(p))
    ch1.multicast("x")
    cluster.run(1.0)
    assert got == ["x"]


# ----------------------------------------------------------------------
# AsyncioScheduler
# ----------------------------------------------------------------------
def test_scheduler_call_later_and_cancel():
    async def scenario():
        sched = AsyncioScheduler(asyncio.get_running_loop(), seed=3)
        fired = []
        sched.call_later(0.01, fired.append, "a")
        handle = sched.call_later(0.01, fired.append, "b")
        handle.cancel()
        await asyncio.sleep(0.05)
        assert fired == ["a"]

    asyncio.run(scenario())


def test_scheduler_now_advances():
    async def scenario():
        sched = AsyncioScheduler(asyncio.get_running_loop())
        t0 = sched.now
        await asyncio.sleep(0.02)
        assert sched.now >= t0 + 0.015

    asyncio.run(scenario())


def test_scheduler_rng_seeded():
    async def scenario():
        a = AsyncioScheduler(asyncio.get_running_loop(), seed=9)
        b = AsyncioScheduler(asyncio.get_running_loop(), seed=9)
        assert [a.rng.random() for _ in range(3)] == [
            b.rng.random() for _ in range(3)
        ]

    asyncio.run(scenario())


def test_scheduler_call_at():
    async def scenario():
        sched = AsyncioScheduler(asyncio.get_running_loop())
        fired = []
        sched.call_at(sched.now + 0.01, fired.append, 1)
        await asyncio.sleep(0.05)
        assert fired == [1]

    asyncio.run(scenario())
