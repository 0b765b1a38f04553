"""End-to-end tests of the asyncio/real-UDP runtime.

These run the *identical* protocol code as every other test, but over real
UDP sockets on 127.0.0.1 driven by wall-clock timers.  They are marked
``slow`` because they genuinely wait for packets.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import RaincoreConfig
from repro.core.events import RecordingListener
from repro.core.session import RaincoreNode
from repro.core.states import NodeState
from repro.runtime import AsyncioScheduler, UdpFabric
from repro.transport.reliable import TransportConfig

pytestmark = [pytest.mark.integration, pytest.mark.slow]

BASE_PORT = 39100


def build(node_ids, base_port):
    fabric = UdpFabric({nid: base_port + i for i, nid in enumerate(node_ids)})
    scheduler = AsyncioScheduler(asyncio.get_running_loop(), seed=1)
    config = RaincoreConfig.tuned(
        ring_size=len(node_ids),
        hop_interval=0.02,
        transport=TransportConfig(retx_timeout=0.05),
    )
    nodes = {}
    for nid in node_ids:
        listener = RecordingListener()
        nodes[nid] = (
            RaincoreNode(nid, scheduler, fabric, config, listener),
            listener,
        )
    return fabric, nodes


async def wait_for(predicate, timeout=8.0, step=0.05):
    deadline = asyncio.get_event_loop().time() + timeout
    while asyncio.get_event_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(step)
    return predicate()


def test_group_forms_over_real_udp():
    async def scenario():
        fabric, nodes = build(["A", "B", "C"], BASE_PORT)
        await fabric.open_all()
        try:
            nodes["A"][0].start_new_group()
            nodes["B"][0].start_joining(["A"])
            nodes["C"][0].start_joining(["A"])
            ok = await wait_for(
                lambda: all(
                    set(n.members) == {"A", "B", "C"} for n, _ in nodes.values()
                )
            )
            assert ok, {nid: n.members for nid, (n, _) in nodes.items()}
        finally:
            for n, _ in nodes.values():
                n.crash()
            fabric.close_all()

    asyncio.run(scenario())


def test_multicast_over_real_udp():
    async def scenario():
        fabric, nodes = build(["A", "B", "C"], BASE_PORT + 10)
        await fabric.open_all()
        try:
            nodes["A"][0].start_new_group()
            nodes["B"][0].start_joining(["A"])
            nodes["C"][0].start_joining(["A"])
            await wait_for(
                lambda: all(
                    set(n.members) == {"A", "B", "C"} for n, _ in nodes.values()
                )
            )
            nodes["B"][0].multicast(b"over-the-wire")
            ok = await wait_for(
                lambda: all(
                    b"over-the-wire" in listener.delivered_payloads
                    for _, listener in nodes.values()
                )
            )
            assert ok
            orders = [listener.delivery_keys for _, listener in nodes.values()]
            assert all(o == orders[0] for o in orders)
        finally:
            for n, _ in nodes.values():
                n.crash()
            fabric.close_all()

    asyncio.run(scenario())


def test_failure_detection_over_real_udp():
    async def scenario():
        fabric, nodes = build(["A", "B", "C"], BASE_PORT + 20)
        await fabric.open_all()
        try:
            nodes["A"][0].start_new_group()
            nodes["B"][0].start_joining(["A"])
            nodes["C"][0].start_joining(["A"])
            await wait_for(
                lambda: all(
                    set(n.members) == {"A", "B", "C"} for n, _ in nodes.values()
                )
            )
            # Real crash: kill the protocol and close the socket.
            nodes["C"][0].crash()
            fabric.close("C")
            ok = await wait_for(
                lambda: all(
                    set(nodes[nid][0].members) == {"A", "B"} for nid in "AB"
                )
            )
            assert ok, {nid: nodes[nid][0].members for nid in "AB"}
            assert nodes["C"][0].state is NodeState.DOWN
        finally:
            for n, _ in nodes.values():
                n.crash()
            fabric.close_all()

    asyncio.run(scenario())
