"""The fabric's own socket: failed sends are counted drops, reads are a
bounded drain, and ``close()`` leaves nothing registered behind."""

from __future__ import annotations

import asyncio
import errno
import socket  # raincheck: disable=RC203 -- plays the outside sender at a real fabric socket

import pytest

from repro.runtime import udp
from repro.runtime.collector import free_udp_ports
from tests.test_udp_fabric import probed_fabric


def probed_ab():
    """A probed two-node fabric on free ports: (fabric, A's address, B's, events)."""
    fabric, recorded = probed_fabric(dict(zip("AB", free_udp_ports(2))))
    return fabric, fabric.address_of("A"), fabric.address_of("B"), recorded


class _Refusing:
    def __init__(self, error):
        self.error = error

    def sendto(self, data, peer):
        raise self.error

    def close(self):
        pass


@pytest.mark.parametrize(
    "error",
    [BlockingIOError(errno.EAGAIN, "send buffer full"), InterruptedError(),
     OSError(errno.ENETUNREACH, "unreachable")],
    ids=lambda e: type(e).__name__,
)
def test_failed_sendto_is_a_counted_probed_drop(error):
    fabric, a, b, recorded = probed_ab()
    fabric._endpoints[a] = _Refusing(error)
    fabric.send(a, b, b"token", 5)  # must not raise into the protocol
    assert fabric.packets_dropped == 1
    assert [(e.node, e.kind, e.args) for e in recorded] == [
        ("A", "net.send", (a, b, "bytes", 5)),
        ("A", "net.drop", (a, b, "bytes", 5, "send-failed")),
    ]
    assert fabric.stats.for_node("A").packets_sent == 1  # charged all the same


def test_real_socket_refusal_is_a_send_failed_drop():
    """A cap set above what UDP carries: the kernel says EMSGSIZE."""
    fabric, a, b, recorded = probed_ab()
    fabric.max_frame_bytes = 100_000

    async def scenario():
        await fabric.open("A")
        try:
            fabric.send(a, b, b"x" * 70_000, 1)
        finally:
            fabric.close_all()

    asyncio.run(scenario())
    assert recorded[-1].args[-1] == "send-failed" and fabric.packets_dropped == 1


def test_close_unregisters_the_reader_and_is_idempotent():
    fabric, a, _, _ = probed_ab()

    async def scenario():
        loop = asyncio.get_running_loop()
        await fabric.open("A")
        await fabric.open("A")  # idempotent: still the one endpoint
        endpoint = fabric._endpoints[a]
        fd = endpoint._sock.fileno()
        endpoint.close()
        assert endpoint._sock.fileno() == -1
        assert loop.remove_reader(fd) is False  # close() had removed it
        endpoint.close()
        fabric.close("A")
        fabric.close("A")
        fabric.send(a, a, b"x", 1)
        assert fabric.packets_dropped == 1  # no-endpoint

    asyncio.run(scenario())


def test_drain_is_bounded_and_loses_nothing():
    fabric, a, b, _ = probed_ab()
    flood = udp._DRAIN_LIMIT * 2 + 3
    got = []

    async def scenario():
        await fabric.open_all()
        try:
            fabric.bind(b, lambda packet: got.append(packet.payload))
            for i in range(flood):
                fabric.send(a, b, i, 1)
            fabric._endpoints[b]._drain()  # one wakeup's worth
            assert got == list(range(udp._DRAIN_LIMIT))
            for _ in range(200):
                if len(got) == flood:
                    break
                await asyncio.sleep(0.005)
        finally:
            fabric.close_all()

    asyncio.run(scenario())
    assert got == list(range(flood)) and fabric.packets_dropped == 0


def test_handler_closing_its_socket_ends_the_drain_quietly():
    fabric, a, b, _ = probed_ab()
    got = []

    def crash(packet):
        got.append(packet.payload)
        fabric.close("B")

    async def scenario():
        await fabric.open_all()
        try:
            fabric.bind(b, crash)
            for i in range(3):
                fabric.send(a, b, i, 1)
            fabric._endpoints[b]._drain()
        finally:
            fabric.close_all()

    asyncio.run(scenario())
    assert got == [0]


def test_datagram_past_the_cap_is_dropped_oversized_off_the_socket():
    fabric, _, b, recorded = probed_ab()
    fabric.max_frame_bytes = 100

    async def scenario():
        await fabric.open("B")
        try:
            host, port = b.rsplit(":", 1)
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as outside:
                outside.sendto(b"\xff" * 4000, (host, int(port)))
            fabric._endpoints[b]._drain()
        finally:
            fabric.close_all()

    asyncio.run(scenario())
    (drop,) = recorded
    # Read one byte past the cap: enough to know, reported at that length.
    assert drop.args == ("?", b, "?", 101, "oversized")
