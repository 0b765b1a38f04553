"""Microdrivers: three single-layer loops with no cluster around them.

Each isolates one inner cost that a workload only shows diluted: the bare
event-loop dispatch (``repro.perf.bench_event_loop`` at 100k events), one
``SegmentedLog`` append including the seal and prune it amortises, and one
real-fabric frame round trip of a loaded token.  They are workload-independent
and reported with every traced run as per-layer metrics; best of three.
"""

from __future__ import annotations

import time

__all__ = ["run_all"]


def eventloop_events_per_s(n: int = 100_000) -> float:
    from repro.perf import bench_event_loop

    return bench_event_loop(n)


def log_append_us(n: int = 20_000) -> float:
    from repro.data.resync import SegmentedLog
    from repro.data.shared_dict import DictOp

    log = SegmentedLog(32)
    ops = [DictOp("set", f"k{i % 256}", i) for i in range(n)]
    t0 = time.perf_counter()
    for op in ops:
        entry, sealed = log.append(op, 26)
        if sealed:
            log.prune_to(entry.seq, "")
    return (time.perf_counter() - t0) / n * 1e6


def codec_us_per_token(n: int = 2_000) -> float:
    """``UdpFabric.send`` -> bytes -> ``UdpFabric._on_datagram`` of a DATA
    frame carrying a token with six 200-byte messages; no socket involved."""
    from repro.core.token import PiggybackedMessage, Token
    from repro.runtime.udp import UdpFabric
    from repro.transport.messages import DataFrame, frame_size

    class Wire:
        data = b""

        def sendto(self, data, addr):
            self.data = data

    fabric = UdpFabric({"a": 1, "b": 2})
    src, dst = fabric.address_of("a"), fabric.address_of("b")
    wire = Wire()
    fabric._endpoints[src] = wire
    fabric.bind(dst, lambda packet: None)
    members = ("a", "b", "c", "d")
    token = Token(seq=7, membership=members, gen="a.1")
    for i in range(6):
        token.attach_message(
            PiggybackedMessage("a", i + 1, bytes(200), 200,
                               audience=frozenset(members), pending={"b", "c"})
        )
    frame = DataFrame("a", "b", 1, token)
    size = frame_size(frame)
    t0 = time.perf_counter()
    for _ in range(n):
        fabric.send(src, dst, frame, size)
        fabric._on_datagram(dst, wire.data)
    return (time.perf_counter() - t0) / n * 1e6


def run_all() -> dict[str, float]:
    return {
        "net.eventloop_events_per_s": max(eventloop_events_per_s() for _ in range(3)),
        "data.log_append_us": min(log_append_us() for _ in range(3)),
        "runtime.codec_us_per_token": min(codec_us_per_token() for _ in range(3)),
    }
