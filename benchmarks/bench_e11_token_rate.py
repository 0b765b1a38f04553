"""E11 (ablation) — choosing the token rate L (paper §2.2, §4.1).

The token is "passed at a regular time interval"; that interval is the
protocol's master dial.  The paper's overhead analysis presumes L < M (the
token ticks slower than the message rate) — but how slow should it go?
Spinning the token faster costs idle wakeups and idle bytes (the paper's
task-switching budget); spinning it slower delays multicast attach (a
message waits ~half a traversal for the token) and slows failure probing
(a dead neighbour is only discovered when someone tries to hand it the
token).

This bench sweeps the hop interval on a 4-node ring and reports all three
costs, verifying the monotone trade-offs the design relies on.

The dial only means something if a real ring keeps the time it was set to,
so a second table runs the same idle ring over the asyncio runtime and real
UDP sockets and reports the achieved share of the nominal L and the CPU one
hop costs.  It asserts nothing about the wall clock (a loaded CI runner is
not a finding); the gate on the real rate is the ledger's ``udp_ring_mcast``
step in CI's perf-smoke job.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from benchmarks.conftest import node_names
from repro.cluster.harness import RaincoreCluster
from repro.core.config import RaincoreConfig
from repro.core.session import RaincoreNode
from repro.core.states import NodeState
from repro.metrics import Table
from repro.runtime import AsyncioScheduler, UdpFabric
from repro.runtime.collector import free_udp_ports
from repro.transport.reliable import TransportConfig

N = 4
IDLE_WINDOW = 5.0
REAL_WINDOW = 2.0
K_MSGS = 8


def idle_cost(hop: float, seed: int = 41) -> tuple[float, float]:
    """(wakeups/s/node, bytes/s/node) of an idle ring."""
    cfg = RaincoreConfig.tuned(ring_size=N, hop_interval=hop)
    cluster = RaincoreCluster(node_names(N), seed=seed, config=cfg)
    cluster.start_all()
    cluster.run(1.0)
    cluster.stats.reset()
    cluster.run(IDLE_WINDOW)
    return (
        cluster.stats.total("task_switches") / N / IDLE_WINDOW,
        cluster.stats.total("bytes_sent") / N / IDLE_WINDOW,
    )


def attach_latency(hop: float, seed: int = 41) -> float:
    """Mean delay from multicast() to delivery at the *origin* — i.e. the
    wait for the token plus local processing."""
    cfg = RaincoreConfig.tuned(ring_size=N, hop_interval=hop)
    cluster = RaincoreCluster(node_names(N), seed=seed, config=cfg)
    cluster.start_all()
    cluster.run(1.0)
    ids = cluster.node_ids
    waits = []
    for i in range(K_MSGS):
        origin = ids[i % N]
        t0 = cluster.loop.now
        before = len(cluster.listener(origin).deliveries)
        cluster.node(origin).multicast(f"m{i}")
        while len(cluster.listener(origin).deliveries) <= before:
            cluster.run(hop / 4)
        waits.append(cluster.loop.now - t0)
        cluster.run(3 * N * hop)  # decorrelate phases between trials
    return sum(waits) / len(waits)


def crash_detection(hop: float, seed: int = 41) -> float:
    """Time from a member crash to survivor-view convergence."""
    cfg = RaincoreConfig.tuned(ring_size=N, hop_interval=hop)
    cluster = RaincoreCluster(node_names(N), seed=seed, config=cfg)
    cluster.start_all()
    cluster.run(0.5)
    victim = cluster.node_ids[2]
    t0 = cluster.loop.now
    cluster.faults.crash_node(victim)
    survivors = set(cluster.node_ids) - {victim}
    while not cluster.converged(expected=survivors):
        cluster.run(0.005)
        assert cluster.loop.now - t0 < 60.0
    return cluster.loop.now - t0


async def _real_idle_ring(hop: float) -> tuple[float, float]:
    loop = asyncio.get_running_loop()
    fabric = UdpFabric(dict(zip(node_names(N), free_udp_ports(N))))
    scheduler = AsyncioScheduler(loop, seed=41)
    cfg = RaincoreConfig.tuned(
        ring_size=N, hop_interval=hop, transport=TransportConfig(retx_timeout=0.05)
    )
    nodes = [RaincoreNode(nid, scheduler, fabric, cfg) for nid in fabric.ports]
    await fabric.open_all()
    try:
        nodes[0].start_new_group()
        for node in nodes[1:]:
            node.start_joining([nodes[0].node_id])
        up = (NodeState.HUNGRY, NodeState.EATING)
        deadline = loop.time() + 10.0
        while not all(len(n.members) == N and n.state in up for n in nodes):
            assert loop.time() < deadline, "real ring failed to form within 10 s"
            await asyncio.sleep(0.01)
        await asyncio.sleep(0.2)  # first laps: lazy imports, reducer table
        seq0 = max(n.local_copy_seq for n in nodes)
        wall0, cpu0 = loop.time(), time.process_time()
        await asyncio.sleep(REAL_WINDOW)
        hops = max(n.local_copy_seq for n in nodes) - seq0
        wall, cpu = loop.time() - wall0, time.process_time() - cpu0
    finally:
        for node in nodes:
            node.shutdown()
        fabric.close_all()
    return hops / wall * hop, cpu / hops * 1e6


def real_ring_rate(hop: float) -> tuple[float, float]:
    """(achieved / nominal L, CPU µs per hop) of an idle ring of N nodes in
    one process over ``AsyncioScheduler`` + ``UdpFabric`` on loopback."""
    return asyncio.run(_real_idle_ring(hop))


def test_e11_real_runtime_keeps_its_token_rate(benchmark):
    hops = (0.002, 0.005, 0.010)
    results = benchmark.pedantic(
        lambda: {hop: real_ring_rate(hop) for hop in hops}, rounds=1, iterations=1
    )

    table = Table(
        f"E11: the dial on the real runtime (N={N}, idle, {REAL_WINDOW:.0f} s per row)",
        ["hop (ms)", "nominal L (rt/s)", "achieved / nominal L", "CPU us per hop"],
    )
    for hop in hops:
        share, cpu_us = results[hop]
        table.add_row(hop * 1e3, 1.0 / (N * hop), share, cpu_us)
    table.add_note(
        "the hold is a deadline counted from the token's arrival, less what "
        "the node's last forward ran late; what is left below 1.0 is one-way "
        "transit and receive-side decode, which only the sender could estimate"
    )
    table.print()

    # Sanity only: the ring ran, and deadline pacing cannot beat the dial.
    for hop in hops:
        assert 0.0 < results[hop][0] <= 1.02


def test_e11_token_rate_tradeoffs(benchmark):
    hops = (0.002, 0.010, 0.050)

    def sweep():
        return {
            hop: (*idle_cost(hop), attach_latency(hop), crash_detection(hop))
            for hop in hops
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = Table(
        f"E11: token rate dial (N={N})",
        [
            "hop (ms)",
            "L (roundtrips/s)",
            "idle wakeups/s/node",
            "idle bytes/s/node",
            "attach latency (s)",
            "crash detection (s)",
        ],
    )
    for hop in hops:
        wps, bps, attach, detect = results[hop]
        table.add_row(hop * 1e3, 1.0 / (N * hop), wps, bps, attach, detect)
    table.add_note(
        "faster token = more idle overhead but snappier multicast and "
        "failure discovery; the paper's regime keeps L below the message "
        "rate M so piggybacking amortizes the idle cost"
    )
    table.print()

    # Idle overhead rises as the hop shrinks...
    wakeups = [results[h][0] for h in hops]
    assert wakeups[0] > wakeups[1] > wakeups[2]
    # ...and tracks the analytic rate L = 1/(N*hop).
    for hop in hops:
        assert results[hop][0] == pytest.approx(1.0 / (N * hop), rel=0.25)
    # Attach latency and detection latency shrink with a faster token.
    attaches = [results[h][2] for h in hops]
    detects = [results[h][3] for h in hops]
    assert attaches[0] < attaches[2]
    assert detects[0] < detects[2]