"""The seven workloads of the ledger (README.md says why each exists).

A workload builds its cluster (:meth:`Workload.setup`), runs a *fixed amount
of work* derived from its share of the run's ``--seconds``
(:meth:`Workload.drive` — virtual seconds, message counts or fault cycles,
never "until T wall seconds have passed", so two sides of a comparison do
identical work), and checks its outputs (:meth:`Workload.verify`).  The child
process times ``drive`` from outside.  Load is open loop: every op is issued
on a schedule fixed in advance, whatever the system is doing.

Sizes are per *share-second*: the parent gives each of its ``repeats`` child
interpreters ``seconds / repeats`` share-seconds, and the constants below are
sized so one share-second costs a little under one wall second on the 2-core
reference container.
"""

from __future__ import annotations

import asyncio
import math
import random
import socket
import statistics
import time
from array import array

from repro.cluster.harness import RaincoreCluster
from repro.core.config import RaincoreConfig

from benchmarks.ledger.accounting import (
    Ledger,
    Tap,
    check_fabric,
    check_ledger,
    check_locks,
    check_merged,
    check_rainwall,
    check_replicas_agree,
    nearest_rank,
)

__all__ = ["WORKLOADS", "Workload"]

RING = tuple(f"n{i}" for i in range(8))
HOP = 0.005  #: token hold per node on the simulated rings: L = 1/(8*HOP) = 25
PAYLOAD_BYTES = 200
#: Real-runtime latency limit on the 99th percentile; a multicast slower than
#: this is counted (``runtime.ops_over_limit``), one never delivered is failed.
UDP_LATE_LIMIT = 0.050
#: Equal parts of virtual time into which a simulated run's timed region is
#: cut; the child reads the clocks at each cut (cli.undisturbed has the use).
SLICES = 16


def seeded_payloads(seed: int) -> list[bytes]:
    rng = random.Random(seed)
    return [rng.randbytes(PAYLOAD_BYTES) for _ in range(64)]


def open_loop(loop, rate: float, total: int, fire) -> None:
    """Call ``fire(i, due)`` at virtual time ``start + i / rate`` for
    ``i < total``.  The schedule is fixed up front and never waits for the
    system (on the simulator an event fires exactly when due)."""
    start = loop.now

    def tick(i: int) -> None:
        fire(i, start + i / rate)
        if i + 1 < total:
            loop.call_at(start + (i + 1) / rate, tick, i + 1)

    if total > 0:
        loop.call_at(start, tick, 0)


class Workload:
    """Common shape; the child process drives these four steps in order."""

    name = ""
    #: "virtual": simulated time, wall seconds are the cost being measured;
    #: "real": wall time is pinned by the schedule and CPU seconds are the cost.
    clock = "virtual"
    #: True when the ring is idle after ``quiesce`` (delivered counts comparable).
    quiescent = True
    #: True when ``bare=True`` builds the same load with a layer left off, for
    #: an overhead ratio against it.
    has_bare_twin = False

    def __init__(self, seed: int, tracer=None, bare: bool = False) -> None:
        self.seed = seed
        self.tracer = tracer
        self.bare = bare
        self.loop_tap = None
        self.ledger: Ledger
        self.nodes: list = []  # the session nodes, in ring order
        self.taps: list[Tap] = []
        self.sim_s = 0.0  # cluster-clock seconds the timed region covered
        self.form_sim_s = 0.0
        self.extra: dict[str, float] = {}  # workload-specific per-layer values
        #: (wall, CPU) clock readings at the cuts inside the timed region
        self.laps: list[tuple[float, float]] = []

    def lap(self) -> None:
        self.laps.append((time.perf_counter(), time.process_time()))

    def run_sliced(self, start: float, duration: float) -> None:
        """Simulated clock: run to ``start + duration``, reading the clocks at
        every cut but the last (the slice after it runs on into ``settle``)."""
        for i in range(1, SLICES):
            self.loop.run_until(start + duration * i / SLICES)
            self.lap()
        self.loop.run_until(start + duration)

    def setup(self) -> None:
        raise NotImplementedError

    def drive(self, share: float) -> None:
        raise NotImplementedError

    def quiesce(self) -> None:
        """Let bookkeeping traffic finish (outside the timed region)."""

    def verify(self) -> list[str]:
        return check_ledger(self.ledger, self.taps, self.quiescent)

    def teardown(self) -> None:
        pass

    def trace_loop(self, loop) -> None:
        """Traced run: make every callback the simulator dispatches a span."""
        if self.tracer is not None:
            from benchmarks.ledger.tracing import LoopTap

            loop.profile = self.loop_tap = LoopTap(self.tracer)

    def hops(self) -> int:
        return max(node.local_copy_seq for node in self.nodes)

    def settle(self, budget: float = 2.0) -> None:
        """Simulated clock: run on until every booked op is agreed-delivered."""
        loop, ledger = self.loop, self.ledger
        deadline = loop.now + budget
        while ledger.in_flight and loop.now < deadline:
            loop.run_for(0.002)

    def counters(self) -> dict[str, float]:
        """Cumulative public counters; the child reports after-minus-before."""
        nodes = self.nodes
        return {
            "views": sum(tap.views for tap in self.taps),
            "wakeups": sum(n.stats.task_switches for n in nodes),
            "packets_sent": sum(n.stats.packets_sent for n in nodes),
            "bytes_sent": sum(n.stats.bytes_sent for n in nodes),
            "regens": sum(n.recovery.regenerations for n in nodes),
            "merges": sum(n.merge.merges_completed for n in nodes),
            "sheds": sum(n.transport.sheds for n in nodes),
        }


# ----------------------------------------------------------------------
# simulated 8-node ring: token only, multicast, data, observed
# ----------------------------------------------------------------------
class SimRing(Workload):
    rate = 0.0  #: multicasts per virtual second
    sim_s_per_share = 0.0

    def setup(self) -> None:
        self.config = RaincoreConfig.tuned(ring_size=len(RING), hop_interval=HOP)
        cluster = self.cluster = RaincoreCluster(
            list(RING), seed=self.seed, config=self.config
        )
        loop = self.loop = cluster.loop
        self.ledger = Ledger(lambda: loop.now)
        self.nodes = [cluster.node(nid) for nid in RING]
        for node in self.nodes:
            tap = Tap(self.ledger, node)
            node.listener = tap  # instead of the harness's RecordingListener
            self.taps.append(tap)
        self.attach()
        self.trace_loop(loop)
        cluster.start_all()
        self.form_sim_s = max(tap.last_view_at for tap in self.taps)
        self.ready()

    def attach(self) -> None:
        """Hook: stack services on the nodes before the group forms."""

    def ready(self) -> None:
        """Hook: finish set-up once the group has formed."""

    def counters(self) -> dict[str, float]:
        out = super().counters()
        out["events"] = self.loop.events_processed
        out["packets_dropped"] = self.cluster.network.packets_dropped
        return out

    def start_load(self, duration: float) -> None:
        nodes = self.nodes
        payloads = seeded_payloads(self.seed)
        issue = self.ledger.issue

        def fire(i: int, due: float) -> None:
            issue(nodes[i % 8].multicast(payloads[i % 64], size=PAYLOAD_BYTES), due)

        open_loop(self.loop, self.rate, int(self.rate * duration), fire)

    def drive(self, share: float) -> None:
        loop = self.loop
        duration = self.sim_s_per_share * share
        start = loop.now
        self.start_load(duration)
        self.run_sliced(start, duration)
        self.settle()
        self.sim_s = loop.now - start

    def quiesce(self) -> None:
        self.loop.run_for(0.2)  # five laps: acks of the last ops drain too


class SimRingToken(SimRing):
    """Token circulation and nothing else, bar a 1/s heartbeat multicast that
    keeps the op metrics defined (0.5% of token visits carry it)."""

    name = "sim_ring_token"
    rate = 1.0
    sim_s_per_share = 150.0


class SimRingMcast(SimRing):
    name = "sim_ring_mcast"
    rate = 4000.0
    sim_s_per_share = 6.0


class SimRingObserved(SimRing):
    """``sim_ring_mcast`` at 1000/s under the whole observability stack."""

    name = "sim_ring_observed"
    has_bare_twin = True
    rate = 1000.0
    sim_s_per_share = 2.75

    def attach(self) -> None:
        self.monitor = None
        self.sink_bytes = 0
        if self.bare:  # the identical load with nothing attached
            return
        from repro.obs import ContractMonitor, FlightRecorder, paper_contract_rules
        from repro.obs.agg import StreamAggregator
        from repro.runtime.telemetry import TelemetryShipper

        bus = self.bus = self.cluster.enable_probes()
        recorder = FlightRecorder(bus)
        self.monitor = ContractMonitor(bus, paper_contract_rules(self.config, len(RING)))
        StreamAggregator().attach(bus)

        def sink(data: bytes) -> None:
            self.sink_bytes += len(data)

        shipper = TelemetryShipper("ledger", sink, recorder=recorder)
        bus.subscribe(shipper.on_probe)

    def ready(self) -> None:
        if self.monitor is not None:
            self.monitor.start()

    def counters(self) -> dict[str, float]:
        out = super().counters()
        if self.monitor is not None:
            out["probe_events"] = self.bus.events_emitted
            out["sink_bytes"] = self.sink_bytes
            out["alerts"] = len(self.monitor.alerts)
        return out

    def verify(self) -> list[str]:
        broken = super().verify()
        if self.monitor is not None and self.monitor.alerts:
            broken.append(
                "contract monitor alerted on a healthy ring: "
                + self.monitor.alerts[0].describe()
            )
        return broken


class SimDataWrites(SimRing):
    """Replicated writes, lock traffic and local reads on one ring."""

    name = "sim_data_writes"
    sim_s_per_share = 5.5
    SETS, LOCK_PAIRS, GETS_PER_SET, KEYS = 800.0, 100.0, 5, 256
    LOCK_HOLD = 0.005  #: virtual seconds a granted lock is held before release

    def attach(self) -> None:
        from repro.data import DistributedLockManager, SharedDict

        self.dicts = {}
        self.locks = {}
        for node in self.nodes:
            self.ledger.watch(node)
            self.dicts[node.node_id] = SharedDict(node)
            self.locks[node.node_id] = DistributedLockManager(node)

    def ready(self) -> None:
        # A joiner's replica only certifies once the log has an op in it, so
        # an idle dictionary never finishes syncing; one write starts it.
        self.dicts[RING[0]].set("warm", 0)
        deadline = self.loop.now + 5.0
        while not all(d.synced for d in self.dicts.values()):
            if self.loop.now >= deadline:
                raise RuntimeError("replicas failed to sync during set-up")
            self.loop.run_for(0.05)

    def start_load(self, duration: float) -> None:
        loop, ledger = self.loop, self.ledger
        rng = random.Random(self.seed)
        keys = [f"k{i}" for i in range(self.KEYS)]
        dicts = [self.dicts[nid] for nid in RING]
        locks = [self.locks[nid] for nid in RING]
        self.holder: dict[str, str | None] = {}
        self.double_grants = self.grants = self.acquires = 0

        def write(i: int, due: float) -> None:
            ledger.tag = due
            dicts[i % 8].set(keys[rng.randrange(self.KEYS)], i)
            ledger.tag = None
            reader = dicts[(i + 3) % 8]
            for _ in range(self.GETS_PER_SET):
                reader.get(keys[rng.randrange(self.KEYS)])

        def lock(j: int, due: float) -> None:
            manager = locks[j % 8]
            name = f"L{(j // 8) % 32}"  # eight nodes contend for each name in turn

            def granted() -> None:
                self.grants += 1
                if self.holder.get(name) is not None:
                    self.double_grants += 1
                self.holder[name] = manager.node.node_id
                loop.call_later(self.LOCK_HOLD, release)

            def release() -> None:
                self.holder[name] = None
                ledger.tag = loop.now
                manager.release(name)
                ledger.tag = None

            self.acquires += 1
            ledger.tag = due
            manager.acquire(name, granted)
            ledger.tag = None

        open_loop(loop, self.SETS, int(self.SETS * duration), write)
        open_loop(loop, self.LOCK_PAIRS, int(self.LOCK_PAIRS * duration), lock)

    def verify(self) -> list[str]:
        broken = super().verify()
        broken += check_replicas_agree({nid: d.snapshot() for nid, d in self.dicts.items()})
        broken += check_locks(
            self.double_grants,
            {nid: m.table() for nid, m in self.locks.items()},
            self.grants,
            self.acquires,
        )
        return broken


class SimChurn(SimRing):
    """Crash, rejoin, partition and merge under steady background load."""

    name = "sim_churn"
    quiescent = False  # a node that was down or cut off delivers less, by design
    rate = 200.0
    cycles_per_share = 8.0
    VICTIM = "n3"
    SIDES = (["n0", "n1", "n2", "n3"], ["n4", "n5", "n6", "n7"])

    def wait(self, what: str, predicate, budget: float = 20.0) -> float:
        """Advance in 1 ms steps until ``predicate``; virtual seconds taken."""
        loop = self.loop
        start = loop.now
        while not predicate():
            if loop.now - start > budget:
                raise RuntimeError(f"sim_churn: {what} did not happen within {budget} s")
            loop.run_for(0.001)
        return loop.now - start

    def drive(self, share: float) -> None:
        cluster, loop, ledger = self.cluster, self.loop, self.ledger
        cycles = max(1, round(self.cycles_per_share * share))
        everyone = set(RING)
        survivors = everyone - {self.VICTIM}
        # The victim never originates: an op queued on a node that then
        # crashes is lost by design, and no op here is meant to fail.
        origins = [cluster.node(nid) for nid in RING if nid != self.VICTIM]
        payloads = seeded_payloads(self.seed)
        start = loop.now
        running = True

        def fire(i: int) -> None:
            due = start + i / self.rate
            ledger.issue(
                origins[i % 7].multicast(payloads[i % 64], size=PAYLOAD_BYTES), due
            )
            if running:
                loop.call_at(start + (i + 1) / self.rate, fire, i + 1)

        loop.call_at(start, fire, 0)
        outages, heals = [], []
        for _cycle in range(cycles):
            loop.run_for(1.0)
            cluster.faults.crash_node(self.VICTIM)
            crashed_at = loop.now
            outages.append(self.wait(
                "survivors agreeing and serving again",
                lambda: cluster.converged(survivors) and ledger.last_done_issue >= crashed_at,
            ))
            loop.run_for(1.0)
            self.lap()
            cluster.faults.recover_node(self.VICTIM)
            self.wait("the victim rejoining", lambda: cluster.converged(everyone))
            loop.run_for(1.0)
            self.lap()
            cluster.faults.partition(*self.SIDES)
            loop.run_for(1.5)
            self.lap()
            cluster.faults.heal_partition()
            heals.append(self.wait(
                "the halves merging",
                lambda: cluster.converged(everyone) and len(cluster.token_holders()) <= 1,
            ))
            self.lap()
        running = False
        self.settle()
        self.sim_s = loop.now - start
        self.extra["core.crash_outage_sim_ms"] = statistics.median(outages) * 1e3
        self.extra["core.merge_heal_sim_ms"] = statistics.median(heals) * 1e3

    def quiesce(self) -> None:
        self.wait(
            "one token holder",
            lambda: self.cluster.converged(set(RING)) and len(self.cluster.token_holders()) == 1,
        )

    def verify(self) -> list[str]:
        return super().verify() + check_merged(
            self.cluster.membership_views(), set(RING), self.cluster.token_holders()
        )


# ----------------------------------------------------------------------
# Rainwall: the apps layer
# ----------------------------------------------------------------------
class SimRainwall(Workload):
    """The Fig. 3 four-gateway configuration under saturating HTTP load."""

    name = "sim_rainwall"
    quiescent = False  # gateways keep publishing load for ever
    GATEWAYS = ["g0", "g1", "g2", "g3"]
    #: virtual seconds at share 2.0; cost grows with the square of virtual
    #: time (every tick walks every open flow, and flows only accumulate),
    #: so the duration follows the square root of the share.
    SIM_S_AT_2 = 12.0

    def setup(self) -> None:
        from repro.apps.rainwall import RainwallCluster, RainwallConfig

        config = RainwallConfig(
            vips=[f"10.1.0.{i}" for i in range(1, 5)],
            arrival_rate=500.0,
            flow_size=500_000.0,
        )
        rw = self.rw = RainwallCluster(self.GATEWAYS, seed=self.seed, config=config)
        loop = self.loop = rw.loop
        self.ledger = Ledger(lambda: loop.now)
        self.nodes = [rw.raincore.node(nid) for nid in self.GATEWAYS]
        for node in self.nodes:
            tap = Tap(self.ledger, node)
            # SharedDict made the node's listener a composite whose first
            # entry is the harness's RecordingListener; the tap replaces it.
            node.listener.listeners[0] = tap
            self.taps.append(tap)
            self.ledger.watch(node)
        self.trace_loop(loop)
        rw.start()
        self.form_sim_s = max(tap.last_view_at for tap in self.taps)

    def counters(self) -> dict[str, float]:
        out = super().counters()
        out["events"] = self.loop.events_processed
        out["packets_dropped"] = self.rw.raincore.network.packets_dropped
        out["flows_admitted"] = self.rw.engine.stats.started
        out["flows_completed"] = self.rw.engine.stats.completed
        return out

    def drive(self, share: float) -> None:
        rw, loop, ledger = self.rw, self.loop, self.ledger
        duration = self.SIM_S_AT_2 * math.sqrt(share / 2.0)
        start = loop.now
        ledger.track_all = True  # conntrack and load-table multicasts are the ops
        self.run_sliced(start, duration)
        ledger.close()
        rw.engine.stop()
        self.settle()
        self.sim_s = loop.now - start
        self.mbps = rw.throughput_mbps(since=start + 1.0, until=start + duration)
        self.cpu_percent = max(rw.rainwall_cpu_percent(loop.now).values())
        self.extra["apps.throughput_mbps"] = self.mbps

    def verify(self) -> list[str]:
        return super().verify() + check_rainwall(self.mbps, self.cpu_percent)


# ----------------------------------------------------------------------
# the real runtime: asyncio timers and UDP sockets on loopback
# ----------------------------------------------------------------------
class _CountingEndpoint:
    """Stands in for a node's datagram transport to count bytes handed to
    ``sendto`` (traced run only)."""

    def __init__(self, inner, totals: dict[str, float]) -> None:
        self.inner = inner
        self.totals = totals

    def sendto(self, data, addr) -> None:
        self.totals["frame_bytes"] += len(data)
        self.inner.sendto(data, addr)

    def close(self) -> None:
        self.inner.close()


def free_udp_ports(n: int) -> list[int]:
    held = []
    try:
        for _ in range(n):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.bind(("127.0.0.1", 0))
            held.append(sock)
        return [sock.getsockname()[1] for sock in held]
    finally:
        for sock in held:
            sock.close()


class UdpRingMcast(Workload):
    """Four nodes in one process over AsyncioScheduler + UdpFabric."""

    name = "udp_ring_mcast"
    clock = "real"
    NODES = ["n0", "n1", "n2", "n3"]
    HOP = 0.002
    rate = 2000.0

    def setup(self) -> None:
        from repro.core.session import RaincoreNode
        from repro.runtime import AsyncioScheduler, UdpFabric
        from repro.transport.reliable import TransportConfig

        aloop = self.aloop = asyncio.new_event_loop()
        fabric = self.fabric = UdpFabric(dict(zip(self.NODES, free_udp_ports(4))))
        scheduler = AsyncioScheduler(aloop, seed=self.seed)
        config = RaincoreConfig.tuned(
            ring_size=4, hop_interval=self.HOP,
            transport=TransportConfig(retx_timeout=0.05),
        )
        self.ledger = Ledger(aloop.time, late_limit=UDP_LATE_LIMIT)
        for nid in self.NODES:
            node = RaincoreNode(nid, scheduler, fabric, config)
            tap = Tap(self.ledger, node)
            node.listener = tap
            self.nodes.append(node)
            self.taps.append(tap)
        self.frame_totals = {"frame_bytes": 0.0}
        self.generator_late = array("d")
        aloop.run_until_complete(self._form())

    async def _form(self) -> None:
        from repro.core.states import NodeState

        await self.fabric.open_all()
        if self.tracer is not None:
            endpoints = self.fabric._endpoints
            for addr in list(endpoints):
                endpoints[addr] = _CountingEndpoint(endpoints[addr], self.frame_totals)
        first, *rest = self.nodes
        first.start_new_group()
        for node in rest:
            node.start_joining([first.node_id])
        deadline = self.aloop.time() + 10.0
        up = (NodeState.HUNGRY, NodeState.EATING)
        while not all(len(n.members) == 4 and n.state in up for n in self.nodes):
            if self.aloop.time() > deadline:
                raise RuntimeError("udp ring failed to form within 10 s")
            await asyncio.sleep(0.002)
        self.form_sim_s = max(tap.last_view_at for tap in self.taps) - (deadline - 10.0)

    def counters(self) -> dict[str, float]:
        out = super().counters()
        out["packets_dropped"] = self.fabric.packets_dropped
        out["frame_bytes"] = self.frame_totals["frame_bytes"]
        return out

    def drive(self, share: float) -> None:
        self.aloop.run_until_complete(self._drive(share))

    async def _drive(self, share: float) -> None:
        aloop, ledger, nodes = self.aloop, self.ledger, self.nodes
        payloads = seeded_payloads(self.seed)
        total = int(self.rate * share)
        start = aloop.time()
        issued = 0
        finished = aloop.create_future()

        def generate() -> None:
            # Issue everything that is due: if the loop stalled, the ops it
            # delayed are still booked from when they were scheduled.
            nonlocal issued
            now = aloop.time()
            while issued < total and start + issued / self.rate <= now:
                due = start + issued / self.rate
                self.generator_late.append(now - due)
                ledger.issue(
                    nodes[issued % 4].multicast(payloads[issued % 64], size=PAYLOAD_BYTES),
                    due,
                )
                issued += 1
            if issued < total:
                aloop.call_at(start + issued / self.rate, generate)
            else:
                finished.set_result(None)

        if self.tracer is not None:
            generate = self.tracer.wrap(generate, "bench.loadgen", "bench")  # noqa: F811
        aloop.call_soon(generate)
        await finished
        deadline = aloop.time() + 1.0
        while ledger.in_flight and aloop.time() < deadline:
            await asyncio.sleep(0.002)
        self.sim_s = total / self.rate
        late = sorted(self.generator_late)
        self.extra["runtime.loadgen_late_ms_p99"] = nearest_rank(late, 0.99) * 1e3

    def quiesce(self) -> None:
        self.aloop.run_until_complete(asyncio.sleep(0.05))

    def verify(self) -> list[str]:
        return super().verify() + check_fabric(self.fabric.packets_dropped)

    def teardown(self) -> None:
        for node in self.nodes:
            node.shutdown()
        self.fabric.close_all()
        self.aloop.run_until_complete(asyncio.sleep(0))
        self.aloop.close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        SimRingToken,
        SimRingMcast,
        SimDataWrites,
        SimRingObserved,
        SimRainwall,
        SimChurn,
        UdpRingMcast,
    )
}
