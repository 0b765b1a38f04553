"""Flow-level HTTP traffic workload — the Rainwall benchmark's load source.

The paper's Fig. 3 testbed puts HTTP clients on one side of the Rainwall
cluster and Apache servers on the other, and measures aggregate web
throughput through the gateways.  We substitute a fluid flow-level model
(DESIGN.md §2): connections arrive as a Poisson process, each carries a
download of configurable size, and the active flows on a gateway share that
gateway's forwarding capacity (processor sharing — the standard abstraction
for TCP fair-sharing on a bottleneck).

The engine advances on a fixed tick driven by the simulation event loop, so
traffic and the Raincore protocols interleave in the same virtual time — a
gateway failure mid-download stalls exactly the flows routed to it until
the cluster's fail-over machinery (VIP move, connection reassignment)
repairs the path, which is how the two-second fail-over claim (paper §3.2)
is measured rather than asserted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.net.eventloop import EventLoop

__all__ = ["Flow", "GatewayPort", "TrafficEngine", "FlowStats"]


@dataclass
class Flow:
    """One client connection downloading ``size_bytes`` through a gateway."""

    flow_id: int
    vip: str  #: the public virtual IP the client connected to
    src: str  #: client identifier (used by firewall rules)
    dst_port: int  #: server port (used by firewall rules)
    size_bytes: float
    gateway: str | None = None  #: current forwarding gateway (None = stalled)
    done_bytes: float = 0.0
    started_at: float = 0.0
    finished_at: float | None = None
    stalled_since: float | None = None
    total_stall: float = 0.0

    @property
    def done(self) -> bool:
        return self.finished_at is not None


@dataclass
class GatewayPort:
    """One gateway's forwarding plane as the traffic engine sees it.

    ``capacity_bps`` models the gateway's measured forwarding rate — the
    paper's single-node Rainwall gateway forwards ~95 Mbit/s of web traffic
    through its Fast Ethernet NICs.
    """

    node_id: str
    capacity_bps: float = 95e6
    up: bool = True
    flows: set[int] = field(default_factory=set)
    forwarded_bytes: float = 0.0


@dataclass
class FlowStats:
    """Aggregate workload outcomes for reporting."""

    started: int = 0
    completed: int = 0
    denied: int = 0
    total_bytes: float = 0.0

    def throughput_bps(self, duration: float) -> float:
        return 8.0 * self.total_bytes / duration if duration > 0 else 0.0


class TrafficEngine:
    """Poisson connection arrivals + processor-sharing fluid transfer.

    Parameters
    ----------
    loop:
        Simulation event loop (time base and RNG).
    admit:
        Callback deciding admission and placement for a new flow: returns a
        gateway node id, or ``None`` to deny (firewall reject).  This is
        where Rainwall's packet engine plugs in.
    vips:
        Public virtual IPs; arriving connections pick one uniformly, like
        clients spread over DNS-advertised addresses.
    arrival_rate:
        New connections per second.
    flow_size:
        Download size per connection in bytes (callable for distributions).
    tick:
        Fluid-model integration step in seconds.
    """

    def __init__(
        self,
        loop: EventLoop,
        admit: Callable[[Flow], str | None],
        vips: list[str],
        *,
        arrival_rate: float = 100.0,
        flow_size: float | Callable[[], float] = 1_000_000.0,
        tick: float = 0.010,
    ) -> None:
        if not vips:
            raise ValueError("need at least one VIP")
        if arrival_rate <= 0 or tick <= 0:
            raise ValueError("arrival_rate and tick must be positive")
        self.loop = loop
        self.admit = admit
        self.vips = list(vips)
        self.arrival_rate = arrival_rate
        self.flow_size = flow_size
        self.tick = tick
        self.gateways: dict[str, GatewayPort] = {}
        self.flows: dict[int, Flow] = {}
        self.stats = FlowStats()
        self._flow_ids = itertools.count(1)
        self._client_ids = itertools.count(1)
        self._running = False
        # Per-tick delivered bytes, for hiccup/gap analysis (paper §3.2).
        self.timeline: list[tuple[float, float]] = []
        #: optional hook fired when a flow completes (connection teardown).
        self.on_complete: Callable[[Flow], None] | None = None

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def add_gateway(
        self, node_id: str, capacity_bps: float = GatewayPort.capacity_bps
    ) -> GatewayPort:
        port = GatewayPort(node_id, capacity_bps)
        self.gateways[node_id] = port
        return port

    def set_gateway_up(self, node_id: str, up: bool) -> None:
        """Mark a gateway dead/alive; its flows stall until reassigned."""
        port = self.gateways[node_id]
        port.up = up
        if not up:
            now = self.loop.now
            for fid in list(port.flows):
                flow = self.flows[fid]
                flow.gateway = None
                flow.stalled_since = now
            port.flows.clear()

    def reassign_flows(self, flow_ids: list[int], chooser: Callable[[Flow], str | None]) -> int:
        """Re-place stalled flows via ``chooser``; returns how many resumed."""
        resumed = 0
        now = self.loop.now
        for fid in flow_ids:
            flow = self.flows.get(fid)
            if flow is None or flow.done or flow.gateway is not None:
                continue
            target = chooser(flow)
            if target is None:
                continue
            port = self.gateways.get(target)
            if port is None or not port.up:
                continue
            flow.gateway = target
            port.flows.add(fid)
            if flow.stalled_since is not None:
                flow.total_stall += now - flow.stalled_since
                flow.stalled_since = None
            resumed += 1
        return resumed

    def stalled_flow_ids(self) -> list[int]:
        return [
            fid
            for fid, f in self.flows.items()
            if not f.done and f.gateway is None
        ]

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_arrival()
        self.loop.call_later(self.tick, self._tick)

    def stop(self) -> None:
        self._running = False

    def _schedule_arrival(self) -> None:
        if not self._running:
            return
        delay = self.loop.rng.expovariate(self.arrival_rate)
        self.loop.call_later(delay, self._arrive)

    def _arrive(self) -> None:
        if not self._running:
            return
        self._schedule_arrival()
        size = self.flow_size() if callable(self.flow_size) else self.flow_size
        flow = Flow(
            flow_id=next(self._flow_ids),
            vip=self.vips[self.loop.rng.randrange(len(self.vips))],
            src=f"client-{next(self._client_ids)}",
            dst_port=80,
            size_bytes=float(size),
            started_at=self.loop.now,
        )
        target = self.admit(flow)
        if target is None:
            self.stats.denied += 1
            return
        port = self.gateways.get(target)
        self.flows[flow.flow_id] = flow
        self.stats.started += 1
        if port is None or not port.up:
            flow.stalled_since = self.loop.now  # blackholed until repair
            return
        flow.gateway = target
        port.flows.add(flow.flow_id)

    def _tick(self) -> None:
        if not self._running:
            return
        delivered_this_tick = 0.0
        for port in self.gateways.values():
            if not port.up or not port.flows:
                continue
            budget = port.capacity_bps / 8.0 * self.tick  # bytes this tick
            share = budget / len(port.flows)
            finished: list[int] = []
            for fid in port.flows:
                flow = self.flows[fid]
                take = min(share, flow.size_bytes - flow.done_bytes)
                flow.done_bytes += take
                delivered_this_tick += take
                port.forwarded_bytes += take
                if flow.done_bytes >= flow.size_bytes:
                    flow.finished_at = self.loop.now
                    finished.append(fid)
            for fid in finished:
                port.flows.discard(fid)
                self.stats.completed += 1
                if self.on_complete is not None:
                    self.on_complete(self.flows[fid])
        self.stats.total_bytes += delivered_this_tick
        self.timeline.append((self.loop.now, delivered_this_tick))
        self.loop.call_later(self.tick, self._tick)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def throughput_bps(self, since: float = 0.0, until: float | None = None) -> float:
        """Mean delivered rate (bits/s) over a timeline window."""
        until = until if until is not None else self.loop.now
        window = [b for t, b in self.timeline if since <= t <= until]
        duration = until - since
        if duration <= 0:
            return 0.0
        return 8.0 * sum(window) / duration

    def longest_gap(self, threshold_fraction: float = 0.1) -> float:
        """Longest run of ticks delivering under ``threshold_fraction`` of
        the median tick volume — the client-visible "hiccup" of paper §3.2."""
        if not self.timeline:
            return 0.0
        volumes = sorted(b for _, b in self.timeline)
        median = volumes[len(volumes) // 2]
        floor = median * threshold_fraction
        longest = current = 0.0
        prev_t = None
        for t, b in self.timeline:
            if b < floor:
                current += self.tick if prev_t is None else (t - prev_t)
                longest = max(longest, current)
            else:
                current = 0.0
            prev_t = t
        return longest
