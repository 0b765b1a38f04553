"""Span tracing installed from outside the program.

The traced run wraps the functions at each layer boundary of ``repro`` with
:meth:`Tracer.wrap` (by assigning the wrapper over the class attribute before
any cluster is built) and hangs a :class:`LoopTap` on the simulator's public
``EventLoop.profile`` hook, so every dispatched callback is a top-level span
and every boundary call inside it a child span.  A span records name, layer,
start, end and parent; a layer's *self* time is its spans' time minus the part
their child spans cover.  Aggregates are exact; raw spans are kept for the
first :data:`RAW_LIMIT` only.  Nothing under ``src/`` is edited.

Wrapper cost (two clock reads and some bookkeeping per span) lands in the
parent span's self time, so the traced run is slower than the untraced one
and its shares lean toward layers that make many short calls;
``trace_overhead_ratio`` reports by how much.  End-to-end metrics are never
taken from a traced run.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from typing import Any, Callable

__all__ = ["LAYERS", "Tracer", "LoopTap", "install_boundaries"]

#: Benchmark layers, in bill order.  ``bench`` is the load generator, the taps
#: and the cluster harness; the dispatch residual is reported beside them.
LAYERS = ("net", "transport", "core", "data", "apps", "obs", "runtime", "bench")

RAW_LIMIT = 50_000


def layer_of(fn: Any) -> str:
    """The layer owning ``fn``: its ``repro.<package>``, else ``bench``."""
    parts = (getattr(fn, "__module__", None) or "").split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "bench"


class Tracer:
    """In-memory span aggregation: per boundary count / total / self."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        #: span name -> [layer, count, total seconds, self seconds]
        self.rows: dict[str, list] = {}
        #: (id, name, start, end, parent id); parent 0 = dispatched by the loop
        self.raw: list[tuple[int, str, float, float, int]] = []
        self.counters: Counter[str] = Counter()
        self.samples: dict[str, array] = {}
        self.peaks: dict[str, float] = {}
        #: seconds inside top-level spans (children included)
        self.top_total = 0.0
        self._child = 0.0  # child-span seconds inside the span now open
        self._cur = 0  # id of the span now open
        self._ids = 0

    def reset(self) -> None:
        """Forget everything recorded so far (set-up is not billed)."""
        for row in self.rows.values():
            row[1] = 0
            row[2] = row[3] = 0.0
        self.raw.clear()
        self.counters.clear()
        self.samples.clear()
        self.peaks.clear()
        self.top_total = 0.0

    def row(self, name: str, layer: str) -> list:
        row = self.rows.get(name)
        if row is None:
            row = self.rows[name] = [layer, 0, 0.0, 0.0]
        return row

    def sample(self, name: str, value: float) -> None:
        values = self.samples.get(name)
        if values is None:
            values = self.samples[name] = array("d")
        values.append(value)

    def peak(self, name: str, value: float) -> None:
        if value > self.peaks.get(name, 0.0):
            self.peaks[name] = value

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span.  ``before(*args)`` runs ahead of
        the call and ``after(result, *args)`` behind it, both outside the
        span, for counts that need the arguments or the result."""
        row = self.row(name, layer)
        clock = self.clock
        raw = self.raw

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            parent = self._cur
            self._ids += 1
            me = self._cur = self._ids
            outer_child = self._child
            self._child = 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                took = t1 - t0
                row[1] += 1
                row[2] += took
                row[3] += took - self._child
                self._child = outer_child + took
                self._cur = parent
                if parent == 0:
                    self.top_total += took
                if len(raw) < RAW_LIMIT:
                    raw.append((me, name, t0, t1, parent))
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def patch(self, cls: type, attr: str, name: str, layer: str, **hooks) -> None:
        setattr(cls, attr, self.wrap(getattr(cls, attr), name, layer, **hooks))

    # -- reading the bill --------------------------------------------------
    def count(self, name: str) -> int:
        row = self.rows.get(name)
        return row[1] if row else 0

    def self_us(self, name: str) -> float:
        """Mean self microseconds per call of one boundary."""
        row = self.rows.get(name)
        return row[3] / row[1] * 1e6 if row and row[1] else 0.0

    def total_us(self, name: str) -> float:
        """Mean total microseconds per call of one boundary."""
        row = self.rows.get(name)
        return row[2] / row[1] * 1e6 if row and row[1] else 0.0

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for layer, _count, _total, self_s in self.rows.values():
            out[layer] += self_s
        return out

    def dump(self) -> dict:
        """JSON-ready aggregate plus the retained raw spans."""
        return {
            "boundaries": {
                name: {"layer": r[0], "count": r[1], "total_s": r[2], "self_s": r[3]}
                for name, r in sorted(self.rows.items())
                if r[1]
            },
            "counters": dict(self.counters),
            "raw_limit": RAW_LIMIT,
            "spans": [
                {"id": i, "name": n, "layer": self.rows[n][0], "start": s, "end": e, "parent": p}
                for i, n, s, e, p in self.raw
            ],
        }


class LoopTap:
    """Speaks the ``EventLoop.profile`` protocol for a :class:`Tracer`.

    The loop reads ``clock()`` right before and right after each callback and
    then calls ``account``; the first read opens a top-level span (so nested
    boundary spans know their parent), ``account`` closes it.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.events = 0
        #: wall seconds inside run_until/step loops, and inside their callbacks
        self.run_wall = 0.0
        self.callback_wall = 0.0
        self._rows: dict[object, tuple[str, list]] = {}
        self._opening = True
        self._depth = 0
        self._run_t0 = 0.0

    def reset(self) -> None:
        self.events = 0
        self.run_wall = self.callback_wall = 0.0

    def begin_run(self, epoch: bool = False) -> None:
        if self._depth == 0:
            self._run_t0 = time.perf_counter()
            self._opening = True
        self._depth += 1

    def end_run(self) -> None:
        self._depth -= 1
        if self._depth == 0:
            self.run_wall += time.perf_counter() - self._run_t0

    def clock(self) -> float:
        if self._opening:
            tracer = self.tracer
            tracer._ids += 1
            tracer._cur = tracer._ids
            tracer._child = 0.0
        self._opening = not self._opening
        return time.perf_counter()

    def account(self, callback: Callable, t0: float, t1: float, depth: int, at: float) -> None:
        fn = getattr(callback, "__func__", callback)
        known = self._rows.get(fn)
        tracer = self.tracer
        if known is None:
            name = "loop:" + getattr(fn, "__qualname__", repr(fn))
            known = self._rows[fn] = (name, tracer.row(name, layer_of(fn)))
        name, row = known
        took = t1 - t0
        row[1] += 1
        row[2] += took
        row[3] += took - tracer._child
        self.events += 1
        self.callback_wall += took
        tracer.top_total += took
        if len(tracer.raw) < RAW_LIMIT:
            tracer.raw.append((tracer._cur, name, t0, t1, 0))
        tracer._cur = 0
        tracer._child = 0.0


def _traced_timers(tracer: Tracer, scheduler_cls: type) -> None:
    """Real-time scheduler: every timer callback becomes a top-level span and
    reports how late it fired (``AsyncioScheduler`` has no profile hook)."""
    rows: dict[object, Callable] = {}

    def spanned(callback: Callable) -> Callable:
        fn = getattr(callback, "__func__", callback)
        wrap = rows.get(fn)
        if wrap is None:
            name = "loop:" + getattr(fn, "__qualname__", repr(fn))

            def call(cb, *args):
                cb(*args)

            wrap = rows[fn] = tracer.wrap(call, name, layer_of(fn))
        return wrap

    def fire(wrap, callback, due, loop, *args):
        tracer.sample("runtime.timer_late_ms", (loop.time() - due) * 1e3)
        wrap(callback, *args)

    def call_later(self, delay, callback, *args, priority=0):
        loop = self._loop
        return loop.call_later(
            delay, fire, spanned(callback), callback, loop.time() + delay, loop, *args
        )

    def call_at(self, when, callback, *args, priority=0):
        loop = self._loop
        return loop.call_at(when, fire, spanned(callback), callback, when, loop, *args)

    scheduler_cls.call_later = call_later
    scheduler_cls.call_at = call_at


def install_boundaries(tracer: Tracer) -> None:
    """Wrap the layer boundaries of ``repro``.  Must run before any cluster
    is built: nodes bind ``self._receive`` and friends at construction."""
    from repro.apps.conntrack import ConnectionTable
    from repro.apps.rainwall import RainwallCluster, RainwallNode
    from repro.apps.traffic import TrafficEngine
    from repro.apps.vip import VirtualIPManager
    from repro.core.session import RaincoreNode
    from repro.core.states import NodeState
    from repro.core.token import Token
    from repro.data.lock_manager import DistributedLockManager
    from repro.data.replica import ReplicaBase
    from repro.data.resync import SegmentedLog
    from repro.data.shared_dict import SharedDict
    from repro.net.datagram import DatagramNetwork
    from repro.obs.agg import StreamAggregator
    from repro.obs.monitor import ContractMonitor
    from repro.obs.probe import ProbeBus
    from repro.obs.recorder import FlightRecorder
    from repro.runtime.scheduler import AsyncioScheduler
    from repro.runtime.telemetry import TelemetryShipper
    from repro.runtime.udp import UdpFabric
    from repro.transport.reliable import ReliableUnicast

    from benchmarks.ledger.accounting import Tap

    counters = tracer.counters
    patch = tracer.patch

    # net
    patch(DatagramNetwork, "send", "net.send", "net")
    patch(DatagramNetwork, "_deliver", "net.deliver", "net")

    # transport
    def token_bytes(_result, _self, _dst, payload, on_result=None):
        if type(payload) is Token:
            tracer.sample("core.token_bytes", payload.wire_size())

    def failure(self, msg_id, success):
        if not success and msg_id in self._pending:
            counters["transport.failures"] += 1

    patch(ReliableUnicast, "send", "transport.send", "transport", after=token_bytes)
    patch(ReliableUnicast, "_transmit", "transport.transmit", "transport")
    patch(ReliableUnicast, "_on_packet", "transport.recv", "transport")
    patch(ReliableUnicast, "_on_ack", "transport.on_ack", "transport")
    patch(ReliableUnicast, "_finish", "transport.finish", "transport", before=failure)

    # core
    def false_alarm(self, target, seq, ok):
        if not ok and self.state is not NodeState.DOWN and self._last_seen_seq >= seq:
            counters["core.false_alarms"] += 1

    patch(RaincoreNode, "_receive", "core.receive", "core")
    patch(RaincoreNode, "_process_visit", "core.visit", "core")
    patch(RaincoreNode, "_forward_token", "core.forward", "core")
    patch(RaincoreNode, "multicast", "core.multicast", "core")
    patch(RaincoreNode, "_on_forward_result", "core.forward_result", "core", before=false_alarm)
    patch(RaincoreNode, "quarantine_peer", "core.quarantine", "core")

    # data
    def sealed(result, *_args):
        if result[1]:
            counters["data.segments_sealed"] += 1

    def pruned(result, *_args):
        counters["data.segments_pruned"] += result[0]

    def retained(_result, self, _op):
        tracer.peak("data.retained_bytes", self.buffered_bytes())

    patch(ReplicaBase, "on_deliver", "data.apply", "data")
    patch(ReplicaBase, "_apply_and_log", "data.apply_and_log", "data", after=retained)
    patch(ReplicaBase, "_multicast_ack", "data.ack", "data")
    patch(ReplicaBase, "_multicast_delta", "data.resync_delta", "data")
    patch(ReplicaBase, "_multicast_snapshot", "data.resync_snapshot", "data")
    patch(SegmentedLog, "append", "data.log_append", "data", after=sealed)
    patch(SegmentedLog, "prune_to", "data.prune", "data", after=pruned)
    patch(SegmentedLog, "force_prune", "data.force_prune", "data", after=pruned)
    patch(SharedDict, "set", "data.set", "data")
    patch(SharedDict, "get", "data.get", "data")
    patch(DistributedLockManager, "on_deliver", "data.lock_apply", "data")
    patch(DistributedLockManager, "acquire", "data.acquire", "data")
    patch(DistributedLockManager, "release", "data.release", "data")

    # apps
    def open_flows(_result, self):
        tracer.peak("apps.flows_open", self.stats.started - self.stats.completed)

    patch(TrafficEngine, "_tick", "apps.tick", "apps", after=open_flows)
    patch(TrafficEngine, "_arrive", "apps.arrive", "apps")
    patch(RainwallCluster, "_admit", "apps.admit", "apps")
    patch(RainwallCluster, "_retry_clients", "apps.retry", "apps")
    patch(RainwallNode, "_publish", "apps.publish", "apps")
    patch(ConnectionTable, "on_deliver", "apps.conntrack_apply", "apps")
    patch(VirtualIPManager, "on_deliver", "apps.vip_apply", "apps")

    # obs
    patch(ProbeBus, "emit", "obs.emit", "obs")
    patch(FlightRecorder, "_on_event", "obs.recorder", "obs")
    patch(ContractMonitor, "_on_event", "obs.monitor", "obs")
    patch(ContractMonitor, "_tick", "obs.monitor_tick", "obs")
    patch(StreamAggregator, "observe", "obs.agg", "obs")
    patch(TelemetryShipper, "on_probe", "obs.shipper", "obs")

    # runtime
    patch(UdpFabric, "send", "runtime.send", "runtime")
    patch(UdpFabric, "_on_datagram", "runtime.recv", "runtime")
    _traced_timers(tracer, AsyncioScheduler)

    # the benchmark's own taps, so their time is not billed to core
    patch(Tap, "on_deliver", "bench.tap", "bench")
    patch(Tap, "on_view_change", "bench.tap_view", "bench")
