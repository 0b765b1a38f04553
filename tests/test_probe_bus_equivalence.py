"""The journaled probe bus against the per-event reference bus.

One program — emits, loop runs, subscribers joining and leaving, and every
consumer read path — runs twice: through ``repro.obs.probe.ProbeBus`` with
the real consumers, and through ``probe_bus_reference.ReferenceBus`` (the
parent bus: one call per event) with the same consumers and, for the
contract monitor, the whole-buffer ``monitor_reference.ReferenceMonitor``.
Every read must agree.  The journal's drain points are pinned too: a
subscriber that records batch sizes must see exactly the batches the
documented rule produces (64 at the bound; the rest at a loop return, a
subscription change or a consumer read).

The second half seeds the four ways this could break and demands each is
caught: a read that does not drain, a loop that does not drain on return,
a journal that drains before its bound, and a monitor that fails to file a
kind its rules declare.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import RaincoreConfig
from repro.net.eventloop import EventLoop
from repro.obs import probe as probe_module
from repro.obs.agg import StreamAggregator
from repro.obs.monitor import CONTRACT_READS, ContractMonitor, paper_contract_rules
from repro.obs.probe import JOURNAL_BOUND, ProbeBus, ProbeConsumer, ProbeLog
from repro.obs.recorder import FlightRecorder
from repro.runtime.telemetry import TelemetryShipper, decode_frame

from .monitor_reference import ReferenceMonitor
from .probe_bus_reference import ReferenceBus

RULES = paper_contract_rules(RaincoreConfig.tuned(ring_size=2), 2)
#: What a monitor over RULES must file, read off the declarations.
DECLARED = {"node.state", "view.change"}.union(*(CONTRACT_READS[r.name] for r in RULES))


def probe(i: int, which: int) -> tuple[str, str, tuple]:
    """The ``which``-th shape of conforming event, varied by ``i``."""
    shapes = [
        ("A", "mcast.deliver", ("B", i, "agreed", 1 + i % 4)),
        ("B", "mcast.deliver", ("A", i, "safe", 1)),
        ("B", "token.accept", ("A", "A.1", i, 2)),
        ("A", "core.wakeup", ()),
        ("A", "net.send", ("A:0", "B:0", "DataFrame", 100 + i)),
        ("B", "fd.arm", ("A", i)),
        ("A", "node.state", ("joining", "hungry")),
        ("B", "view.change", (i, ("A", "B"))),
        ("A", "transport.tx", ("B", i, 0, "DataFrame", ("tok", "A.1", i, 1, False))),
        ("A", "resync.buffer", ("replica:dict", 10 * i, 100)),
        ("B", "node.shutdown", ("crash",)),
    ]
    return shapes[which % len(shapes)]


class Side:
    """One bus and every consumer, wired the way the stack wires them."""

    def __init__(self, bus_cls) -> None:
        self.loop = EventLoop(seed=1)
        self.bus = bus = bus_cls(self.loop)
        self.batches: list[int] = []
        bus.subscribe(lambda batch: self.batches.append(len(batch)))
        self.recorder = FlightRecorder(bus, capacity=8)
        if bus_cls is ProbeBus:
            self.monitor = ContractMonitor(bus, RULES)
        else:
            self.monitor = ReferenceMonitor(RULES)
            bus.subscribe(lambda batch: [self.monitor.ingest(e) for e in batch])
        self.agg = StreamAggregator().attach(bus)
        self.frames: list[bytes] = []
        self.shipper = TelemetryShipper("A", self.frames.append, recorder=self.recorder)
        bus.subscribe(self.shipper.on_probe)
        self.log = ProbeLog(bus)
        self.plain: list = []  # a plain callable: current once the loop returns
        bus.subscribe(self.plain.extend)
        self.late: FlightRecorder | None = None

    # -- the program's operations --------------------------------------
    def emit(self, i: int, which: int, count: int = 1) -> None:
        for j in range(count):
            node, kind, args = probe(i + j, which + j)
            self.bus.emit(node, kind, *args)

    def advance(self, dt: float) -> list:
        self.loop.run_for(dt)
        return rows(self.plain)

    def join(self) -> None:
        if self.late is None:
            self.late = FlightRecorder(self.bus, capacity=16)

    def leave(self) -> list:
        if self.late is None:
            return []
        late, self.late = self.late, None
        late.close()
        return rows(late.snapshot())

    def read(self, api: str):
        if api == "snapshot":
            return rows(self.recorder.snapshot())
        if api == "node_events":
            return rows(self.recorder.node_events("A"))
        if api == "events_seen":
            return self.recorder.events_seen
        if api == "late":
            return rows(self.late.snapshot()) if self.late is not None else None
        if api == "evaluate":
            now = self.loop.now
            if isinstance(self.monitor, ContractMonitor):
                self.monitor.evaluate(now)
                kept = sorted(
                    (e for by_node in self.monitor._series.values()
                     for s in by_node.values() for e in s.events),
                    key=lambda e: e.n,
                )
            else:
                self.monitor.evaluate(now)
                kept = [e for e in self.monitor.events if e.kind in DECLARED]
            return self.monitor.alert_records(), rows(kept)
        if api in ("flush", "mark", "bye", "dump_ring"):
            getattr(self.shipper, api)()
            return shipped(self.frames)
        if api == "log":
            return rows(self.log[:])
        if api == "rollup":
            return self.agg.to_dict()
        raise AssertionError(api)


READS = [
    "snapshot", "node_events", "events_seen", "late", "evaluate", "flush",
    "mark", "bye", "dump_ring", "log", "rollup",
]


def rows(events) -> list:
    return [(e.n, e.at, e.node, e.kind, e.args) for e in events]


def shipped(frames: list[bytes]) -> list:
    """Decoded frames, the wall-clock ``now`` of marks left out."""
    out = []
    for data in frames:
        body = decode_frame(data)
        body.pop("now", None)
        out.append(body)
    return out


ops = st.one_of(
    st.tuples(st.just("emit"), st.integers(0, 10), st.integers(1, 3)),
    st.tuples(st.just("burst"), st.integers(0, 10), st.integers(20, 150)),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.001, 0.05, 0.5])),
    st.tuples(st.just("join")),
    st.tuples(st.just("leave")),
    st.tuples(st.just("read"), st.sampled_from(READS)),
)
programs = st.lists(ops, max_size=40)


class Model:
    """The documented drain rule, as the batch sizes it must produce."""

    def __init__(self) -> None:
        self.pending = 0
        self.batches: list[int] = []

    def emitted(self, count: int) -> None:
        for _ in range(count):
            self.pending += 1
            if self.pending == JOURNAL_BOUND:
                self.drained()

    def drained(self) -> None:
        if self.pending:
            self.batches.append(self.pending)
            self.pending = 0


def drains(side: Side, op: str, args: list) -> bool:
    """Whether a (non-emit) operation reaches a drain point: all do, bar
    joining when the late subscriber is already there and leaving or
    reading it when it is not."""
    if op == "join":
        return side.late is None
    if op == "leave" or args == ["late"]:
        return side.late is not None
    return True


def divergence(program) -> str | None:
    """Run ``program`` on both buses; the first disagreement, or None."""
    real, ref = Side(ProbeBus), Side(ReferenceBus)
    model = Model()
    for step, (op, *args) in enumerate(program):
        where = f"step {step} {op}{tuple(args)}"
        if op in ("emit", "burst"):
            which, count = args
            for side in (real, ref):
                side.emit(step * 200, which, count)
            model.emitted(count)
            continue
        if drains(real, op, args):
            model.drained()
        if op == "advance":
            got, want = real.advance(args[0]), ref.advance(args[0])
        elif op == "join":
            real.join(), ref.join()
            got = want = None
        elif op == "leave":
            got, want = real.leave(), ref.leave()
        else:
            got, want = real.read(args[0]), ref.read(args[0])
        if got != want:
            return f"{where}: journaled bus read {got!r}, reference {want!r}"
        if real.batches != model.batches:
            return f"{where}: batches {real.batches}, the drain rule says {model.batches}"
    return None


@settings(max_examples=150, deadline=None)
@given(programs)
def test_every_read_matches_the_per_event_bus(program):
    assert divergence(program) is None


# ----------------------------------------------------------------------
# seeded mutants: each one must be caught
# ----------------------------------------------------------------------
#: Long enough to cross the bound, with reads between drains and a join.
PROGRAM = [
    ("burst", 0, 100),
    ("read", "snapshot"),
    ("emit", 2, 3),
    ("advance", 0.05),
    ("join",),
    ("burst", 3, 70),
    ("read", "evaluate"),
    ("burst", 5, 40),
    ("read", "late"),
    ("leave",),
    ("read", "flush"),
]


def no_drain_on_read(monkeypatch):
    monkeypatch.setattr(ProbeConsumer, "_catch_up", lambda self: None)


def no_drain_at_loop_return(monkeypatch):
    init = ProbeBus.__init__

    def unhooked(self, loop):
        init(self, loop)
        loop.drains.remove(self.drain)

    monkeypatch.setattr(ProbeBus, "__init__", unhooked)


def drain_before_the_bound(monkeypatch):
    monkeypatch.setattr(probe_module, "JOURNAL_BOUND", JOURNAL_BOUND - 1)


def monitor_drops_a_declared_kind(monkeypatch):
    init = ContractMonitor.__init__

    def forgetful(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.reads = self.reads - {"core.wakeup"}

    monkeypatch.setattr(ContractMonitor, "__init__", forgetful)


def test_the_unmutated_program_agrees():
    assert divergence(PROGRAM) is None


@pytest.mark.parametrize(
    "mutant",
    [
        no_drain_on_read,
        no_drain_at_loop_return,
        drain_before_the_bound,
        monitor_drops_a_declared_kind,
    ],
)
def test_seeded_mutant_is_killed(mutant, monkeypatch):
    mutant(monkeypatch)
    assert divergence(PROGRAM) is not None
