"""Delivery runs: one ``mcast.deliver`` per run, and nothing lost.

``MulticastService._drain_deliverable`` emits one ``mcast.deliver`` per
maximal run of consecutive ``msg_no``s from one origin with one ordering
delivered within one drain.  Expanding every run must give back exactly
the ``(origin, msg_no, ordering, at)`` sequence the node's
``RecordingListener`` was handed, and no two runs of one drain may be
joinable.  Seeded clusters drive it through loss, duplication,
partition/merge, 911 regeneration, a crash that drops a queued outbox
(an origin's ``msg_no`` gap) and mixed AGREED/SAFE traffic; hand-built
hold queues pin the four ways a run must close, the duplicate-suppression
gap among them, and a listener restarting its node mid-run.  The hold
queue holds one entry per pack (per run of it), so the drain's unit is a
held run; five seeded mutants of that drain — four of the run rule and
one that pops a held run before delivering it — must each be caught.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cluster.harness import RaincoreCluster
from repro.core.events import Delivery, RecordingListener
from repro.core.multicast import MulticastService
from repro.core.token import Ordering, Rider, Token
from repro.obs import ProbeBus, ProbeLog
from repro.obs.recorder import (
    build_bundle,
    bundle_events,
    causal_chain,
    dump_bundle,
    load_bundle,
    trace_rows,
)

from .test_whitebox import drain, make_msg, make_node

AGREED, SAFE = Ordering.AGREED, Ordering.SAFE


# ----------------------------------------------------------------------
# the two views of one node's deliveries
# ----------------------------------------------------------------------
def expanded(events, node: str) -> list[tuple]:
    """``node``'s delivery runs as per-message ``(origin, msg_no, ordering, at)``."""
    out = []
    for e in events:
        if e.kind == "mcast.deliver" and e.node == node:
            origin, first, ordering, count = e.args
            assert count >= 1, f"empty run {e.args} at {node}"
            out.extend((origin, no, ordering, e.at) for no in range(first, first + count))
    return out


def delivered(deliveries: list[Delivery]) -> list[tuple]:
    return [(d.origin, d.msg_no, d.ordering.value, d.at) for d in deliveries]


def joinable(runs: list[tuple]) -> tuple | None:
    """Two consecutive runs of one drain that form one run, if any."""
    for a, b in zip(runs, runs[1:]):
        if a[0] == b[0] and a[2] == b[2] and a[1] + a[3] == b[1]:
            return a, b
    return None


class Drains:
    """Wraps whatever ``_drain_deliverable`` is installed and records the
    bus ordinals each call emitted, so runs can be grouped by drain."""

    def __init__(self, monkeypatch) -> None:
        self.spans: list[tuple[int, int]] = []
        inner = MulticastService._drain_deliverable

        def traced(service: MulticastService) -> None:
            bus = service.node.probe
            before = bus.events_emitted
            inner(service)
            self.spans.append((before, bus.events_emitted))

        monkeypatch.setattr(MulticastService, "_drain_deliverable", traced)

    def split(self, events) -> list[list[tuple]]:
        """The runs of ``events`` grouped by drain; forgets the drains, so
        the next cluster (a new bus, ordinals from 1) starts clean."""
        runs = {e.n: e.args for e in events if e.kind == "mcast.deliver"}
        spans, self.spans = self.spans, []
        return [[runs[n] for n in range(lo + 1, hi + 1) if n in runs] for lo, hi in spans]


# ----------------------------------------------------------------------
# seeded clusters
# ----------------------------------------------------------------------
NODES = ["A", "B", "C", "D", "E"]


def burst(t: float, origin: int, orderings: str, size: int = 60) -> tuple:
    """At ``t``, node ``origin`` multicasts one message per letter
    (``a`` AGREED, ``s`` SAFE)."""
    return (t, "mcast", origin, orderings, size)


#: name -> (seed, loss, duplication, timeline).  Every timeline starts on a
#: formed ring and ends with a settle period on a healed, benign network.
SCENARIOS = {
    "loss, duplication and mixed orderings": (
        3, 0.03, 0.05,
        [burst(0.01 * i, i % 5, "aasaa" if i % 3 else "sasa") for i in range(40)],
    ),
    "origins back to back": (
        5, 0.0, 0.0,
        # B's msg_no runs ahead, then A and B attach in one lap: a receiver
        # drains A#k.. and B#k+1.. together.
        [burst(0.0, 1, "aa"), burst(0.2, 0, "aaa"), burst(0.2, 1, "aaaa"),
         burst(0.4, 2, "s"), burst(0.4, 0, "aa"), burst(0.4, 1, "aa")],
    ),
    "partition and merge": (
        7, 0.01, 0.0,
        [burst(0.0, 0, "aaa"), (0.05, "partition", ["A", "B", "C"], ["D", "E"]),
         burst(0.1, 0, "asa"), burst(0.1, 3, "aaa"), burst(0.4, 4, "sa"),
         burst(0.6, 1, "aa"), (1.5, "heal"), burst(1.6, 2, "aasa"),
         burst(2.5, 3, "aa")],
    ),
    "911 regeneration and a dropped outbox": (
        11, 0.02, 0.02,
        [burst(0.0, 0, "aaaa"), burst(0.0, 2, "sas"), (0.01, "lose_token"),
         burst(0.02, 1, "aaa"), burst(0.3, 3, "aaaaa"), (0.3, "crash", "D"),
         burst(0.31, 4, "sa"), (1.2, "recover", "D"), burst(1.3, 3, "aa"),
         burst(1.35, 0, "saa"), (1.4, "lose_token"), burst(1.45, 1, "aa")],
    ),
}


def run_cluster(name: str):
    seed, loss, dup, timeline = SCENARIOS[name]
    cluster = RaincoreCluster(NODES, seed=seed)
    log = ProbeLog(cluster.enable_probes())
    cluster.start_all()
    start = cluster.loop.now
    cluster.faults.set_duplication(dup)
    for seg in cluster.topology.segments():
        seg.loss = loss
    for t, op, *args in timeline:
        cluster.run(max(0.0, start + t - cluster.loop.now))
        if op == "mcast":
            origin, orderings, size = args
            node = cluster.node(NODES[origin])
            if node.is_member:
                for letter in orderings:
                    node.multicast(b"x" * size, ordering=SAFE if letter == "s" else AGREED)
        elif op == "partition":
            cluster.faults.partition(*args)
        elif op == "heal":
            cluster.faults.heal_partition()
        elif op == "lose_token":
            cluster.faults.lose_token_in_flight()
        elif op == "crash":
            cluster.faults.crash_node(args[0])
        elif op == "recover":
            cluster.faults.recover_node(args[0])
    for seg in cluster.topology.segments():
        seg.loss = 0.0
    cluster.faults.set_duplication(0.0)
    cluster.faults.heal_partition()
    cluster.run(4.0)
    return cluster, log


def cluster_divergence(name: str, drains: Drains) -> str | None:
    cluster, log = run_cluster(name)
    events = list(log)
    for node in NODES:
        want = delivered(cluster.listener(node).deliveries)
        got = expanded(events, node)
        if got != want:
            at = next(
                (i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                min(len(got), len(want)),
            )
            return f"{name}: {node} delivery {at} differs ({len(got)} vs {len(want)})"
    for runs in drains.split(events):
        pair = joinable(runs)
        if pair is not None:
            return f"{name}: one drain emitted joinable runs {pair}"
    return None


def test_scenarios_deliver_and_exercise_runs(monkeypatch):
    """Not vacuous: every scenario delivers, and between them they close
    runs on every rule (origin, ordering, msg_no) and run longer than one."""
    drains = Drains(monkeypatch)
    closes = set()
    longest = 0
    for name in SCENARIOS:
        cluster, log = run_cluster(name)
        assert all(cluster.listener(n).deliveries for n in NODES), name
        for runs in drains.split(list(log)):
            longest = max([longest] + [r[3] for r in runs])
            for a, b in zip(runs, runs[1:]):
                if a[0] != b[0]:
                    closes.add("origin" if a[1] + a[3] == b[1] else "other")
                elif a[2] != b[2]:
                    closes.add("ordering" if a[1] + a[3] == b[1] else "other")
                elif a[1] + a[3] != b[1]:
                    closes.add("gap")
    assert longest > 1
    assert {"origin", "ordering"} <= closes


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_expanded_runs_are_the_deliveries(name, monkeypatch):
    assert cluster_divergence(name, Drains(monkeypatch)) is None


# ----------------------------------------------------------------------
# hand-built hold queues: the four ways a run closes
# ----------------------------------------------------------------------
def probed_node():
    loop, net, node = make_node("A", ("B", "C"))
    bus = ProbeBus(loop)
    node.probe = bus
    return node, ProbeLog(bus)


def hold(node, *packs) -> None:
    token = Token(membership=("A", "B", "C"))
    token.messages.extend(packs)
    node.multicast_service._receive_pass(token)


def runs_of(log) -> list[tuple]:
    return [e.args for e in log if e.kind == "mcast.deliver"]


def gap_by_duplicate_suppression(node) -> list[tuple]:
    """B#2 was seen before (a replayed token): the pack B#1..3 holds B#1
    and B#3 only, and one drain delivers both."""
    hold(node, make_msg("B", 2, "ABC", pending={"A"}))
    assert drain(node) == [("B", 2)]
    hold(node, make_msg("B", 1, "ABC", pending={"A"},
                        riders=(Rider("B", 2, "B#2", 10), Rider("B", 3, "B#3", 10))))
    return [("B", 1, "agreed", 1), ("B", 3, "agreed", 1)]


def origin_change(node) -> list[tuple]:
    """B's pack ends at B#2 and C's starts at C#3: two runs."""
    hold(node,
         make_msg("B", 1, "ABC", pending={"A"}, riders=(Rider("B", 2, "B#2", 10),)),
         make_msg("C", 3, "ABC", pending={"A"}))
    return [("B", 1, "agreed", 2), ("C", 3, "agreed", 1)]


def ordering_change(node) -> list[tuple]:
    """A confirmed SAFE B#1 releases the AGREED B#2 held behind it."""
    safe = make_msg("B", 1, "ABC", pending={"A"}, ordering=SAFE)
    hold(node, safe, make_msg("B", 2, "ABC", pending={"A"}))
    assert drain(node) == []
    safe.confirmed = True
    safe.pending = {"A"}
    hold(node, safe)
    return [("B", 1, "safe", 1), ("B", 2, "agreed", 1)]


def closes_at_drain_end(node) -> list[tuple]:
    """The last run of a drain is emitted although nothing follows it."""
    hold(node, make_msg("B", 1, "ABC", pending={"A"},
                        riders=(Rider("B", 2, "B#2", 10), Rider("B", 3, "B#3", 10))))
    return [("B", 1, "agreed", 3)]


def closes_at_a_waiting_safe(node) -> list[tuple]:
    """A drain that stops at an unconfirmed SAFE message still emits the
    run before it, and only what was delivered."""
    hold(node,
         make_msg("B", 1, "ABC", pending={"A"}, riders=(Rider("B", 2, "B#2", 10),)),
         make_msg("B", 3, "ABC", pending={"A"}, ordering=SAFE))
    return [("B", 1, "agreed", 2)]


def packs_that_continue_join(node) -> list[tuple]:
    """B's packs B#1..2 and B#3..4, held as two runs, deliver as one."""
    hold(node,
         make_msg("B", 1, "ABC", pending={"A"}, riders=(Rider("B", 2, "B#2", 10),)),
         make_msg("B", 3, "ABC", pending={"A"}, riders=(Rider("B", 4, "B#4", 10),)))
    return [("B", 1, "agreed", 4)]


HELD = [gap_by_duplicate_suppression, origin_change, ordering_change,
        closes_at_drain_end, closes_at_a_waiting_safe, packs_that_continue_join]


def held_divergence(case) -> str | None:
    node, log = probed_node()
    want = case(node)
    mark = len(log)  # the runs of this drain only, not of the case's own
    keys = drain(node)
    runs = runs_of(log[mark:])
    if runs != want:
        return f"{case.__name__}: runs {runs}, expected {want}"
    if keys != [(o, n) for o, first, _, count in want for n in range(first, first + count)]:
        return f"{case.__name__}: delivered {keys}"
    return None


@pytest.mark.parametrize("case", HELD, ids=lambda c: c.__name__)
def test_a_run_closes_where_it_must(case):
    assert held_divergence(case) is None


class _Restarts(RecordingListener):
    """Restarts its node (empties the hold queue, as a restart does) from
    inside its ``at``-th delivery."""

    def __init__(self, node, at: int) -> None:
        super().__init__()
        self.node, self.at = node, at

    def on_deliver(self, delivery) -> None:
        super().on_deliver(delivery)
        if len(self.deliveries) == self.at:
            self.node.multicast_service.reset()


def restart_divergence(probes: bool = True) -> str | None:
    """Two held runs, B#1..3 then C#1; the listener restarts the node in
    the second delivery.  The drain stops there: B#1 and B#2 delivered
    and counted, one run of two emitted, nothing left held."""
    node, log = probed_node()
    if not probes:
        node.probe = None
    hold(node,
         make_msg("B", 1, "ABC", pending={"A"},
                  riders=(Rider("B", 2, "B#2", 10), Rider("B", 3, "B#3", 10))),
         make_msg("C", 1, "ABC", pending={"A"}))
    node.listener = listener = _Restarts(node, 2)
    counted = node.stats.messages_delivered
    node.multicast_service._drain_deliverable()
    got = (
        listener.delivery_keys,
        node.stats.messages_delivered - counted,
        runs_of(log),
        len(node.multicast_service._hold),
    )
    want = ([("B", 1), ("B", 2)], 2, [("B", 1, "agreed", 2)] if probes else [], 0)
    return None if got == want else f"restart mid-run: {got}, expected {want}"


@pytest.mark.parametrize("probes", [True, False], ids=["probes-on", "probes-off"])
def test_a_restart_mid_run_stops_the_drain(probes):
    assert restart_divergence(probes) is None


def test_a_listener_that_runs_the_departure_half_mid_drain():
    """A listener that leaves mid-drain runs the departure half inside the
    drain (attach the outbox, deliver own): every held message and the
    newly attached one are delivered exactly once, in queue order."""
    node, log = probed_node()
    hold(node, make_msg("B", 1, "ABC", pending={"A"},
                        riders=(Rider("B", 2, "B#2", 10), Rider("B", 3, "B#3", 10))))
    service = node.multicast_service
    token = Token(membership=("A", "B", "C"))

    class Departs(RecordingListener):
        def on_deliver(self, delivery) -> None:
            super().on_deliver(delivery)
            if delivery.msg_no == 2 and delivery.origin == "B":
                service.multicast(b"own")
                service.on_depart(token)

    node.listener = listener = Departs()
    service._drain_deliverable()
    assert listener.delivery_keys == [("B", 1), ("B", 2), ("B", 3), ("A", 1)]
    assert not service._hold
    assert runs_of(log) == [("B", 1, "agreed", 3), ("A", 1, "agreed", 1)]


def test_a_raising_listener_spends_what_it_was_handed():
    """A listener that raises in B#2 has been handed B#1 and B#2: the next
    drain starts at B#3, and the count covers all three once."""
    node, log = probed_node()
    hold(node, make_msg("B", 1, "ABC", pending={"A"},
                        riders=(Rider("B", 2, "B#2", 10), Rider("B", 3, "B#3", 10))))

    class Raises(RecordingListener):
        def on_deliver(self, delivery) -> None:
            super().on_deliver(delivery)
            if delivery.msg_no == 2:
                raise RuntimeError("listener bug")

    node.listener = Raises()
    with pytest.raises(RuntimeError):
        node.multicast_service._drain_deliverable()
    assert drain(node) == [("B", 3)]
    assert node.stats.messages_delivered == 3


def test_probe_off_drain_delivers_the_same():
    loop, net, node = make_node("A", ("B", "C"))
    assert node.probe is None
    closes_at_drain_end(node)
    assert drain(node) == [("B", 1), ("B", 2), ("B", 3)]


# ----------------------------------------------------------------------
# old artifacts: a bundle of per-message delivers reads like runs
# ----------------------------------------------------------------------
#: ``small_ring()``'s stream as the per-message emitter bundled it (schema
#: ``repro.obs.bundle/2``, one 3-field ``mcast.deliver`` per message).
V2_BUNDLE = Path(__file__).parent / "data" / "bundle_v2_per_message.json"


def small_ring() -> list:
    """Three nodes, mixed AGREED/SAFE bursts from every origin, a 10%
    lossy lap; the probe stream after the ring formed."""
    cluster = RaincoreCluster(["A", "B", "C"], seed=1)
    log = ProbeLog(cluster.enable_probes())
    cluster.start_all()
    start = cluster.loop.now
    for seg in cluster.topology.segments():
        seg.loss = 0.1
    for origin, orderings in (("A", "aasa"), ("B", "aa"), ("C", "saa")):
        for letter in orderings:
            cluster.node(origin).multicast(b"x" * 20, ordering=SAFE if letter == "s" else AGREED)
    cluster.run(0.08)
    return [e for e in log if e.at >= start]


def test_a_v2_bundle_of_per_message_delivers_renders_like_runs(tmp_path):
    raw = json.loads(V2_BUNDLE.read_text())
    assert raw["schema"] == "repro.obs.bundle/2"
    assert {len(r["args"]) for r in raw["events"] if r["kind"] == "mcast.deliver"} == {3}
    old = bundle_events(load_bundle(V2_BUNDLE))
    new = bundle_events(load_bundle(
        dump_bundle(build_bundle("runs", events=small_ring()), tmp_path / "runs.json")
    ))
    delivers = [[e for e in events if e.kind == "mcast.deliver"] for events in (old, new)]
    assert {e.args[3] for e in delivers[0]} == {1}
    assert len(delivers[1]) < len(delivers[0])
    assert trace_rows(old) == trace_rows(new)
    spans = sorted({(e.args[0], e.args[1]) for e in delivers[0]})
    assert len(spans) == 9
    for origin, msg_no in spans:
        assert chain_rows(old, origin, msg_no) == chain_rows(new, origin, msg_no)
    assert attached_bytes(old) == attached_bytes(new)


def chain_rows(events, origin: str, msg_no: int) -> list[tuple]:
    """The span's causal chain, its attach cut to what a per-message
    attach and the attach run covering the span have in common."""
    rows = []
    for e in causal_chain(events, origin, msg_no):
        if e.kind == "mcast.attach":
            _, first, ordering, count, _, audience, gen = e.args
            assert first <= msg_no < first + count, e.args
            rows.append((e.at, e.node, e.kind, origin, ordering, audience, gen))
        else:
            rows.append((e.at, e.node, e.kind, e.args))
    return rows


def attached_bytes(events) -> dict[tuple, int]:
    """Payload bytes attached per (time, node, origin), at any granularity."""
    out: dict[tuple, int] = {}
    for e in events:
        if e.kind == "mcast.attach":
            key = (e.at, e.node, e.args[0])
            out[key] = out.get(key, 0) + e.args[4]
    return out


# ----------------------------------------------------------------------
# seeded mutants: each one must be caught
# ----------------------------------------------------------------------
def _production(head: Rider, end: int, msg: Rider) -> bool:
    return msg.msg_no == end and msg.origin == head.origin and msg.ordering is head.ordering


def mutated_drain(continues, close: bool = True, pop_first: bool = False):
    """The production drain with its run rule (``continues``), its closing
    emit (``close``) and when a held run leaves the queue (``pop_first``)
    swappable."""

    def drain_deliverable(self: MulticastService) -> None:
        hold, waiting, node = self._hold, self._waiting, self.node
        on_deliver, now, probe = node.listener.on_deliver, node.loop.now, node.probe
        head, end, delivered = None, 0, 0
        try:
            while hold:
                run = hold[0]
                msg = run[0]
                if waiting and (msg.origin, msg.msg_no) in waiting:
                    break
                if pop_first:
                    hold.popleft()
                if probe is not None and (head is None or not continues(head, end, msg)):
                    if head is not None:
                        self._emit_run(probe, head, end)
                    head = msg
                before = delivered
                for msg in run:
                    delivered += 1
                    on_deliver(Delivery(msg.origin, msg.msg_no, msg.payload, msg.ordering, now))
                    if not hold:
                        break
                end = run[0].msg_no + delivered - before
                if not hold:
                    break
                if not pop_first:
                    hold.popleft()
        finally:
            node.stats.messages_delivered += delivered
        if head is not None and close:
            self._emit_run(probe, head, end)

    return drain_deliverable


MUTANTS = {
    "the closing run is never emitted": mutated_drain(_production, close=False),
    "a run continues across an origin change": mutated_drain(
        lambda head, end, msg: msg.msg_no == end and msg.ordering is head.ordering
    ),
    "a run continues across an ordering change": mutated_drain(
        lambda head, end, msg: msg.msg_no == end and msg.origin == head.origin
    ),
    "a run continues across a msg_no gap": mutated_drain(
        lambda head, end, msg: msg.origin == head.origin and msg.ordering is head.ordering
    ),
    "a held run is popped before it is delivered": mutated_drain(
        _production, pop_first=True
    ),
}


def caught(monkeypatch) -> list[str]:
    """Every divergence the held cases and the scenarios report."""
    found = [d for d in map(held_divergence, HELD) if d is not None]
    found += [d for d in (restart_divergence(),) if d is not None]
    drains = Drains(monkeypatch)
    found += [d for d in (cluster_divergence(n, drains) for n in SCENARIOS) if d]
    return found


def test_the_unmutated_mirror_agrees(monkeypatch):
    monkeypatch.setattr(MulticastService, "_drain_deliverable", mutated_drain(_production))
    assert caught(monkeypatch) == []


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_seeded_mutant_is_killed(name, monkeypatch):
    monkeypatch.setattr(MulticastService, "_drain_deliverable", MUTANTS[name])
    assert caught(monkeypatch)
