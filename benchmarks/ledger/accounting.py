"""Op accounting and the correctness checks every workload runs.

A :class:`Ledger` follows each multicast from the moment the load generator
issues it to the moment every member that stayed in the origin's view has
delivered it, and checks agreed order on the way.  One :class:`Tap` per node
is that node's session listener; it keeps a count and an ordinal, never a
``Delivery``, so the working set stays flat however long the run is (the
harness's ``RecordingListener`` retains every delivery).

Agreed order is checked online instead of by comparing per-node hashes at
the end: the origin delivers its own message first (at token attach), which
fixes the message's ordinal in the group's total order, and every node's
deliveries must then carry strictly increasing ordinals.  At quiescence this
is equivalent to equal rolling hashes; unlike a hash it also holds mid-stream
and across partitions, where the two sides deliver disjoint subsequences.
A delivery repeated at one node breaks the same rule.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import deque
from typing import Callable

from repro.core.events import Delivery, SessionListener, ViewChange

__all__ = [
    "Ledger",
    "Tap",
    "nearest_rank",
    "check_ledger",
    "check_replicas_agree",
    "check_locks",
    "check_rainwall",
    "check_merged",
    "check_fabric",
    "check_same_work",
    "negative_selftest",
]

#: Completed multicasts whose ordinal is remembered, so that a straggling or
#: repeated delivery can still be order-checked after the books closed on it.
RECENT = 8192


def nearest_rank(sorted_values, q: float) -> float:
    """The q-quantile of an ascending sequence by the nearest-rank rule."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    return sorted_values[min(n - 1, max(0, math.ceil(q * n) - 1))]


class Ledger:
    """Books for one run: ops issued, ops agreed-delivered, order broken.

    ``clock`` returns the cluster's time (virtual seconds on the simulator,
    the asyncio clock on real UDP).  An op completes when every member of
    the origin's view *at its own delivery* has delivered it; members the
    origin later sees leave its view (crash, partition) are excused, which
    is the protocol's atomicity contract (paper §2.6: every surviving
    audience member, or none).  ``late_limit`` counts (``late``) the completed
    ops that took longer than that many clock seconds; the limit itself is
    held against the 99th percentile, which the run reports.
    """

    def __init__(self, clock: Callable[[], float], late_limit: float | None = None):
        self.clock = clock
        self.late_limit = late_limit
        self.sent: dict[tuple[str, int], float] = {}
        self.open: dict[tuple[str, int], list] = {}
        self.by_origin: dict[str, dict[tuple[str, int], list]] = {}
        self.recent: dict[tuple[str, int], int] = {}
        self._recent_fifo: deque[tuple[str, int]] = deque()
        self.next_ordinal = 0
        self.latencies = array("d")
        self.attempted = 0
        self.completed = 0
        self.late = 0
        #: Issue time of the most recently issued op among those completed.
        self.last_done_issue = float("-inf")
        self.broken: list[str] = []
        #: Issue time to book for multicasts made *inside* a call the load
        #: generator is making right now (``SharedDict.set`` returns nothing).
        self.tag: float | None = None
        #: Book every multicast a watched node makes (apps that generate
        #: their own traffic); off once :meth:`close` is called.
        self.track_all = False

    # -- issuing ---------------------------------------------------------
    def issue(self, key: tuple[str, int], at: float) -> None:
        self.sent[key] = at
        self.attempted += 1

    def watch(self, node) -> None:
        """Book multicasts that code under test makes on ``node`` itself."""
        inner = node.multicast

        def multicast(*args, **kwargs):
            key = inner(*args, **kwargs)
            at = self.tag
            if at is None and self.track_all:
                at = self.clock()
            if at is not None:
                self.issue(key, at)
            return key

        node.multicast = multicast

    def close(self) -> None:
        self.track_all = False

    @property
    def in_flight(self) -> int:
        """Ops issued and not yet agreed-delivered; after the drain, the
        run's failed ops."""
        return self.attempted - self.completed

    # -- completion ------------------------------------------------------
    def _complete(self, key: tuple[str, int], entry: list) -> None:
        del self.open[key]
        del self.by_origin[key[0]][key]
        self.recent[key] = entry[0]
        fifo = self._recent_fifo
        fifo.append(key)
        if len(fifo) > RECENT:
            del self.recent[fifo.popleft()]
        issued = entry[2]
        if issued is not None:
            took = self.clock() - issued
            self.latencies.append(took)
            self.completed += 1
            if self.late_limit is not None and took > self.late_limit:
                self.late += 1
            if issued > self.last_done_issue:
                self.last_done_issue = issued

    def percentiles_ms(self) -> tuple[float, float]:
        ordered = sorted(self.latencies)
        return nearest_rank(ordered, 0.50) * 1e3, nearest_rank(ordered, 0.99) * 1e3


class Tap(SessionListener):
    """One node's listener: counts, order-checks and books deliveries."""

    def __init__(self, ledger: Ledger, node) -> None:
        self.ledger = ledger
        self.node = node
        self.nid = node.node_id
        self.last = 0  # ordinal of this node's latest delivery
        self.delivered = 0
        self.views = 0
        self.last_view_at = 0.0
        ledger.by_origin.setdefault(self.nid, {})

    def on_deliver(self, delivery: Delivery) -> None:
        ledger = self.ledger
        self.delivered += 1
        key = (delivery.origin, delivery.msg_no)
        entry = ledger.open.get(key)
        if entry is None:
            ordinal = ledger.recent.get(key)
            if ordinal is None:
                if delivery.origin != self.nid:
                    ledger.broken.append(
                        f"{self.nid} delivered {key} before its origin did"
                    )
                    return
                ledger.next_ordinal += 1
                entry = [
                    ledger.next_ordinal,
                    set(self.node.members),
                    ledger.sent.pop(key, None),
                ]
                ledger.open[key] = entry
                ledger.by_origin[self.nid][key] = entry
            else:
                # The books are closed on this one; only its order matters.
                if ordinal <= self.last:
                    ledger.broken.append(
                        f"{self.nid} delivered {key} out of agreed order"
                    )
                else:
                    self.last = ordinal
                return
        ordinal = entry[0]
        if ordinal <= self.last:
            ledger.broken.append(f"{self.nid} delivered {key} out of agreed order")
        else:
            self.last = ordinal
        waiting = entry[1]
        waiting.discard(self.nid)
        if not waiting:
            ledger._complete(key, entry)

    def on_view_change(self, view: ViewChange) -> None:
        self.views += 1
        self.last_view_at = view.at
        mine = self.ledger.by_origin[self.nid]
        if mine:
            members = set(view.members)
            for key, entry in list(mine.items()):
                entry[1] &= members
                if not entry[1]:
                    self.ledger._complete(key, entry)


# ----------------------------------------------------------------------
# end-of-run checks: each returns the invariants it found broken
# ----------------------------------------------------------------------
def check_ledger(ledger: Ledger, taps: list[Tap], quiescent: bool) -> list[str]:
    """Agreed order held, and (on a drained ring) everyone delivered the same
    number of messages."""
    broken = list(ledger.broken[:5])
    if len(ledger.broken) > 5:
        broken.append(f"... and {len(ledger.broken) - 5} more order violations")
    if quiescent:
        counts = {tap.nid: tap.delivered for tap in taps}
        if len(set(counts.values())) > 1:
            broken.append(f"delivered counts differ after drain: {counts}")
    return broken


def check_replicas_agree(snapshots: dict[str, dict]) -> list[str]:
    distinct = {tuple(sorted(s.items())) for s in snapshots.values()}
    return [] if len(distinct) <= 1 else [
        f"SharedDict replicas diverged into {len(distinct)} states after drain"
    ]


def check_locks(double_grants: int, tables: dict[str, dict], grants: int, acquires: int) -> list[str]:
    broken = []
    if double_grants:
        broken.append(f"a lock was granted while still held ({double_grants} times)")
    if len({tuple(sorted(t.items())) for t in tables.values()}) > 1:
        broken.append("lock tables differ between replicas after drain")
    if grants != acquires:
        broken.append(f"{acquires} acquires but {grants} grants")
    return broken


def check_rainwall(mbps: float, cpu_percent: float) -> list[str]:
    broken = []
    if not 361.0 <= mbps <= 399.0:
        broken.append(f"Rainwall throughput {mbps:.1f} Mbit/s outside 380 +/- 5%")
    if not cpu_percent < 1.0:
        broken.append(f"modelled Raincore CPU {cpu_percent:.2f}% is not below 1%")
    return broken


def check_merged(views: dict[str, tuple[str, ...]], expected: set[str], holders: list[str]) -> list[str]:
    broken = []
    if {frozenset(v) for v in views.values()} != {frozenset(expected)}:
        broken.append(f"ring did not end fully merged: {views}")
    if len(holders) != 1:
        broken.append(f"expected exactly one token holder, found {holders}")
    return broken


def check_fabric(dropped: int) -> list[str]:
    return [f"UdpFabric dropped {dropped} datagrams"] if dropped else []


def check_same_work(reports: list[dict], exact_metrics: tuple[str, ...]) -> list[str]:
    """Simulated clock: the repeats of one seed must have executed the same
    event sequence — equal public counters, equal virtual-time metrics."""
    first = reports[0]
    for report in reports[1:]:
        if report["counters"] != first["counters"] or any(
            report["metrics"][name] != first["metrics"][name] for name in exact_metrics
        ):
            return ["two repeats of one seed did different work"]
    return []


# ----------------------------------------------------------------------
# negative self-test: every check must fail when it should
# ----------------------------------------------------------------------
class _FakeNode:
    def __init__(self, node_id: str, members: tuple[str, ...]) -> None:
        self.node_id = node_id
        self.members = members


def _replay(orders: dict[str, list[tuple[str, int]]]) -> tuple[Ledger, list[Tap]]:
    """Issue what origin "a" delivers, then feed each node's sequence through
    a real tap ("a" is listed first, as the origin must deliver first)."""
    ledger = Ledger(lambda: 0.0)
    taps = {nid: Tap(ledger, _FakeNode(nid, tuple(orders))) for nid in orders}
    for key in orders["a"]:
        ledger.issue(key, 0.0)
    for nid, sequence in orders.items():
        for key in sequence:
            taps[nid].on_deliver(Delivery(key[0], key[1], None, None, 0.0))
    return ledger, list(taps.values())


def negative_selftest(seed: int = 0) -> list[tuple[str, bool]]:
    """Break each invariant on purpose; return (check, did_it_bite) pairs."""
    rng = random.Random(seed)
    keys = [("a", i) for i in range(1, 21)]
    good = {"a": list(keys), "b": list(keys), "c": list(keys)}
    results: list[tuple[str, bool]] = []

    ledger, taps = _replay(good)
    results.append(("clean run passes", not check_ledger(ledger, taps, True) and ledger.in_flight == 0))

    i = rng.randrange(len(keys) - 1)
    swapped = list(keys)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    ledger, taps = _replay({**good, "b": swapped})
    results.append(("reordered delivery", bool(check_ledger(ledger, taps, True))))

    dropped = list(keys)
    del dropped[rng.randrange(len(keys))]
    ledger, taps = _replay({**good, "c": dropped})
    results.append(("dropped message counted failed", ledger.in_flight == 1))
    results.append(("dropped message breaks counts", bool(check_ledger(ledger, taps, True))))

    twice = list(keys)
    twice.insert(rng.randrange(1, len(keys)), twice[0])
    ledger, taps = _replay({**good, "b": twice})
    results.append(("repeated delivery", bool(check_ledger(ledger, taps, True))))

    late = Ledger(lambda: 0.080, late_limit=0.050)
    tap = Tap(late, _FakeNode("a", ("a",)))
    late.issue(("a", 1), 0.0)
    tap.on_deliver(Delivery("a", 1, None, None, 0.0))
    results.append(("op over the latency limit counted", late.late == 1 and late.in_flight == 0))

    results.append(("diverged replicas", bool(check_replicas_agree({"a": {"k": 1}, "b": {"k": 2}}))))
    results.append(("lock held twice", bool(check_locks(1, {"a": {}, "b": {}}, 5, 5))))
    results.append(("lost grant", bool(check_locks(0, {"a": {}, "b": {}}, 4, 5))))
    results.append(("Rainwall throughput low", bool(check_rainwall(300.0, 0.2))))
    results.append(("Rainwall CPU high", bool(check_rainwall(380.0, 1.5))))
    results.append(("ring left split", bool(check_merged(
        {"a": ("a", "b"), "b": ("a", "b"), "c": ("c",)}, {"a", "b", "c"}, ["a"]))))
    results.append(("two token holders", bool(check_merged(
        {"a": ("a", "b"), "b": ("a", "b")}, {"a", "b"}, ["a", "b"]))))
    results.append(("fabric drop", bool(check_fabric(3))))
    repeat = {"counters": {"events": 10}, "metrics": {"deliver_p99_ms": 76.0}}
    results.append(("equal repeats pass", not check_same_work([repeat, repeat], ("deliver_p99_ms",))))
    results.append(("repeat with another event count", bool(check_same_work(
        [repeat, {**repeat, "counters": {"events": 11}}], ("deliver_p99_ms",)))))
    results.append(("repeat with another latency", bool(check_same_work(
        [repeat, {**repeat, "metrics": {"deliver_p99_ms": 76.5}}], ("deliver_p99_ms",)))))
    return results
