"""Reference contract-monitor evaluator: one flat buffer, scanned whole.

This is the evaluator ``repro.obs.monitor`` shipped before its store was
indexed by (kind, node): every event of every node in one list, each rule
window rebuilt by scanning that list, ``kinds()`` scanning the window
again, and ``fd-latency`` walking the window in emission order.  It is
slow on purpose — it has no index to get wrong — and exists so
``test_monitor_equivalence.py`` can replay one probe stream through both
evaluators and demand the same alerts, record for record.

Only the store, the window and the one rule that read ``w.events`` live
here; every other check is the registered production function, which by
construction sees nothing but ``kinds()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.obs.monitor import CONTRACT_RULES, Alert, Breach, RuleSpec
from repro.obs.probe import ProbeEvent

_UP_STATES = frozenset({"hungry", "eating", "starving"})


@dataclass(frozen=True)
class ReferenceWindow:
    start: float
    end: float
    node: str
    events: tuple[ProbeEvent, ...]
    uptime: float
    view_size: int
    params: Mapping[str, float]

    def kinds(self, kind: str) -> list[ProbeEvent]:
        return [e for e in self.events if e.kind == kind]

    @property
    def span(self) -> float:
        return self.end - self.start


def reference_fd_latency(w: ReferenceWindow) -> Breach | None:
    bound = w.params["bound"]
    tolerance = w.params["tolerance"]
    limit = bound * (1.0 + tolerance)
    armed: dict[tuple[object, object], float] = {}
    worst: tuple[float, ProbeEvent] | None = None
    for e in w.events:
        if e.kind == "fd.arm":
            armed[(e.args[0], e.args[1])] = e.at
        elif e.kind in ("fd.fire", "fd.false_alarm"):
            at_armed = armed.pop((e.args[0], e.args[1]), None)
            if at_armed is None:
                continue
            latency = e.at - at_armed
            if worst is None or latency > worst[0]:
                worst = (latency, e)
    if worst is not None and worst[0] > limit:
        latency, e = worst
        return (
            latency,
            limit,
            f"failure-on-delivery verdict ({e.kind}) for peer {e.args[0]} "
            f"took {latency:.3f}s > {limit:.3f}s detection bound",
        )
    return None


class ReferenceMonitor:
    """The whole-buffer evaluator, fed by ``ingest`` / ``evaluate(now)``."""

    def __init__(self, rules: list[RuleSpec]) -> None:
        self.rules = list(rules)
        self.alerts: list[Alert] = []
        self.events: list[ProbeEvent] = []
        self._horizon = max((r.window for r in self.rules), default=1.0)
        self._up_since: dict[str, float | None] = {}
        self._view_size: dict[str, int] = {}
        self._breached_since: dict[tuple[str, str], float] = {}
        self._latched: set[tuple[str, str]] = set()

    def ingest(self, event: ProbeEvent) -> None:
        self.events.append(event)
        if event.kind == "node.state":
            self._view_size.setdefault(event.node, 1)
            if event.args[1] in _UP_STATES:
                if self._up_since.get(event.node) is None:
                    self._up_since[event.node] = event.at
            else:
                self._up_since[event.node] = None
        elif event.kind == "view.change":
            self._up_since.setdefault(event.node, None)
            self._view_size[event.node] = max(1, len(event.args[1]))

    def _uptime(self, node: str, now: float) -> float:
        since = self._up_since.get(node)
        return 0.0 if since is None else now - since

    def _window(self, rule: RuleSpec, node: str, now: float) -> ReferenceWindow:
        start = now - rule.window
        if node == "*":
            events = tuple(e for e in self.events if e.at >= start)
            uptime = max((self._uptime(n, now) for n in self._view_size), default=0.0)
            view = max(self._view_size.values(), default=1)
        else:
            events = tuple(
                e for e in self.events if e.node == node and e.at >= start
            )
            uptime = self._uptime(node, now)
            view = self._view_size[node]
        return ReferenceWindow(
            start, now, node, events, uptime, view, rule.params
        )

    def evaluate(self, now: float) -> None:
        cutoff = now - self._horizon
        drop = 0
        for e in self.events:
            if e.at >= cutoff:
                break
            drop += 1
        del self.events[:drop]
        for rule in self.rules:
            targets = ["*"] if rule.scope == "cluster" else sorted(self._view_size)
            check = (
                reference_fd_latency
                if rule.name == "fd-latency"
                else CONTRACT_RULES[rule.name]
            )
            for node in targets:
                key = (rule.name, node)
                breach = check(self._window(rule, node, now))
                if breach is None:
                    self._breached_since.pop(key, None)
                    self._latched.discard(key)
                    continue
                value, bound, detail = breach
                since = self._breached_since.setdefault(key, now)
                if key in self._latched:
                    continue
                if now - since >= rule.for_duration:
                    self.alerts.append(
                        Alert(
                            rule=rule.name,
                            severity=rule.severity,
                            node=node,
                            at=now,
                            since=since,
                            value=value,
                            bound=bound,
                            detail=detail,
                        )
                    )
                    self._latched.add(key)

    def alert_records(self) -> list[dict]:
        return [a.record() for a in self.alerts]
