"""The probe bus: typed, deterministic protocol events from every layer.

Every layer of the stack carries an optional ``probe`` attribute (a
:class:`ProbeBus` or ``None``).  Instrumented call sites follow one idiom::

    probe = self.probe
    if probe is not None:
        probe.emit(self.node_id, "token.accept", src, gen, seq, n_msgs)

so a disabled probe costs exactly one attribute load and one ``None`` test
on the hot path — unmeasurable next to the work being observed (the
``probe_overhead_ratio`` benchmark in :mod:`repro.perf` gates this).

Design rules (enforced by raincheck RC401/RC402, docs/DETERMINISM.md):

* **Lazy formatting** — ``emit`` takes raw positional values, never
  pre-formatted strings.  The field names live in :data:`PROBE_CATALOG`;
  rendering happens only at export/inspection time.
* **Sim-time only** — events are timestamped by the bus from the event
  loop's virtual clock.  Callers cannot pass a timestamp, and
  :class:`ProbeEvent` is only constructed inside :mod:`repro.obs`.
* **Deterministic values** — arguments must be JSON-safe primitives
  (str/int/float/bool/None or tuples thereof) derived from protocol state.
  Process-global artifacts (``id()``, process-local counters) are
  banned from the stream: two runs with one seed must produce
  byte-identical exports.

The full probe catalogue with per-field semantics is documented in
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.eventloop import EventLoop

__all__ = [
    "PROBE_CATALOG",
    "ProbeEvent",
    "ProbeBus",
    "format_event",
    "event_record",
    "event_from_record",
    "events_to_jsonl",
    "renumber_events",
]

#: kind -> positional field names.  ``emit`` validates arity against this
#: table, and every exporter/renderer uses it to name the raw arguments.
PROBE_CATALOG: dict[str, tuple[str, ...]] = {
    # -- net: the unreliable datagram layer ---------------------------------
    "net.send": ("src", "dst", "frame", "size"),
    "net.drop": ("src", "dst", "frame", "size", "where"),
    "net.deliver": ("src", "dst", "frame", "size"),
    "net.dup": ("src", "dst", "frame", "size"),
    # -- core: one GC task wakeup batch (paper §4.1 task-switch accounting) --
    "core.wakeup": (),
    # -- transport: acknowledged unicast ------------------------------------
    "transport.tx": ("peer", "msg_id", "attempt", "frame", "ctx"),
    "transport.ack": ("peer", "msg_id"),
    "transport.rx": ("peer", "msg_id", "dup"),
    "transport.fail": ("peer", "msg_id"),
    # -- core: session state machine ----------------------------------------
    "node.state": ("old", "new"),
    "node.shutdown": ("reason",),
    "view.change": ("view_id", "members"),
    # -- core: token lineage and travel -------------------------------------
    "token.bootstrap": ("gen",),
    "token.accept": ("src", "gen", "seq", "msgs"),
    "token.stale": ("src", "gen", "seq"),
    "token.foreign": ("src", "gen", "seq"),
    "token.regen": ("gen", "parent", "seq"),
    "token.merge": ("gen", "left", "right", "seq"),
    # -- core: failure detector (failure-on-delivery, paper §2.2) -----------
    "fd.arm": ("peer", "seq"),
    "fd.fire": ("peer", "seq"),
    "fd.false_alarm": ("peer", "seq"),
    # -- core: reliable multicast spans (origin, msg_no) --------------------
    "mcast.attach": ("origin", "msg_no", "ordering", "size", "audience", "gen"),
    "mcast.deliver": ("origin", "msg_no", "ordering"),
    "mcast.confirm": ("origin", "msg_no"),
    # -- core: 911 recovery and join (paper §2.3) ---------------------------
    "recovery.round": ("round_id", "last_seq", "peers"),
    "recovery.denied": ("round_id",),
    "recovery.join": ("contact", "attempt"),
    # -- core: replica state transfer ---------------------------------------
    "state.snapshot": ("service",),
    "state.install": ("service", "late"),
    "state.sync_request": ("service",),
    # -- data: bounded-state resync (docs/RESYNC.md) ------------------------
    "resync.prune": ("service", "upto", "segments", "bytes", "forced"),
    "resync.delta": ("service", "peer", "from_seq", "entries", "bytes"),
    "resync.snapshot_fallback": ("service", "peer", "peer_seq", "window_floor"),
    "resync.quarantine": ("peer", "reason", "active"),
    "resync.buffer": ("component", "bytes", "budget"),
    # -- telemetry: the live probe-shipping plane (docs/TELEMETRY.md) --------
    "telemetry.hello": ("source", "addr", "schema"),
    "telemetry.gap": ("source", "expected", "got", "lost"),
    "telemetry.drop": ("where", "size"),
    "telemetry.silent": ("source", "quiet"),
    "telemetry.bye": ("source", "shipped"),
    # -- apps ----------------------------------------------------------------
    "app.vip_install": ("vip",),
    "app.vip_release": ("vip",),
}


class ProbeEvent:
    """One emitted probe: bus-assigned ordinal, sim time, node, kind, args.

    ``n`` is the bus's global emission ordinal — sorting by it reconstructs
    the exact cluster-wide interleaving, including ties at one virtual
    instant.  ``args`` stays the raw positional tuple; field names come
    from :data:`PROBE_CATALOG` only when somebody looks.
    """

    __slots__ = ("n", "at", "node", "kind", "args")

    def __init__(
        self, n: int, at: float, node: str, kind: str, args: tuple
    ) -> None:
        self.n = n
        self.at = at
        self.node = node
        self.kind = kind
        self.args = args

    def data(self) -> dict[str, object]:
        """Field-name → value mapping per the catalogue (lazy formatting)."""
        return dict(zip(PROBE_CATALOG[self.kind], self.args))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProbeEvent({self.n}, {self.at:.6f}, {self.node}, {self.kind}, {self.args})"


class ProbeBus:
    """Per-cluster event sink fanning probe events out to subscribers.

    The bus stamps each event with the loop's virtual time and a global
    emission ordinal, then calls every subscriber synchronously — so a
    subscriber observes protocol state exactly as it was at the emitting
    call site.  Subscribers must not mutate protocol state.
    """

    __slots__ = ("loop", "events_emitted", "_listeners")

    def __init__(self, loop: "EventLoop") -> None:
        self.loop = loop
        self.events_emitted = 0
        self._listeners: list[Callable[[ProbeEvent], None]] = []

    def subscribe(self, listener: Callable[[ProbeEvent], None]) -> None:
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[ProbeEvent], None]) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def emit(self, node: str, kind: str, *args: object) -> None:
        """Emit one probe event (enabled path only — callers None-test first).

        Unknown kinds and arity mismatches raise immediately: a mistyped
        probe point is an instrumentation bug, not data.
        """
        fields = PROBE_CATALOG[kind]
        if len(args) != len(fields):
            raise TypeError(
                f"probe {kind!r} takes {len(fields)} args {fields}, got {len(args)}"
            )
        self.events_emitted += 1
        event = ProbeEvent(self.events_emitted, self.loop.now, node, kind, args)
        for listener in self._listeners:
            listener(event)


# ----------------------------------------------------------------------
# export / rendering helpers (cold path: format only when somebody looks)
# ----------------------------------------------------------------------
def format_event(event: ProbeEvent) -> str:
    """Human-readable one-liner: ``kind field=value ...``."""
    parts = [
        f"{name}={value}" for name, value in zip(PROBE_CATALOG[event.kind], event.args)
    ]
    return event.kind if not parts else f"{event.kind} " + " ".join(parts)


def _jsonable(value: object) -> object:
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def event_record(event: ProbeEvent) -> dict[str, object]:
    """Stable JSON-safe record of one event (tuples become lists)."""
    return {
        "n": event.n,
        "at": event.at,
        "node": event.node,
        "kind": event.kind,
        "args": [_jsonable(a) for a in event.args],
    }


def _tupled(values: list) -> tuple:
    return tuple(_tupled(v) if isinstance(v, list) else v for v in values)


def event_from_record(record: dict) -> ProbeEvent:
    """Rebuild a :class:`ProbeEvent` from :func:`event_record` output
    (lists become tuples again, at every depth)."""
    return ProbeEvent(
        record["n"], record["at"], record["node"], record["kind"],
        _tupled(record["args"]),
    )


def renumber_events(events: Iterable[ProbeEvent]) -> list[ProbeEvent]:
    """Reassign ordinals 1..N in the given order, keeping all else intact.

    Used when canonicalizing merged per-shard streams: ``n`` is a
    per-bus emission counter, so a merged stream must renumber in its
    canonical order to stay byte-stable (see repro.parallel.merge).
    """
    return [
        ProbeEvent(i + 1, e.at, e.node, e.kind, e.args)
        for i, e in enumerate(events)
    ]


def events_to_jsonl(events: Iterable[ProbeEvent]) -> str:
    """One compact, key-sorted JSON object per line (byte-stable per seed)."""
    return "\n".join(
        json.dumps(event_record(e), sort_keys=True, separators=(",", ":"))
        for e in events
    )
