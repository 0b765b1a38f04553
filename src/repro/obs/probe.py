"""The probe bus: typed, deterministic protocol events from every layer.

Every layer of the stack carries an optional ``probe`` attribute (a
:class:`ProbeBus` or ``None``).  Instrumented call sites follow one idiom::

    probe = self.probe
    if probe is not None:
        probe.emit(self.node_id, "token.accept", src, gen, seq, n_msgs)

so a disabled probe costs exactly one attribute load and one ``None`` test
on the hot path — unmeasurable next to the work being observed (the
counted-work bill of :mod:`repro.perf` charges it to the emitting layer;
the enabled cost is priced by
``obs.stacked_overhead_ratio`` on the benchmark ledger's
``sim_ring_observed``).

Design rules (enforced by raincheck RC401/RC402, docs/DETERMINISM.md):

* **Lazy formatting** — ``emit`` takes raw positional values, never
  pre-formatted strings.  The field names live in :data:`PROBE_CATALOG`;
  rendering happens only at export/inspection time.
* **Sim-time only** — events are timestamped by the bus from the event
  loop's virtual clock.  Callers cannot pass a timestamp, and
  :class:`ProbeEvent` is only constructed inside :mod:`repro.obs`.
* **Declared types** — every field has one type in :data:`PROBE_TYPES`
  (``tests/test_probe_types.py`` holds every in-tree emitter to them); the
  raintap wire codec (:mod:`repro.runtime.telemetry`) is compiled from the
  same declaration, so a row that does not fit it never becomes an event.
  Process-global artifacts (``id()``, process-local counters) are
  banned from the stream: two runs with one seed must produce
  byte-identical exports.
* **Paid once per batch** — ``emit`` appends to a journal; subscribers
  receive ``list[ProbeEvent]`` batches when it drains (see
  :class:`ProbeBus` for the drain points).

The full probe catalogue with per-field semantics is documented in
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.eventloop import EventLoop

__all__ = [
    "PROBE_CATALOG",
    "PROBE_TYPES",
    "FIELD_TYPES",
    "JOURNAL_BOUND",
    "ProbeEvent",
    "ProbeBus",
    "ProbeConsumer",
    "ProbeLog",
    "conforms",
    "split_fields",
    "format_event",
    "event_record",
    "event_from_record",
    "check_record",
    "events_to_jsonl",
]

#: The probe schema, declared once: kind -> ``"field:type ..."``.  Types:
#: ``str``, ``int`` (signed 64-bit), ``float`` (finite), ``bool``, ``strs``
#: (a tuple of str) and ``any`` (None, bool, int, float, str, or a tuple of
#: those nested at most two deep).  ``strs`` and ``any`` are variable-size
#: and may only be a kind's last field.
_SCHEMA: dict[str, str] = {
    # -- net: the unreliable datagram layer ---------------------------------
    "net.send": "src:str dst:str frame:str size:int",
    "net.drop": "src:str dst:str frame:str size:int where:str",
    "net.deliver": "src:str dst:str frame:str size:int",
    "net.dup": "src:str dst:str frame:str size:int",
    # -- core: one GC task wakeup batch (paper §4.1 task-switch accounting) --
    "core.wakeup": "",
    # -- transport: acknowledged unicast ------------------------------------
    "transport.tx": "peer:str msg_id:int attempt:int frame:str ctx:any",
    "transport.ack": "peer:str msg_id:int",
    "transport.rx": "peer:str msg_id:int dup:bool",
    "transport.fail": "peer:str msg_id:int",
    # -- core: session state machine ----------------------------------------
    "node.state": "old:str new:str",
    "node.shutdown": "reason:str",
    "view.change": "view_id:int members:strs",
    # -- core: token lineage and travel -------------------------------------
    "token.bootstrap": "gen:str",
    "token.accept": "src:str gen:str seq:int msgs:int",
    "token.stale": "src:str gen:str seq:int",
    "token.foreign": "src:str gen:str seq:int",
    "token.regen": "gen:str parent:str seq:int",
    "token.merge": "gen:str left:str right:str seq:int",
    # -- core: failure detector (failure-on-delivery, paper §2.2) -----------
    "fd.arm": "peer:str seq:int",
    "fd.fire": "peer:str seq:int",
    "fd.false_alarm": "peer:str seq:int",
    # -- core: reliable multicast spans (origin, msg_no) --------------------
    # one attach per pack: msg_no .. msg_no + count - 1, size payload bytes
    "mcast.attach": (
        "origin:str msg_no:int ordering:str count:int size:int audience:int gen:str"
    ),
    # one deliver per run: msg_no .. msg_no + count - 1, delivered in order
    "mcast.deliver": "origin:str msg_no:int ordering:str count:int",
    "mcast.confirm": "origin:str msg_no:int",
    # -- core: 911 recovery and join (paper §2.3) ---------------------------
    "recovery.round": "round_id:int last_seq:int peers:int",
    "recovery.denied": "round_id:int",
    "recovery.join": "contact:str attempt:int",
    # -- core: replica state transfer ---------------------------------------
    "state.snapshot": "service:str",
    "state.install": "service:str late:bool",
    "state.sync_request": "service:str",
    # -- data: bounded-state resync (docs/RESYNC.md) ------------------------
    "resync.prune": "service:str upto:int segments:int bytes:int forced:bool",
    "resync.delta": "service:str peer:str from_seq:int entries:int bytes:int",
    "resync.snapshot_fallback": "service:str peer:str peer_seq:int window_floor:int",
    "resync.quarantine": "peer:str reason:str active:bool",
    "resync.buffer": "component:str bytes:int budget:int",
    # -- telemetry: the live probe-shipping plane (docs/TELEMETRY.md) --------
    "telemetry.hello": "source:str addr:str schema:int",
    "telemetry.gap": "source:str expected:int got:int lost:int",
    "telemetry.drop": "where:str size:int",
    "telemetry.silent": "source:str quiet:float",
    "telemetry.bye": "source:str shipped:int",
    # -- apps ----------------------------------------------------------------
    "app.vip_install": "vip:str",
    "app.vip_release": "vip:str",
}

#: Field types a declaration may use; the last two are variable-size.
FIELD_TYPES = ("str", "int", "float", "bool", "strs", "any")
_VARIABLE = ("strs", "any")


def split_fields(spec: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``"a:int b:str"`` -> ``(("a", "b"), ("int", "str"))``, validated."""
    names: list[str] = []
    types: list[str] = []
    for item in spec.split():
        name, _, kind = item.partition(":")
        if kind not in FIELD_TYPES:
            raise ValueError(f"field {item!r}: unknown type {kind!r}")
        if types and types[-1] in _VARIABLE:
            raise ValueError(f"{spec!r}: a variable-size field must come last")
        names.append(name)
        types.append(kind)
    return tuple(names), tuple(types)


_SPLIT = {kind: split_fields(spec) for kind, spec in _SCHEMA.items()}

#: kind -> positional field names.  ``emit`` validates arity against this
#: table, and every exporter/renderer uses it to name the raw arguments.
PROBE_CATALOG: dict[str, tuple[str, ...]] = {k: s[0] for k, s in _SPLIT.items()}

#: kind -> positional field types (see :data:`FIELD_TYPES`).
PROBE_TYPES: dict[str, tuple[str, ...]] = {k: s[1] for k, s in _SPLIT.items()}

_ARITY = {kind: len(names) for kind, names in PROBE_CATALOG.items()}

_I64 = (-(2**63), 2**63 - 1)
#: Tuple levels an ``any`` value may nest, and the items one level may hold.
ANY_DEPTH = 2
ANY_ITEMS = 255
#: Items a ``strs`` tuple may hold.
STRS_ITEMS = 65535


def _is_int(v: object) -> bool:
    return type(v) is int and _I64[0] <= v <= _I64[1]


def _is_float(v: object) -> bool:
    return type(v) is float and math.isfinite(v)


def _is_any(v: object, depth: int = 0) -> bool:
    if v is None or type(v) is bool or type(v) is str:
        return True
    if type(v) is tuple:
        return (
            depth < ANY_DEPTH
            and len(v) <= ANY_ITEMS
            and all(_is_any(x, depth + 1) for x in v)
        )
    return _is_int(v) or _is_float(v)


_CHECKS: dict[str, Callable[[object], bool]] = {
    "str": lambda v: type(v) is str,
    "int": _is_int,
    "float": _is_float,
    "bool": lambda v: type(v) is bool,
    "strs": lambda v: (
        type(v) is tuple and len(v) <= STRS_ITEMS and all(type(s) is str for s in v)
    ),
    "any": _is_any,
}


def conforms(kind: str, args: object) -> bool:
    """True when ``args`` is a tuple matching ``kind``'s declared types."""
    types = PROBE_TYPES.get(kind)
    if types is None or type(args) is not tuple or len(args) != len(types):
        return False
    return all(_CHECKS[t](v) for t, v in zip(types, args))


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


#: Events the journal holds before it drains on its own: the shipper's
#: frame size, so a bound drain hands it exactly one frame of rows.
JOURNAL_BOUND = 64


class ProbeBus:
    """Per-cluster event sink fanning probe events out to subscribers.

    ``emit`` stamps each event with the loop's virtual time and a global
    emission ordinal and appends it to a journal.  Subscribers receive the
    journal as one ``list[ProbeEvent]`` batch, in emission order, when it
    drains:

    * on its own once it holds :data:`JOURNAL_BOUND` events;
    * before an :class:`~repro.net.eventloop.EventLoop` ``run_*``/``step``
      call returns (the bus registers on the loop's ``drains``);
    * before any subscriber joins or leaves, so each one sees exactly the
      events emitted while it was subscribed;
    * whenever a :class:`ProbeConsumer` is read (snapshots, monitor ticks,
      shipper flushes, ...).

    So nobody reading through those paths sees a stale view, and no
    consumer work leaves the caller's timed region.  Subscribers must not
    mutate protocol state, nor the batch they are handed.
    """

    __slots__ = ("loop", "events_emitted", "_journal", "_listeners")

    def __init__(self, loop: "EventLoop") -> None:
        self.loop = loop
        self.events_emitted = 0
        self._journal: list[ProbeEvent] = []
        self._listeners: list[Callable[[list[ProbeEvent]], None]] = []
        drains = getattr(loop, "drains", None)
        if drains is not None:
            drains.append(self.drain)

    def subscribe(self, listener: Callable[[list[ProbeEvent]], None]) -> None:
        """Add a batch listener; a :class:`ProbeConsumer`'s bound method
        also registers this bus as one of its owner's feeds."""
        self.drain()
        self._listeners.append(listener)
        owner = getattr(listener, "__self__", None)
        if isinstance(owner, ProbeConsumer):
            owner._feeds.append(self)

    def unsubscribe(self, listener: Callable[[list[ProbeEvent]], None]) -> None:
        if listener in self._listeners:
            self.drain()
            self._listeners.remove(listener)
            owner = getattr(listener, "__self__", None)
            if isinstance(owner, ProbeConsumer) and self in owner._feeds:
                owner._feeds.remove(self)

    def emit(self, node: str, kind: str, *args: object) -> None:
        """Emit one probe event (enabled path only — callers None-test first).

        Unknown kinds and arity mismatches raise immediately: a mistyped
        probe point is an instrumentation bug, not data.
        """
        if len(args) != _ARITY[kind]:
            fields = PROBE_CATALOG[kind]
            raise TypeError(
                f"probe {kind!r} takes {len(fields)} args {fields}, got {len(args)}"
            )
        self.events_emitted = n = self.events_emitted + 1
        journal = self._journal
        journal.append(ProbeEvent(n, self.loop.now, node, kind, args))
        if len(journal) >= JOURNAL_BOUND:
            self.drain()

    def drain(self) -> None:
        """Hand the journal to every subscriber as one batch."""
        journal = self._journal
        if journal:
            self._journal = []
            for listener in tuple(self._listeners):
                listener(journal)


class ProbeConsumer:
    """A bus subscriber that is also read from.

    :meth:`ProbeBus.subscribe` records each bus feeding a consumer in its
    ``_feeds`` (every subclass initialises it to ``[]``); every read path
    calls :meth:`_catch_up` first, which drains those buses.
    """

    __slots__ = ()

    _feeds: list[ProbeBus]

    def _catch_up(self) -> None:
        for bus in self._feeds:
            bus.drain()


class ProbeLog(ProbeConsumer, Sequence):
    """The whole stream of one bus, in emission order, read as a sequence."""

    def __init__(self, bus: ProbeBus) -> None:
        self._feeds: list[ProbeBus] = []
        self._events: list[ProbeEvent] = []
        bus.subscribe(self._take)

    def _take(self, events: list[ProbeEvent]) -> None:
        self._events.extend(events)

    def __len__(self) -> int:
        self._catch_up()
        return len(self._events)

    def __getitem__(self, index):
        self._catch_up()
        return self._events[index]


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


#: The fields of an :func:`event_record` and the JSON types a loaded one
#: must have (``at`` must also convert to a finite float).
_RECORD_FIELDS: tuple[tuple[str, type | tuple[type, ...]], ...] = (
    ("n", int),
    ("at", (int, float)),
    ("node", str),
    ("kind", str),
    ("args", (list, tuple)),
)


def check_record(item: object) -> dict:
    """``item`` as an :func:`event_record`-shaped dict, fields in order.

    Raises ``ValueError`` naming what is missing or mistyped, so a file
    loader can say which line or entry it came from.  A per-message
    ``mcast.deliver`` written before delivery runs (bundle /1–/2,
    capture /1, older exports: three fields) comes back as a run of one,
    and so does a per-message ``mcast.attach`` written before attach runs
    (bundle /1–/3, capture /1–/2: six fields, ``count`` backfilled as 1).
    """
    if not isinstance(item, dict):
        raise ValueError(f"cannot interpret {type(item).__name__} as a probe event")
    missing = [key for key, _ in _RECORD_FIELDS if key not in item]
    if missing:
        raise ValueError(
            f"not a probe event record (missing {', '.join(missing)}): "
            f"{sorted(item)[:8]}"
        )
    for key, types in _RECORD_FIELDS:
        if not isinstance(item[key], types):
            raise ValueError(
                f"probe event field {key!r} is {type(item[key]).__name__}"
            )
    if not abs(item["at"]) <= sys.float_info.max:
        raise ValueError(f"probe event field 'at' is not finite: {item['at']!r}")
    record = {key: item[key] for key, _ in _RECORD_FIELDS}
    kind, args = record["kind"], record["args"]
    if kind == "mcast.deliver" and len(args) == 3:
        record["args"] = [*args, 1]
    elif kind == "mcast.attach" and len(args) == 6:
        record["args"] = [*args[:3], 1, *args[3:]]
    return record


def events_to_jsonl(events: Iterable[ProbeEvent]) -> str:
    """One compact, key-sorted JSON object per line (byte-stable per seed)."""
    return "\n".join(
        json.dumps(event_record(e), sort_keys=True, separators=(",", ":"))
        for e in events
    )
