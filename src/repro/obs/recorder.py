"""Flight recorder: bounded per-node probe rings and diagnostic bundles.

The recorder keeps the *recent* probe history of every node in a bounded
ring (old events fall off the back), so that when something finally goes
wrong — an invariant violation, a chaos-campaign failure, a harness
assertion — the moments leading up to it are still in memory and can be
dumped as one self-contained **diagnostic bundle**: reason, sim time,
recent events, the stream rollup, and (for chaos runs) the fault schedule.

Bundles are plain JSON with fully sorted keys; two runs with the same seed
produce byte-identical bundles.  ``repro obs render`` turns a bundle back
into the familiar timeline/swimlane views and can extract the causal chain
of a single multicast span (attach → token hops → delivery).  The same
renderers draw ``repro trace``: :func:`trace_rows` folds a probe stream
into its five protocol trace kinds (state, view, deliver, shutdown, token).
"""

from __future__ import annotations

import json
import sys
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable

from repro.obs.probe import (
    ProbeBus,
    ProbeConsumer,
    ProbeEvent,
    check_record,
    event_from_record,
    event_record,
    format_event,
)

__all__ = [
    "BUNDLE_SCHEMA",
    "SUPPORTED_SCHEMAS",
    "FlightRecorder",
    "build_bundle",
    "bundle_to_json",
    "dump_bundle",
    "load_bundle",
    "bundle_events",
    "TraceEvent",
    "trace_rows",
    "render_timeline",
    "render_swimlanes",
    "events_to_json",
    "render_bundle",
    "causal_chain",
    "render_chain",
]

#: Bundle format identifier; bump on incompatible layout changes.
#: /2 added the ``alerts`` section (contract-monitor Alert records); /3
#: carries one ``mcast.deliver`` per delivery run (its ``count`` field);
#: /4 one ``mcast.attach`` per pack (its ``count`` field, ``size`` the
#: pack's payload bytes).
BUNDLE_SCHEMA = "repro.obs.bundle/4"

#: Schemas :func:`load_bundle` accepts.  /1 bundles (pre-monitor) load
#: with an empty ``alerts`` section, /1–/2 per-message delivers and /1–/3
#: per-message attaches load as runs of one, so downstream readers see
#: one shape.
SUPPORTED_SCHEMAS = (
    "repro.obs.bundle/1", "repro.obs.bundle/2", "repro.obs.bundle/3", BUNDLE_SCHEMA
)

#: Sections every bundle must carry (``alerts`` is backfilled for /1),
#: with the JSON type each must have and its name for error messages.
_REQUIRED_SECTIONS: dict[str, tuple[type | tuple[type, ...], str]] = {
    "reason": (str, "string"),
    "detail": (str, "string"),
    "at": ((int, float), "number"),
    "nodes": (list, "list"),
    "context": (dict, "object"),
    "events": (list, "list"),
    "metrics": (dict, "object"),
}


class FlightRecorder(ProbeConsumer):
    """Bounded ring of recent probe events, one ring per node.

    Subscribes to a :class:`ProbeBus` and keeps the last ``capacity``
    events of each node.  :meth:`snapshot` returns the union in global
    emission order — exactly what a diagnostic bundle wants at the moment
    of failure.  Every read drains the bus first.
    """

    def __init__(self, bus: ProbeBus, capacity: int = 512) -> None:
        self.capacity = capacity
        self._seen = 0
        self._rings: dict[str, deque[ProbeEvent]] = {}
        self._bus = bus
        self._feeds: list[ProbeBus] = []
        bus.subscribe(self._on_event)

    def _on_event(self, events: list[ProbeEvent]) -> None:
        rings = self._rings
        for event in events:
            ring = rings.get(event.node)
            if ring is None:
                ring = rings[event.node] = deque(maxlen=self.capacity)
            ring.append(event)
        self._seen += len(events)

    def close(self) -> None:
        """Detach from the bus (rings keep their contents)."""
        self._bus.unsubscribe(self._on_event)

    @property
    def events_seen(self) -> int:
        """Events taken since construction (evicted ones included)."""
        self._catch_up()
        return self._seen

    def node_events(self, node: str) -> list[ProbeEvent]:
        """This node's retained events, oldest first."""
        self._catch_up()
        return list(self._rings.get(node, ()))

    def snapshot(self) -> list[ProbeEvent]:
        """All retained events across nodes, in global emission order."""
        self._catch_up()
        events: list[ProbeEvent] = []
        for ring in self._rings.values():
            events.extend(ring)
        events.sort(key=lambda e: e.n)
        return events

    @property
    def nodes(self) -> list[str]:
        self._catch_up()
        return sorted(self._rings)


# ----------------------------------------------------------------------
# diagnostic bundles
# ----------------------------------------------------------------------
def build_bundle(
    reason: str,
    *,
    detail: str = "",
    at: float = 0.0,
    events: Iterable[ProbeEvent] = (),
    context: dict | None = None,
    metrics: dict | None = None,
    schedule: dict | None = None,
    alerts: list[dict] | None = None,
) -> dict:
    """Assemble one self-contained diagnostic bundle.

    ``reason`` is the machine-readable failure class (e.g.
    ``"invariant:token-uniqueness"``); ``context`` carries free-form
    deterministic metadata (seed, scenario name, node states); ``alerts``
    are contract-monitor Alert records (``Alert.record()``) fired before
    the bundle was cut — *which contract broke first*.  All keys are
    sorted at dump time, so equal inputs give equal bytes.
    """
    ordered = sorted(events, key=lambda e: e.n)
    nodes = sorted({e.node for e in ordered})
    return {
        "schema": BUNDLE_SCHEMA,
        "reason": reason,
        "detail": detail,
        "at": at,
        "nodes": nodes,
        "context": context if context is not None else {},
        "events": [event_record(e) for e in ordered],
        "metrics": metrics if metrics is not None else {},
        "schedule": schedule,
        "alerts": alerts if alerts is not None else [],
    }


def bundle_to_json(bundle: dict) -> str:
    """Canonical bundle serialization (sorted keys, 2-space indent)."""
    return json.dumps(bundle, sort_keys=True, indent=2) + "\n"


def dump_bundle(bundle: dict, path: str | Path) -> Path:
    """Write the bundle to ``path`` and return it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(bundle_to_json(bundle))
    return path


def load_bundle(path: str | Path) -> dict:
    """Load and validate a diagnostic bundle.

    Accepts every schema in :data:`SUPPORTED_SCHEMAS`; /1 bundles gain an
    empty ``alerts`` section and older per-message delivers and attaches
    become runs of one (:func:`~repro.obs.probe.check_record`), so
    downstream readers see one shape.  Every failure mode — unreadable file, malformed or too
    deeply nested JSON, foreign or unknown schema, missing or mistyped
    sections, malformed event records — raises ``ValueError`` naming the
    path and the problem, never a bare ``KeyError``.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read bundle {path}: {exc}") from exc
    try:
        return _checked_bundle(path, json.loads(text))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not JSON ({exc.msg})") from exc
    except RecursionError as exc:
        raise ValueError(f"{path} is JSON nested too deeply to load") from exc


def _checked_bundle(path: Path, bundle: object) -> dict:
    if not isinstance(bundle, dict):
        raise ValueError(
            f"{path} is not a diagnostic bundle (top level is "
            f"{type(bundle).__name__}, expected an object)"
        )
    schema = bundle.get("schema")
    if schema not in SUPPORTED_SCHEMAS:
        raise ValueError(
            f"{path} is not a diagnostic bundle (schema={schema!r}, "
            f"supported: {', '.join(SUPPORTED_SCHEMAS)})"
        )
    missing = [key for key in _REQUIRED_SECTIONS if key not in bundle]
    if missing:
        raise ValueError(
            f"{path}: bundle (schema {schema}) is missing required "
            f"section(s): {', '.join(missing)}"
        )
    if schema == "repro.obs.bundle/1":
        bundle.setdefault("alerts", [])
    for key, (types, name) in dict(_REQUIRED_SECTIONS, alerts=(list, "list")).items():
        if key in bundle and not isinstance(bundle[key], types):
            raise ValueError(
                f"{path}: bundle {key!r} must be a {name}, got "
                f"{type(bundle[key]).__name__}"
            )
    if not abs(bundle["at"]) <= sys.float_info.max:
        raise ValueError(f"{path}: bundle 'at' is not a finite number")
    events = bundle["events"]
    for i, record in enumerate(events):
        try:
            events[i] = check_record(record)
        except ValueError as exc:
            raise ValueError(f"{path}: bundle event {i}: {exc}") from exc
    return bundle


def bundle_events(bundle: dict) -> list[ProbeEvent]:
    """Rehydrate the bundle's probe events (global emission order)."""
    return [event_from_record(r) for r in bundle["events"]]


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceEvent:
    """One rendered row: a probe event as time, node, kind and detail."""

    at: float
    node: str
    kind: str
    detail: str


def trace_rows(
    events: Iterable[ProbeEvent], kinds: set[str] | None = None
) -> list[TraceEvent]:
    """The protocol trace of a probe stream (``repro trace``).

    Five probe kinds become the five trace kinds — ``node.state`` →
    state, ``view.change`` → view, ``mcast.deliver`` → one deliver row
    per message of the run, ``node.shutdown`` → shutdown, and a
    ``transport.tx`` whose trace context is a token → token — in stream
    order; everything else is left out, as is any trace kind not in
    ``kinds`` (None = all five).
    """
    rows: list[TraceEvent] = []
    for event in events:
        kind = event.kind
        args = event.args
        if kind == "node.state":
            row = ("state", f"{args[0]} -> {args[1]}")
        elif kind == "view.change":
            row = ("view", f"v{args[0]}: {'-'.join(args[1])}")
        elif kind == "mcast.deliver":
            if kinds is None or "deliver" in kinds:
                origin, first, ordering, count = args
                rows.extend(
                    TraceEvent(event.at, event.node, "deliver",
                               f"{origin}#{no} ({ordering})")
                    for no in range(first, first + count)
                )
            continue
        elif kind == "node.shutdown":
            row = ("shutdown", args[0])
        elif kind == "transport.tx" and _is_token_ctx(args[4]):
            ctx = args[4]
            row = (
                "token",
                f"seq={ctx[2]} -> {args[0]}"
                + (f" +{ctx[3]}msg" if ctx[3] else "")
                + (" TBM" if ctx[4] else ""),
            )
        else:
            continue
        if kinds is None or row[0] in kinds:
            rows.append(TraceEvent(event.at, event.node, *row))
    return rows


def _shown(
    events: list[TraceEvent], limit: int | None
) -> tuple[list[TraceEvent], str | None]:
    """The first ``limit`` rows (all when None) and the "more" footer."""
    shown = events if limit is None else events[:limit]
    hidden = len(events) - len(shown)
    return shown, f"... {hidden} more events" if hidden else None


def render_swimlanes(
    events: list[TraceEvent],
    nodes: list[str],
    limit: int | None = None,
    lane_width: int = 22,
) -> str:
    """Per-node column rendering — the classic distributed-systems swimlane.

    Each event appears in its node's lane; reading down a column gives one
    node's history, reading across gives the cluster-wide interleaving.
    """
    shown, footer = _shown(events, limit)
    if not shown:
        return footer or "(no events)"
    header = f"{'time':>10}  " + "  ".join(f"{n:^{lane_width}}" for n in nodes)
    lines = [header, "-" * len(header)]
    for e in shown:
        cells = []
        for n in nodes:
            text = f"{e.kind}: {e.detail}" if e.node == n else ""
            cells.append(f"{text[:lane_width]:<{lane_width}}")
        lines.append(f"{e.at:>9.4f}s  " + "  ".join(cells))
    if footer:
        lines.append(footer)
    return "\n".join(lines)


def render_timeline(events: list[TraceEvent], limit: int | None = None) -> str:
    """Fixed-width timeline rendering of a trace-event list."""
    shown, footer = _shown(events, limit)
    if not shown:
        return footer or "(no events)"
    node_w = max(len(e.node) for e in shown)
    kind_w = max(len(e.kind) for e in shown)
    lines = [
        f"{e.at:>10.4f}s  {e.node:<{node_w}}  {e.kind:<{kind_w}}  {e.detail}"
        for e in shown
    ]
    if footer:
        lines.append(footer)
    return "\n".join(lines)


def events_to_json(events: list[TraceEvent]) -> str:
    """Stable JSON array of trace events (``repro trace --json``)."""
    return json.dumps([asdict(e) for e in events], sort_keys=True, indent=2)


def render_bundle(
    bundle: dict,
    *,
    swimlanes: bool = False,
    kinds: set[str] | None = None,
    node: str | None = None,
    limit: int = 60,
) -> str:
    """Render a bundle as the timeline or swimlane view.

    Every probe kind is a row here: the probe kind is the kind column and
    the formatted fields (after the kind) are the detail.
    """
    events = bundle_events(bundle)
    traced = [
        TraceEvent(e.at, e.node, e.kind, format_event(e)[len(e.kind) :].lstrip())
        for e in events
        if (kinds is None or e.kind in kinds) and (node is None or e.node == node)
    ]
    header = (
        f"bundle: {bundle['reason']}"
        + (f" — {bundle['detail']}" if bundle.get("detail") else "")
        + f"  (at {bundle['at']:.4f}s, {len(events)} events)"
    )
    if swimlanes:
        body = render_swimlanes(traced, bundle["nodes"], limit=limit)
    else:
        body = render_timeline(traced, limit=limit)
    alerts = bundle.get("alerts") or []
    if alerts:
        lines = [f"contract alerts ({len(alerts)}):"]
        for a in alerts:
            lines.append(
                f"  [{a['severity']}] {a['rule']} node={a['node']} "
                f"at={a['at']:.3f}s: {a['detail']}"
            )
        return header + "\n" + "\n".join(lines) + "\n" + body
    return header + "\n" + body


# ----------------------------------------------------------------------
# causal chains
# ----------------------------------------------------------------------
def _is_token_ctx(ctx: object) -> bool:
    return isinstance(ctx, tuple) and len(ctx) == 5 and ctx[0] == "tok"


def _span_event(e: ProbeEvent, origin: str, msg_no: int) -> ProbeEvent | None:
    """``e`` as an event of the span ``origin#msg_no``, else None."""
    args = e.args
    kind = e.kind
    if not kind.startswith("mcast.") or args[0] != origin:
        return None
    if kind == "mcast.confirm":
        return e if args[1] == msg_no else None
    if not args[1] <= msg_no < args[1] + args[3]:
        return None
    if kind == "mcast.attach":
        return e  # the pack's one attach; its size is the whole pack's
    return ProbeEvent(e.n, e.at, e.node, kind, (origin, msg_no, args[2], 1))


def causal_chain(
    events: Iterable[ProbeEvent], origin: str, msg_no: int
) -> list[ProbeEvent]:
    """The causal chain of one multicast span ``origin#msg_no``.

    Returns, in global emission order: the span's own ``mcast.*`` events
    (attach on the origin, deliveries and confirmation everywhere) plus
    every token movement that carried it between first attach and last
    delivery — ``transport.tx`` hops whose trace context shows piggybacked
    messages, ``token.accept`` on the receiving side, and any
    regeneration/merge the token's lineage went through in that window.
    A delivery run that covers the span (``msg_no <= m < msg_no + count``)
    appears as the span's own delivery: a run of one at ``msg_no``.  The
    attach run that covers it appears as it was emitted, as the span's
    attach: its ``size`` is the pack's, which no one message's is.
    """
    ordered = sorted(events, key=lambda e: e.n)
    own = [_span_event(e, origin, msg_no) for e in ordered]
    hits = [i for i, event in enumerate(own) if event is not None]
    if not hits:
        return []
    chain: list[ProbeEvent] = []
    for i in range(hits[0], hits[-1] + 1):
        e, shown = ordered[i], own[i]
        if shown is not None:
            chain.append(shown)
        elif e.kind == "token.accept" and e.args[3] > 0:
            chain.append(e)
        elif e.kind in ("token.regen", "token.merge"):
            chain.append(e)
        elif e.kind == "transport.tx" and _is_token_ctx(e.args[4]) and e.args[4][3] > 0:
            chain.append(e)
    return chain


def render_chain(events: Iterable[ProbeEvent], origin: str, msg_no: int) -> str:
    """Human-readable causal chain for the span ``origin#msg_no``."""
    chain = causal_chain(events, origin, msg_no)
    if not chain:
        return f"span {origin}#{msg_no}: no events"
    lines = [f"span {origin}#{msg_no}: {len(chain)} events"]
    for e in chain:
        lines.append(f"{e.at:>9.4f}s  {e.node:<4} {format_event(e)}")
    return "\n".join(lines)
