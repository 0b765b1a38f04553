"""Span/episode reconstruction: fold the probe stream into typed latency
spans matching the paper's narrative.

The deterministic probe stream is an interleaved firehose of point events;
the paper's claims are about *intervals*: a token circulates one lap in
``n * hop_interval``, a crashed member is detected within 0.15 s and the
ring regenerates via 911, a token-bucket merge heals a partition, a
rejoining replica descends the resync ladder.  :func:`reconstruct_spans`
rebuilds those intervals as typed :class:`Span` values:

``token.lap``
    One full circulation observed at a node: consecutive ``token.accept``
    events at the same node.
``episode.911``
    One failure-recovery episode per accused victim: from the victim's
    ``node.shutdown``/down-transition (failure instant) through the
    ``fd.fire`` verdict, any ``token.regen`` it entailed (a crashed token
    holder regenerates via starvation *before* failure-on-delivery names
    the victim), to the first ``view.change`` excluding the victim and
    the next ``token.accept`` (ring stable again).  Attrs decompose the
    latency: ``detect`` is the fd.arm→fd.fire verdict latency — exactly
    the monitor's fd-latency pairing and the paper's 0.15 s bound —
    ``regen`` and ``stabilize`` cover recovery.  Regenerations with no
    accused victim (pure token loss) become victimless episodes.
``merge.tbm``
    One token-bucket merge window around a ``token.merge``: from the last
    pre-merge ``view.change`` at the merging node to the first post-merge
    one.
``resync.ladder``
    One resync descent per (peer, contiguous activity): counts delta
    rounds, snapshot fallbacks and quarantines, recording the deepest
    rung reached.

Everything here is a pure fold over sim-time-stamped events — no wall
clock, no randomness — so timelines are as deterministic as the stream
itself, and :meth:`SpanTimeline.to_records` exports are diffable with
``repro obs diff`` like any other probe export.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.obs.probe import ProbeEvent

__all__ = [
    "DEFAULT_BOUNDS",
    "Span",
    "SpanTimeline",
    "reconstruct_spans",
]

#: Default contract bounds for SpanTimeline.check(): the paper's 0.15 s
#: failure-detection requirement, checked per 911 episode.
DEFAULT_BOUNDS: dict[str, float] = {"episode.911.detect": 0.15}


@dataclass(frozen=True, slots=True)
class Span:
    """One typed interval reconstructed from the probe stream.

    ``attrs`` is a sorted tuple of (name, value) pairs so spans are
    hashable and render deterministically.
    """

    kind: str
    node: str
    start: float
    end: float
    attrs: tuple[tuple[str, Any], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def get(self, name: str, default: Any = None) -> Any:
        for key, value in self.attrs:
            if key == name:
                return value
        return default


def _attrs(**kwargs: Any) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted((k, v) for k, v in kwargs.items() if v is not None))


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over pre-sorted values (deterministic)."""
    if not sorted_values:
        return 0.0
    exact = q * len(sorted_values)
    rank = int(exact)
    if rank < exact:
        rank += 1
    return sorted_values[max(0, min(len(sorted_values), max(1, rank)) - 1)]


class SpanTimeline:
    """An ordered collection of reconstructed spans with summary queries."""

    __slots__ = ("spans",)

    def __init__(self, spans: list[Span]) -> None:
        self.spans = sorted(
            spans, key=lambda s: (s.start, s.end, s.node, s.kind)
        )

    def of_kind(self, kind: str) -> list[Span]:
        return [s for s in self.spans if s.kind == kind]

    def kinds(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for s in self.spans:
            counts[s.kind] = counts.get(s.kind, 0) + 1
        return dict(sorted(counts.items()))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-kind duration stats: count, p50, p95, max (seconds)."""
        by_kind: dict[str, list[float]] = {}
        for s in self.spans:
            by_kind.setdefault(s.kind, []).append(s.duration)
        out: dict[str, dict[str, float]] = {}
        for kind in sorted(by_kind):
            durations = sorted(by_kind[kind])
            out[kind] = {
                "count": float(len(durations)),
                "p50": _percentile(durations, 0.50),
                "p95": _percentile(durations, 0.95),
                "max": durations[-1],
            }
        return out

    def check(
        self,
        bounds: dict[str, float] | None = None,
        tolerance: float = 0.10,
    ) -> list[str]:
        """Check contract bounds; returns human-readable breach strings.

        Bound keys: ``episode.911.detect`` (per-episode fd verdict
        latency, checked at ``bound * (1 + tolerance)`` exactly like the
        monitor's fd-latency rule) and ``<kind>.p95`` / ``<kind>.max``
        (duration percentiles per kind, checked without tolerance).
        """
        bounds = DEFAULT_BOUNDS if bounds is None else bounds
        breaches: list[str] = []
        summary = self.summary()
        for key in sorted(bounds):
            bound = bounds[key]
            if key == "episode.911.detect":
                limit = bound * (1.0 + tolerance)
                for s in self.of_kind("episode.911"):
                    detect = s.get("detect")
                    if detect is None:
                        if s.get("victim") is None or s.get("via") != "fd":
                            # Pure token loss, or starvation detection (a
                            # dead holder is never accused): no fd verdict.
                            continue
                        breaches.append(
                            f"episode.911 at t={s.start:.6f} "
                            f"(victim={s.get('victim')}): detection latency "
                            f"unattributable (no matching fd.arm)"
                        )
                    elif detect > limit:
                        breaches.append(
                            f"episode.911 at t={s.start:.6f} "
                            f"(victim={s.get('victim')}): detect "
                            f"{detect:.6f}s > bound {bound}s (+{tolerance:.0%})"
                        )
                continue
            kind, _, metric = key.rpartition(".")
            stats = summary.get(kind)
            if stats is None or metric not in stats:
                continue
            if stats[metric] > bound:
                breaches.append(
                    f"{kind}: {metric} {stats[metric]:.6f}s > bound {bound}s"
                )
        return breaches

    def to_records(self) -> list[dict[str, Any]]:
        """Probe-record-shaped dicts: loadable by ``repro obs diff``."""
        records = []
        for i, s in enumerate(self.spans):
            flat: list[Any] = [round(s.end, 9), round(s.duration, 9)]
            for key, value in s.attrs:
                flat.append(key)
                flat.append(
                    round(value, 9) if isinstance(value, float) else value
                )
            records.append(
                {
                    "n": i + 1,
                    "at": round(s.start, 9),
                    "node": s.node,
                    "kind": f"span.{s.kind}",
                    "args": flat,
                }
            )
        return records

    def render(self, limit: int = 40, kind: str | None = None) -> str:
        """Timeline view: header, per-kind stats, then the span rows."""
        spans = self.spans if kind is None else self.of_kind(kind)
        counts = self.kinds()
        lines = [
            f"spans: {len(self.spans)} ("
            + " ".join(f"{k}={c}" for k, c in counts.items())
            + ")"
        ]
        for k, stats in self.summary().items():
            lines.append(
                f"  {k}: n={int(stats['count'])} p50={stats['p50']:.6f}s "
                f"p95={stats['p95']:.6f}s max={stats['max']:.6f}s"
            )
        shown = spans[:limit]
        if shown:
            lines.append(f"{'start':>12}  {'dur':>10}  {'kind':<14} node  detail")
        for s in shown:
            detail = " ".join(
                f"{k}={v:.6f}" if isinstance(v, float) else f"{k}={v}"
                for k, v in s.attrs
            )
            lines.append(
                f"{s.start:>12.6f}  {s.duration:>10.6f}  {s.kind:<14} "
                f"{s.node}  {detail}"
            )
        if len(spans) > len(shown):
            lines.append(f"... {len(spans) - len(shown)} more spans (raise --limit)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# reconstruction
# ----------------------------------------------------------------------
def _token_laps(events: list[ProbeEvent]) -> list[Span]:
    last_accept: dict[str, float] = {}
    spans: list[Span] = []
    for e in events:
        if e.kind != "token.accept":
            continue
        last = last_accept.get(e.node)
        if last is not None:
            spans.append(
                Span(
                    kind="token.lap",
                    node=e.node,
                    start=last,
                    end=e.at,
                    attrs=_attrs(gen=e.args[1], seq=e.args[2]),
                )
            )
        last_accept[e.node] = e.at
    return spans


def _down_times(events: list[ProbeEvent]) -> dict[str, list[float]]:
    """Per-node instants where the node observably went down."""
    downs: dict[str, list[float]] = {}
    for e in events:
        if e.kind == "node.shutdown" or (
            e.kind == "node.state" and e.args[1] == "down"
        ):
            downs.setdefault(e.node, []).append(e.at)
    return downs


def _episodes(events: list[ProbeEvent]) -> list[Span]:
    downs = _down_times(events)
    fires = [e for e in events if e.kind == "fd.fire"]
    regens = [e for e in events if e.kind == "token.regen"]
    views = [e for e in events if e.kind == "view.change"]
    accepts = [e for e in events if e.kind == "token.accept"]

    def stable_after(at: float, victim: object) -> tuple[float | None, float]:
        """(end-of-episode accept time, stable-view time) after ``at``."""
        stable_view = None
        for v in views:
            if v.at < at:
                continue
            members = v.args[1]
            if not isinstance(members, tuple) or victim not in members:
                stable_view = v
                break
        floor = stable_view.at if stable_view is not None else at
        for a in accepts:
            if a.at > floor:
                return a.at, floor
        return None, floor

    spans: list[Span] = []
    used_regens: set[int] = set()
    episode_end: dict[object, float] = {}
    for fire in fires:
        victim, seq = fire.args
        # One episode per victim removal: further accusations of the same
        # victim before the ring restabilized are the same episode.
        if fire.at <= episode_end.get(victim, -1.0):
            continue

        # Detection latency: the monitor's arm -> verdict pairing.  The
        # fd.arm for this (peer, seq) was recorded above (last arm wins
        # among re-arms, identical to check_fd_latency).
        armed_at = None
        for e in events:
            if (
                e.kind == "fd.arm"
                and e.args[0] == victim
                and e.args[1] == seq
                and e.at <= fire.at
            ):
                armed_at = e.at
        # Failure instant: the victim's last observable down transition.
        failure_at = None
        for at in reversed(downs.get(victim, [])):  # type: ignore[arg-type]
            if at <= fire.at:
                failure_at = at
                break

        start = failure_at if failure_at is not None else (
            armed_at if armed_at is not None else fire.at
        )
        # A 911 regeneration belongs to this episode if it happened after
        # the failure instant (holder crash: starvation regenerates the
        # token *before* failure-on-delivery accuses the victim).
        regen = None
        for i, r in enumerate(regens):
            if i in used_regens or r.at < start:
                continue
            regen = r
            used_regens.add(i)
            break

        end_at, stable_at = stable_after(fire.at, victim)
        end = end_at if end_at is not None else max(stable_at, fire.at)
        episode_end[victim] = end
        spans.append(
            Span(
                kind="episode.911",
                node=regen.node if regen is not None else fire.node,
                start=start,
                end=max(end, start),
                attrs=_attrs(
                    victim=victim,
                    via="fd",
                    detect=(fire.at - armed_at)
                    if armed_at is not None
                    else None,
                    gen=regen.args[0] if regen is not None else None,
                    parent=regen.args[1] if regen is not None else None,
                    regen=(regen.at - start) if regen is not None else None,
                    stabilize=max(end - fire.at, 0.0),
                ),
            )
        )
    # Regenerations not tied to any fd verdict: starvation detection (a
    # crashed token *holder* cannot be accused — the token died with it —
    # so the hungry timeout finds the loss) or a pure token-loss fault.
    # Infer victims from the membership delta across the regeneration.
    for i, r in enumerate(regens):
        if i in used_regens:
            continue
        gen, parent, _seq = r.args
        before: tuple | None = None
        after: tuple | None = None
        for v in views:
            members = v.args[1]
            if not isinstance(members, tuple):
                continue
            if v.at < r.at:
                before = members
            elif after is None:
                after = members
        victim = None
        if before is not None and after is not None:
            lost = sorted(set(before) - set(after))
            if len(lost) == 1:
                victim = lost[0]
        failure_at = None
        if victim is not None:
            for at in reversed(downs.get(victim, [])):
                if at <= r.at:
                    failure_at = at
                    break
        start = failure_at if failure_at is not None else r.at
        end_at, stable_at = stable_after(r.at, victim)
        end = end_at if end_at is not None else r.at
        spans.append(
            Span(
                kind="episode.911",
                node=r.node,
                start=start,
                end=max(end, start),
                attrs=_attrs(
                    victim=victim,
                    via="starvation",
                    gen=gen,
                    parent=parent,
                    regen=(r.at - start) if failure_at is not None else None,
                    stabilize=max(end - r.at, 0.0),
                ),
            )
        )
    return spans


def _merge_windows(events: list[ProbeEvent]) -> list[Span]:
    views_by_node: dict[str, list[float]] = {}
    for e in events:
        if e.kind == "view.change":
            views_by_node.setdefault(e.node, []).append(e.at)
    spans: list[Span] = []
    for e in events:
        if e.kind != "token.merge":
            continue
        gen, left, right, _seq = e.args
        node_views = views_by_node.get(e.node, [])
        start = e.at
        for at in reversed(node_views):
            if at <= e.at:
                start = at
                break
        end = e.at
        for at in node_views:
            if at > e.at:
                end = at
                break
        spans.append(
            Span(
                kind="merge.tbm",
                node=e.node,
                start=start,
                end=max(end, start),
                attrs=_attrs(gen=gen, left=left, right=right),
            )
        )
    return spans


#: Resync rung depths: the ladder descends delta -> snapshot -> quarantine.
_RESYNC_DEPTH = {"delta": 1, "snapshot": 2, "quarantine": 3}


def _resync_ladders(events: list[ProbeEvent]) -> list[Span]:
    # Group resync activity per peer; a gap larger than _GAP closes the
    # descent (a later resync of the same peer is a new span).
    _GAP = 5.0
    open_spans: dict[str, dict[str, Any]] = {}
    spans: list[Span] = []

    def close(peer: str) -> None:
        st = open_spans.pop(peer)
        deepest = max(st["rungs"], key=lambda r: _RESYNC_DEPTH[r])
        spans.append(
            Span(
                kind="resync.ladder",
                node=peer,
                start=st["start"],
                end=st["end"],
                attrs=_attrs(
                    deltas=st["deltas"],
                    snapshots=st["snapshots"],
                    quarantines=st["quarantines"],
                    deepest=deepest,
                ),
            )
        )

    for e in events:
        if e.kind == "resync.delta":
            peer, rung = e.args[1], "delta"
        elif e.kind == "resync.snapshot_fallback":
            peer, rung = e.args[1], "snapshot"
        elif e.kind == "resync.quarantine":
            peer, rung = e.args[0], "quarantine"
        else:
            continue
        st = open_spans.get(peer)  # type: ignore[arg-type]
        if st is not None and e.at - st["end"] > _GAP:
            close(peer)  # type: ignore[arg-type]
            st = None
        if st is None:
            st = open_spans[peer] = {  # type: ignore[index]
                "start": e.at,
                "end": e.at,
                "deltas": 0,
                "snapshots": 0,
                "quarantines": 0,
                "rungs": set(),
            }
        st["end"] = e.at
        st["rungs"].add(rung)
        st[rung + "s"] += 1
    for peer in sorted(open_spans):
        close(peer)
    return spans


def reconstruct_spans(events: Iterable[ProbeEvent]) -> SpanTimeline:
    """Fold a probe stream (any source: sim, export, real UDP) into
    a :class:`SpanTimeline`.  Events are sorted by ``(at, n)`` first, so
    unsorted inputs are fine."""
    ordered = sorted(events, key=lambda e: (e.at, e.n))
    spans = (
        _token_laps(ordered)
        + _episodes(ordered)
        + _merge_windows(ordered)
        + _resync_ladders(ordered)
    )
    return SpanTimeline(spans)
