"""Hot-path attribution profiler: the *non-deterministic* telemetry channel.

The deterministic probe stream (:mod:`repro.obs.probe`) answers *what the
protocol did*; this module answers *where the wall-clock went while it did
it*.  The two channels are deliberately segregated:

* Probe events are stamped with **sim time** only (raincheck RC402) and are
  byte-identical per seed — they may never carry wall-clock readings.
* The :class:`Profiler` reads ``time.perf_counter`` freely (this module is
  on raincheck's RC101 wall-clock allowlist, next to :mod:`repro.perf`) but
  never writes into the probe stream, never mutates protocol state, and
  never influences scheduling — attaching it cannot move a byte of a golden
  trace (pinned by tests/test_prof.py).

Hooking
-------
:class:`~repro.net.eventloop.EventLoop` carries a public ``profile``
attribute (``None`` by default — one attribute load + ``None`` test per
dispatch, the same zero-cost idiom as ``probe``).  When set, every
callback dispatch is bracketed by two ``perf_counter`` reads and accounted
under the *shared function object* (``getattr(cb, "__func__", cb)``), so
per-event cost is two clock reads and two dict operations — no string
formatting, no allocation beyond the bounded trace timeline.  Names are
resolved from ``__module__``/``__qualname__`` only at report time.

Outputs
-------
* :meth:`Profiler.table` / :meth:`Profiler.render_table` — per-callback
  wall-time attribution sorted by total time, with an explicit
  ``(scheduler)`` residual row so the rows always sum to the measured run
  wall time (the ≥95 % attribution requirement is checked against
  :meth:`Profiler.coverage`).
* :meth:`Profiler.trace_json` — Chrome trace-event JSON
  (``chrome://tracing`` / Perfetto loadable), one complete ``"X"`` event
  per dispatched callback, bounded by ``timeline_limit``.
* :meth:`Profiler.to_dict` — JSON-safe summary of everything accounted
  (``repro prof --json``).
"""

from __future__ import annotations

import json
import time
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.eventloop import EventLoop

__all__ = ["Profiler"]


def _callable_name(key: object) -> str:
    """Human name for an accounting key, resolved only at report time."""
    qualname = getattr(key, "__qualname__", None) or getattr(
        key, "__name__", None
    )
    if qualname is None:
        return repr(key)
    module = getattr(key, "__module__", "") or ""
    name = f"{module}.{qualname}" if module else str(qualname)
    # The repro. prefix is noise in a table that is all repro code.
    return name[6:] if name.startswith("repro.") else name


class Profiler:
    """Sampling-free wall-clock accounting for one event loop.

    Parameters
    ----------
    timeline_limit:
        Maximum number of per-dispatch spans retained for the Chrome trace
        export.  Accounting (counts/totals) is exact regardless; only the
        visual timeline is bounded.  ``0`` disables span retention.
    label:
        Name used for the trace process row (e.g. ``"chaos"``).
    """

    # One wall-clock source for the whole channel; swappable in tests.
    clock = staticmethod(time.perf_counter)

    __slots__ = (
        "timeline_limit",
        "label",
        "events",
        "run_wall",
        "heap_depth_max",
        "heap_depth_sum",
        "timeline_truncated",
        "_stats",
        "_timeline",
        "_origin",
        "_run_depth",
        "_run_t0",
    )

    def __init__(self, timeline_limit: int = 50_000, label: str = "sim") -> None:
        self.timeline_limit = timeline_limit
        self.label = label
        #: Callbacks dispatched while attached.
        self.events = 0
        #: Total wall seconds spent inside run_until/step calls.
        self.run_wall = 0.0
        self.heap_depth_max = 0
        self.heap_depth_sum = 0
        self.timeline_truncated = False
        # key (shared function object) -> [calls, total_seconds]
        self._stats: dict[object, list[Any]] = {}
        # (key, start_rel_s, dur_s, sim_at) spans for the trace export.
        self._timeline: list[tuple[object, float, float, float]] = []
        self._origin: float | None = None
        self._run_depth = 0
        self._run_t0 = 0.0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, loop: "EventLoop") -> "Profiler":
        """Install onto ``loop`` (its ``profile`` attribute); returns self."""
        loop.profile = self
        return self

    def detach(self, loop: "EventLoop") -> None:
        if loop.profile is self:
            loop.profile = None

    # ------------------------------------------------------------------
    # accounting (called from the EventLoop dispatch hot path)
    # ------------------------------------------------------------------
    def begin_run(self) -> None:
        """Bracket entry of a run loop; nests (step() inside run_until is
        impossible today, but reentrancy is cheap to tolerate)."""
        if self._run_depth == 0:
            self._run_t0 = self.clock()
            if self._origin is None:
                self._origin = self._run_t0
        self._run_depth += 1

    def end_run(self) -> None:
        self._run_depth -= 1
        if self._run_depth == 0:
            self.run_wall += self.clock() - self._run_t0

    def account(
        self,
        callback: Callable[..., None],
        t0: float,
        t1: float,
        depth: int,
        at: float,
    ) -> None:
        """Record one dispatched callback.

        ``callback`` is keyed by its shared function object so every bound
        method of a class accumulates into one row; ``depth`` is the heap
        size after the pop; ``at`` is the sim time of the event.
        """
        key = getattr(callback, "__func__", callback)
        stat = self._stats.get(key)
        if stat is None:
            stat = self._stats[key] = [0, 0.0]
        stat[0] += 1
        stat[1] += t1 - t0
        self.events += 1
        if depth > self.heap_depth_max:
            self.heap_depth_max = depth
        self.heap_depth_sum += depth
        timeline = self._timeline
        if len(timeline) < self.timeline_limit:
            origin = self._origin
            if origin is None:
                origin = self._origin = t0
            timeline.append((key, t0 - origin, t1 - t0, at))
        elif self.timeline_limit:
            self.timeline_truncated = True

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def callback_wall(self) -> float:
        """Wall seconds attributed to callbacks (excludes scheduler time)."""
        return sum(stat[1] for stat in self._stats.values())

    @property
    def heap_depth_mean(self) -> float:
        return self.heap_depth_sum / self.events if self.events else 0.0

    def coverage(self) -> float:
        """Fraction of measured run wall time attributed to callbacks.

        The remainder is heap maintenance, clock bookkeeping, and the
        profiler's own clock reads — reported as the ``(scheduler)`` row so
        the table always sums to the run wall.
        """
        if self.run_wall <= 0.0:
            return 1.0
        return min(1.0, self.callback_wall / self.run_wall)

    def table(self) -> list[dict[str, Any]]:
        """Attribution rows sorted by total wall time, residual row last."""
        run_wall = self.run_wall if self.run_wall > 0.0 else self.callback_wall
        rows = []
        for key, (calls, total) in self._stats.items():
            rows.append(
                {
                    "name": _callable_name(key),
                    "calls": calls,
                    "total_s": total,
                    "mean_us": (total / calls) * 1e6 if calls else 0.0,
                    "share": total / run_wall if run_wall else 0.0,
                }
            )
        rows.sort(key=lambda r: (-r["total_s"], r["name"]))
        residual = max(0.0, self.run_wall - self.callback_wall)
        if self.run_wall > 0.0:
            rows.append(
                {
                    "name": "(scheduler)",
                    "calls": self.events,
                    "total_s": residual,
                    "mean_us": (residual / self.events) * 1e6
                    if self.events
                    else 0.0,
                    "share": residual / run_wall if run_wall else 0.0,
                }
            )
        return rows

    def render_table(self, top: int | None = None) -> str:
        """The attribution table as aligned text (rows sum to run wall)."""
        rows = self.table()
        if top is not None and top > 0 and len(rows) > top + 1:
            # Keep the residual row; fold the tail into one "(other)" row.
            head, tail = rows[:top], rows[top:-1]
            folded = {
                "name": f"(other: {len(tail)} callbacks)",
                "calls": sum(r["calls"] for r in tail),
                "total_s": sum(r["total_s"] for r in tail),
                "mean_us": 0.0,
                "share": sum(r["share"] for r in tail),
            }
            rows = head + ([folded] if tail else []) + rows[-1:]
        name_w = max([len(r["name"]) for r in rows] + [len("callback")])
        lines = [
            f"profile: {self.events} events, run wall "
            f"{self.run_wall * 1e3:.2f} ms, callback coverage "
            f"{self.coverage() * 100.0:.1f}%, heap depth mean "
            f"{self.heap_depth_mean:.1f} max {self.heap_depth_max}",
            f"{'callback':<{name_w}}  {'calls':>9}  {'total ms':>10}  "
            f"{'mean µs':>9}  {'share':>6}",
        ]
        for r in rows:
            lines.append(
                f"{r['name']:<{name_w}}  {r['calls']:>9}  "
                f"{r['total_s'] * 1e3:>10.3f}  {r['mean_us']:>9.2f}  "
                f"{r['share'] * 100.0:>5.1f}%"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Chrome trace-event export
    # ------------------------------------------------------------------
    def trace_events(self, pid: int = 0) -> list[dict[str, Any]]:
        """Complete ("X" phase) trace events, timestamps in µs from origin."""
        out: list[dict[str, Any]] = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": self.label},
            }
        ]
        for key, start, dur, at in self._timeline:
            out.append(
                {
                    "name": _callable_name(key),
                    "cat": "dispatch",
                    "ph": "X",
                    "ts": start * 1e6,
                    "dur": dur * 1e6,
                    "pid": pid,
                    "tid": 0,
                    "args": {"sim_time": at},
                }
            )
        return out

    def trace_json(self, pid: int = 0) -> str:
        """A ``chrome://tracing``-loadable JSON document."""
        return json.dumps(
            {
                "traceEvents": self.trace_events(pid),
                "displayTimeUnit": "ms",
                "metadata": {
                    "tool": "repro prof",
                    "events": self.events,
                    "run_wall_s": self.run_wall,
                    "timeline_truncated": self.timeline_truncated,
                },
            },
            sort_keys=True,
        )

    # ------------------------------------------------------------------
    # summary
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe summary of everything accounted."""
        return {
            "label": self.label,
            "events": self.events,
            "run_wall_s": self.run_wall,
            "callback_wall_s": self.callback_wall,
            "coverage": self.coverage(),
            "heap_depth_max": self.heap_depth_max,
            "heap_depth_mean": self.heap_depth_mean,
            "callbacks": self.table(),
            "timeline_truncated": self.timeline_truncated,
        }
