"""Deterministic discrete-event scheduler.

This is the execution substrate for the whole reproduction: network packet
arrivals, protocol timers, fault injections and workload events are all
callbacks scheduled on one :class:`EventLoop`.

Determinism rules
-----------------
* Events fire in ``(time, sequence)`` order.  The monotonically
  increasing sequence number breaks ties between events scheduled for the
  same instant, so two runs with the same seed replay identically.
* All randomness used by the simulation (packet loss draws, workload
  arrivals) must come from :attr:`EventLoop.rng`, a seeded
  :class:`random.Random`.

Timers are cancellable handles rather than removable heap entries: cancelling
marks the handle dead and the heap entry is discarded when popped.  This is
the standard lazy-deletion scheme used by ``asyncio`` and keeps cancellation
O(1).  A dead entry still costs a push and a pop, so protocol deadlines that
usually never fire (HUNGRY, retransmit) are kept lazy by their owners: one
armed handle each, re-armed from the handle when it fires early, never
cancelled and re-armed per hop (docs/DETERMINISM.md).  A lazy deadline
reserves its ordering key when it is set (``EventLoop.reserve_key``)
and its handle is armed with that key (:meth:`EventLoop.call_at_key`), so
it fires among same-instant events exactly where a timer armed when the
deadline was set would have.

The clock
---------
:attr:`EventLoop.now` is a plain attribute, written once per dispatch by the
loop and read directly by everything else: the loop is the only clock owner,
so there is no clock object to reach through.  Time never flows backwards —
``call_at`` refuses the past, so the heap head is never earlier than ``now``
— and nothing outside ``repro/net`` may assign it (raincheck RC204).

Hot-path layout
---------------
The heap holds tuples keyed by ``(when, seq)``, so every sift comparison
is a C-level tuple comparison instead of a Python ``__lt__`` call — at ~10
comparisons per push/pop this is the single largest cost of the loop.
Keys are unique, so a comparison never reaches the third field.  Entries
come in two shapes:

* ``(when, seq, handle)`` — a :class:`TimerHandle` from ``call_at`` /
  ``call_later`` / ``call_at_key``, which its owner may cancel;
* ``(when, seq, None, callback, arg)`` — a plain entry that runs
  ``callback(arg)`` and can never be cancelled.  The datagram network
  schedules every packet arrival this way (nothing cancels a packet in
  flight), so an arrival allocates no handle.

The third field tells the shapes apart with one identity test, which costs
the timer-only loop nothing measurable.

``run_until`` examines the heap head directly and pops each entry exactly
once per dispatch (no separate peek-then-pop scan over cancelled entries).
Both shapes are dispatched, counted and profiled alike.
"""

from __future__ import annotations

import itertools
import math
import random
from heapq import heappop, heappush
from typing import Any, Callable, Protocol

__all__ = ["DispatchHook", "EventLoop", "TimerHandle"]


class DispatchHook(Protocol):
    """What :attr:`EventLoop.profile` must speak (the benchmark ledger's
    per-layer tracer taps the loop through it).

    ``begin_run`` / ``end_run`` bracket each ``run_until`` / ``step`` /
    drain; around every dispatched callback the loop reads ``clock()``
    before and after, then calls ``account(callback, t0, t1, depth, at)``
    with the heap size after the pop and the event's virtual time.
    """

    def begin_run(self) -> None: ...  # pragma: no cover

    def end_run(self) -> None: ...  # pragma: no cover

    def clock(self) -> float: ...  # pragma: no cover

    def account(
        self, callback: Callable[..., Any], t0: float, t1: float, depth: int, at: float
    ) -> None: ...  # pragma: no cover


class TimerHandle:
    """A cancellable reference to one scheduled callback."""

    __slots__ = ("when", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        when: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...],
    ) -> None:
        self.when = when
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running; idempotent."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "armed"
        return f"TimerHandle(when={self.when:.6f}, seq={self.seq}, {state})"


class EventLoop:
    """A seeded, deterministic discrete-event loop over a virtual clock.

    Parameters
    ----------
    seed:
        Seed for :attr:`rng`.  Every run of a scenario with the same seed
        produces an identical event trace.
    start:
        Initial virtual time in seconds; may not be negative.
    """

    def __init__(self, seed: int = 0, start: float = 0.0) -> None:
        if not start >= 0.0:
            raise ValueError(f"clock cannot start at negative time: {start}")
        #: Current virtual time in seconds.  Written only by the loop, once
        #: per dispatched event; everyone else reads it.
        self.now = float(start)
        self.rng = random.Random(seed)
        # Heap entries: (when, seq, handle) or (when, seq, None, callback, arg).
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        #: ``reserve_key()`` reserves the ordering key a callback scheduled
        #: now would take: events at one instant fire in the order their
        #: keys were drawn.  A lazy deadline reserves its key when it is
        #: set and hands it to :meth:`call_at_key` when it finally arms a
        #: handle, so it fires where a timer armed at that moment would
        #: have.  It is the counter's own ``__next__``: reserving (twice
        #: per token hop) costs no Python frame.
        self.reserve_key: Callable[[], int] = self._seq.__next__
        self._events_processed = 0
        #: Optional dispatch hook (:class:`DispatchHook`) — the same
        #: zero-cost-when-disabled idiom as the probe bus: one attribute
        #: load and one None test per dispatch.  A hook observes wall-clock
        #: only; it never touches the heap, the clock or the rng, so
        #: attaching one cannot change a deterministic trace.
        self.profile: DispatchHook | None = None
        #: Called before every ``run_*``/``step`` call returns — the probe
        #: bus drains its journal here, so consumer work stays inside the
        #: caller's timed region and no reader after a run sees a stale view.
        self.drains: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for run-away detection)."""
        return self._events_processed

    def call_at(
        self, when: float, callback: Callable[..., None], *args: Any
    ) -> TimerHandle:
        """Schedule ``callback(*args)`` at absolute virtual time ``when``.

        ``when`` must be finite and may not be in the past.  Events
        scheduled for the same instant fire in scheduling order.
        """
        if not math.isfinite(when):
            # A NaN heap key silently corrupts sift ordering (every
            # comparison is False) and breaks deterministic replay; +/-inf
            # is a scheduling bug that would otherwise wedge run_until.
            raise ValueError(f"when must be finite, got {when}")
        if when < self.now:
            raise ValueError(f"cannot schedule in the past: {when} < now={self.now}")
        seq = next(self._seq)
        handle = TimerHandle(when, seq, callback, args)
        heappush(self._heap, (when, seq, handle))
        return handle

    def call_later(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> TimerHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if not delay >= 0.0 or delay == math.inf:
            # The inverted comparison also rejects NaN (NaN >= 0.0 is
            # False), which would otherwise corrupt heap order silently.
            raise ValueError(f"delay must be finite and non-negative, got {delay}")
        # Inlined call_at: delay >= 0 means when >= now by construction.
        when = self.now + delay
        seq = next(self._seq)
        handle = TimerHandle(when, seq, callback, args)
        heappush(self._heap, (when, seq, handle))
        return handle

    def call_at_key(
        self, when: float, key: int, callback: Callable[..., None], *args: Any
    ) -> TimerHandle:
        """:meth:`call_at`, ordered among same-instant events by ``key``.

        ``key`` comes from :attr:`reserve_key`; each key may be armed once.
        """
        if not math.isfinite(when):
            raise ValueError(f"when must be finite, got {when}")
        if when < self.now:
            raise ValueError(f"cannot schedule in the past: {when} < now={self.now}")
        handle = TimerHandle(when, key, callback, args)
        heappush(self._heap, (when, key, handle))
        return handle

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def peek_time(self) -> float | None:
        """Virtual time of the next live event, or ``None`` if idle."""
        heap = self._heap
        while heap and heap[0][2] is not None and heap[0][2].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Run the single next event.  Returns ``False`` if the loop is idle."""
        ran = self._step()
        self._drain()
        return ran

    def _step(self) -> bool:
        heap = self._heap
        prof = self.profile
        while heap:
            entry = heappop(heap)
            handle = entry[2]
            if handle is not None and handle.cancelled:
                continue
            when = entry[0]
            self.now = when
            self._events_processed += 1
            if prof is None:
                if handle is None:
                    entry[3](entry[4])
                else:
                    handle.callback(*handle.args)
                return True
            if handle is None:
                callback, args = entry[3], (entry[4],)
            else:
                callback, args = handle.callback, handle.args
            prof.begin_run()
            t0 = prof.clock()
            callback(*args)
            prof.account(callback, t0, prof.clock(), len(heap), when)
            prof.end_run()
            return True
        return False

    def run_until(self, deadline: float, max_events: int | None = None) -> int:
        """Run events up to and including virtual time ``deadline``.

        The clock is left exactly at ``deadline`` even if the loop drains
        early, so back-to-back ``run_until`` calls compose naturally.
        Returns the number of events executed.  ``max_events`` guards
        against run-away protocol loops in tests.
        """
        if math.isnan(deadline):
            # ``when > deadline`` is never true: the run would not stop.
            raise ValueError(f"deadline must not be NaN, got {deadline}")
        executed = 0
        heap = self._heap
        pop = heappop
        prof = self.profile
        if prof is not None:
            prof.begin_run()
        try:
            while heap:
                entry = heap[0]
                handle = entry[2]
                if handle is not None and handle.cancelled:
                    pop(heap)
                    continue
                when = entry[0]
                if when > deadline:
                    break
                if max_events is not None and executed >= max_events:
                    raise RuntimeError(
                        f"run_until exceeded max_events={max_events} before {deadline}"
                    )
                pop(heap)
                self.now = when
                self._events_processed += 1
                if prof is None:
                    if handle is None:
                        entry[3](entry[4])
                    else:
                        handle.callback(*handle.args)
                else:
                    if handle is None:
                        callback, args = entry[3], (entry[4],)
                    else:
                        callback, args = handle.callback, handle.args
                    t0 = prof.clock()
                    callback(*args)
                    prof.account(callback, t0, prof.clock(), len(heap), when)
                executed += 1
        finally:
            if prof is not None:
                prof.end_run()
        if deadline > self.now:
            self.now = deadline
        self._drain()
        return executed

    def run_for(self, duration: float, max_events: int | None = None) -> int:
        """Run events for ``duration`` seconds of virtual time."""
        if not duration >= 0.0:
            # The inverted comparison also rejects NaN.
            raise ValueError(f"duration must be non-negative, got {duration}")
        return self.run_until(self.now + duration, max_events=max_events)

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Run until no events remain.

        Protocols that self-perpetuate (token circulation, beacons) never go
        idle, so this is only useful for bounded scenarios and tests.
        """
        executed = 0
        while self._step():
            executed += 1
            if executed >= max_events:
                raise RuntimeError(f"loop did not go idle within {max_events} events")
        self._drain()
        return executed

    def _drain(self) -> None:
        """Run the drain hooks before a run call returns.  Under a dispatch
        hook each is timed and accounted like a dispatched callback, so the work
        it triggers is billed, once, to its own spans."""
        prof = self.profile
        for drain in self.drains:
            if prof is None:
                drain()
            else:
                prof.begin_run()
                t0 = prof.clock()
                drain()
                prof.account(drain, t0, prof.clock(), len(self._heap), self.now)
                prof.end_run()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventLoop(now={self.now:.6f}, pending={len(self._heap)}, "
            f"processed={self._events_processed})"
        )

