"""Asyncio-backed scheduler: the real-time twin of the simulation loop.

The protocol core (:class:`~repro.core.session.RaincoreNode` and everything
under it) consumes only four things from its "loop": ``now``,
``call_later(delay, cb, *args)`` and ``call_at(when, cb, *args)`` returning
a cancellable handle, and a seeded ``rng``.  The simulator's :class:`~repro.net.eventloop.EventLoop`
provides them over virtual time; this adapter provides them over a running
:mod:`asyncio` loop, which is how the same untouched protocol code runs on
real UDP sockets (paper deployments ran on real networks — this driver is
the reproduction's existence proof that nothing in the protocol depends on
the simulator).
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Callable

__all__ = ["AsyncioScheduler"]


class AsyncioScheduler:
    """Adapter exposing the simulator's scheduling interface over asyncio."""

    def __init__(self, loop: asyncio.AbstractEventLoop | None = None, seed: int = 0):
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self.rng = random.Random(seed)

    @property
    def now(self) -> float:
        """Monotonic seconds, the asyncio loop's clock."""
        return self._loop.time()

    def call_later(
        self, delay: float, callback: Callable[..., None], *args: Any, priority: int = 0
    ):
        """Schedule ``callback(*args)``; returns a handle with ``cancel()``.

        ``priority`` is accepted for interface compatibility and ignored —
        wall-clock time does not produce exact ties.
        """
        return self._loop.call_later(delay, callback, *args)

    def call_at(self, when: float, callback: Callable[..., None], *args: Any, priority: int = 0):
        """Schedule at absolute loop time ``when``; a deadline already past
        runs on the loop's next turn (the token hold relies on that)."""
        return self._loop.call_at(when, callback, *args)
