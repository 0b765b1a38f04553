"""Asyncio-backed scheduler: the real-time twin of the simulation loop.

The protocol core (:class:`~repro.core.session.RaincoreNode` and everything
under it) consumes only a few things from its "loop": ``now``,
``call_later(delay, cb, *args)`` and ``call_at(when, cb, *args)`` returning
a cancellable handle, a seeded ``rng``, and ``reserve_key()`` /
``call_at_key(when, key, cb, *args)``, with which a lazy deadline keeps its
place among same-instant events (a simulator tie-break that a real clock
does not have, so here a key only tells deadlines apart).  The simulator's
:class:`~repro.net.eventloop.EventLoop` provides them over virtual time;
this adapter provides them over a running :mod:`asyncio` loop, which is how
the same untouched protocol code runs on real UDP sockets (paper
deployments ran on real networks — this driver is the reproduction's
existence proof that nothing in the protocol depends on the simulator).
"""

from __future__ import annotations

import asyncio
import itertools
import random
from typing import Any, Callable

__all__ = ["AsyncioScheduler"]


class AsyncioScheduler:
    """Adapter exposing the simulator's scheduling interface over asyncio."""

    def __init__(self, loop: asyncio.AbstractEventLoop, seed: int = 0):
        self._loop = loop
        self.rng = random.Random(seed)
        self._keys = itertools.count()

    @property
    def now(self) -> float:
        """Monotonic seconds, the asyncio loop's clock."""
        return self._loop.time()

    def call_later(self, delay: float, callback: Callable[..., None], *args: Any):
        """Schedule ``callback(*args)``; returns a handle with ``cancel()``."""
        return self._loop.call_later(delay, callback, *args)

    def call_at(self, when: float, callback: Callable[..., None], *args: Any):
        """Schedule at absolute loop time ``when``; a deadline already past
        runs on the loop's next turn (the token hold relies on that)."""
        return self._loop.call_at(when, callback, *args)

    def reserve_key(self) -> int:
        """A fresh key: its owner tells its own deadlines apart by it."""
        return next(self._keys)

    def call_at_key(
        self, when: float, key: int, callback: Callable[..., None], *args: Any
    ):
        """:meth:`call_at`; real time has no same-instant order to keep."""
        return self.call_at(when, callback, *args)
