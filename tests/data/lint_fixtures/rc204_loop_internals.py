"""Fixture: RC204 — EventLoop internals touched outside repro/net."""


def peek(loop):
    return loop._heap[0]


def skip_ahead(loop):
    loop.now = 5.0


def nudge(cluster):
    cluster.loop.now += 0.5


def fine(clock, loop):
    clock.now = 1.0  # not a loop: out of scope
    return loop.now  # reading the clock is what everyone does
