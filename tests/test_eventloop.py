"""Unit tests for the deterministic discrete-event loop."""

import pytest

from repro.net.eventloop import EventLoop


def test_call_later_fires_in_order():
    loop = EventLoop()
    fired = []
    loop.call_later(0.3, fired.append, "c")
    loop.call_later(0.1, fired.append, "a")
    loop.call_later(0.2, fired.append, "b")
    loop.run_until_idle()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    loop = EventLoop()
    fired = []
    for tag in range(10):
        loop.call_later(1.0, fired.append, tag)
    loop.run_until_idle()
    assert fired == list(range(10))


def test_clock_advances_to_event_time():
    loop = EventLoop()
    seen = []
    loop.call_later(2.5, lambda: seen.append(loop.now))
    loop.run_until_idle()
    assert seen == [2.5]


def test_cancel_prevents_execution():
    loop = EventLoop()
    fired = []
    handle = loop.call_later(1.0, fired.append, "x")
    handle.cancel()
    loop.run_until_idle()
    assert fired == []


def test_cancel_is_idempotent():
    loop = EventLoop()
    handle = loop.call_later(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert loop.run_until_idle() == 0


def test_cannot_schedule_in_the_past():
    loop = EventLoop()
    loop.call_later(1.0, lambda: None)
    loop.run_until_idle()
    with pytest.raises(ValueError):
        loop.call_at(0.5, lambda: None)


def test_negative_delay_rejected():
    loop = EventLoop()
    with pytest.raises(ValueError):
        loop.call_later(-0.1, lambda: None)


def test_run_until_respects_deadline():
    loop = EventLoop()
    fired = []
    loop.call_later(1.0, fired.append, "early")
    loop.call_later(5.0, fired.append, "late")
    loop.run_until(2.0)
    assert fired == ["early"]
    assert loop.now == 2.0  # clock parked exactly at the deadline


def test_run_for_composes():
    loop = EventLoop()
    fired = []
    loop.call_later(1.5, fired.append, "x")
    loop.run_for(1.0)
    assert fired == []
    loop.run_for(1.0)
    assert fired == ["x"]
    assert loop.now == 2.0


def test_events_scheduled_during_run_execute():
    loop = EventLoop()
    fired = []

    def outer():
        fired.append("outer")
        loop.call_later(0.5, fired.append, "inner")

    loop.call_later(1.0, outer)
    loop.run_until(2.0)
    assert fired == ["outer", "inner"]


def test_seeded_rng_is_deterministic():
    a = EventLoop(seed=99)
    b = EventLoop(seed=99)
    assert [a.rng.random() for _ in range(5)] == [b.rng.random() for _ in range(5)]


def test_run_until_idle_guards_against_runaway():
    loop = EventLoop()

    def respawn():
        loop.call_later(0.001, respawn)

    loop.call_later(0.001, respawn)
    with pytest.raises(RuntimeError):
        loop.run_until_idle(max_events=100)


def test_run_until_max_events_guard():
    loop = EventLoop()
    for _ in range(50):
        loop.call_later(0.5, lambda: None)
    with pytest.raises(RuntimeError):
        loop.run_until(1.0, max_events=10)


def test_events_processed_counter():
    loop = EventLoop()
    for _ in range(3):
        loop.call_later(0.1, lambda: None)
    loop.run_until_idle()
    assert loop.events_processed == 3


def test_peek_time_skips_cancelled():
    loop = EventLoop()
    h = loop.call_later(0.1, lambda: None)
    loop.call_later(0.7, lambda: None)
    h.cancel()
    assert loop.peek_time() == pytest.approx(0.7)


def test_non_finite_when_rejected():
    # Regression: NaN/inf timestamps used to sink silently into the heap,
    # poisoning every later comparison (NaN compares false with everything).
    loop = EventLoop()
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            loop.call_at(bad, lambda: None)


def test_non_finite_delay_rejected():
    loop = EventLoop()
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            loop.call_later(bad, lambda: None)


def test_nan_deadline_rejected():
    # Regression: ``when > deadline`` is always False for a NaN deadline,
    # so a self-rescheduling timer used to run unbounded under run_until.
    loop = EventLoop()
    fired = []

    def tick() -> None:
        fired.append(loop.now)
        loop.call_later(0.01, tick)

    loop.call_later(0.01, tick)
    with pytest.raises(ValueError):
        loop.run_until(float("nan"))
    with pytest.raises(ValueError):
        loop.run_for(float("nan"))
    assert fired == [] and loop.now == 0.0


# -- the clock (the loop is its only owner; ``now`` is a plain attribute) --
def test_starts_at_zero_by_default():
    assert EventLoop().now == 0.0


def test_starts_at_given_time():
    assert EventLoop(start=5.5).now == 5.5


def test_rejects_negative_start():
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            EventLoop(start=bad)


def test_advance_moves_forward():
    loop = EventLoop()
    loop.run_until(3.25)
    assert loop.now == 3.25


def test_advance_to_same_time_is_allowed():
    loop = EventLoop(start=2.0)
    fired = []
    loop.call_at(2.0, fired.append, "now")
    loop.run_until(2.0)
    assert fired == ["now"] and loop.now == 2.0


def test_time_cannot_flow_backwards():
    loop = EventLoop(start=10.0)
    loop.run_until(9.999)  # a deadline in the past leaves the clock alone
    assert loop.now == 10.0
    with pytest.raises(ValueError):
        loop.call_at(9.999, lambda: None)
    assert loop.now == 10.0


# ----------------------------------------------------------------------
# the dispatch hook (``EventLoop.profile``), which the benchmark ledger's
# per-layer tracer taps; a stub hook stands in for it
# ----------------------------------------------------------------------
class StubHook:
    """A :class:`~repro.net.eventloop.DispatchHook` that records what the
    loop hands it.  Its clock counts reads instead of telling time."""

    def __init__(self):
        self.reads = 0
        self.open = 0  # run brackets begun and not yet ended
        self.runs = 0
        self.accounted = []  # (callback, depth, at)

    def begin_run(self):
        self.open += 1
        self.runs += 1

    def end_run(self):
        self.open -= 1

    def clock(self):
        self.reads += 1
        return float(self.reads)

    def account(self, callback, t0, t1, depth, at):
        # Inside a run bracket, between two reads of this hook's clock.
        assert self.open > 0 and t1 > t0
        self.accounted.append((callback, depth, at))


def test_hook_accounts_every_dispatch_once():
    loop = EventLoop(seed=1)
    hook = StubHook()
    loop.profile = hook

    def drain():
        pass

    loop.drains.append(drain)
    hits = []
    for i in range(50):
        loop.call_later(i * 0.001, hits.append, i)
    loop.run_until(0.0245)
    loop.run_until_idle()
    assert hits == list(range(50))
    dispatched = [cb for cb, _, _ in hook.accounted if cb is not drain]
    assert dispatched == [hits.append] * 50 == [hits.append] * loop.events_processed
    # The drain runs once per run call and is accounted like a callback.
    assert [cb for cb, _, _ in hook.accounted if cb is drain] == [drain, drain]
    assert hook.open == 0


def test_hook_accounts_a_step():
    loop = EventLoop(seed=1)
    hook = StubHook()
    loop.profile = hook
    hits = []
    loop.call_later(0.0, hits.append, "x")
    assert loop.step() is True
    assert hits == ["x"]
    assert [cb for cb, _, _ in hook.accounted] == [hits.append]
    assert hook.runs == 1 and hook.open == 0
    assert loop.step() is False
    assert len(hook.accounted) == 1


def test_hook_sees_heap_depth_and_virtual_time():
    loop = EventLoop(seed=1)
    hook = StubHook()
    loop.profile = hook
    for i in range(5):
        loop.call_later(0.1 * (i + 1), lambda: None)
    loop.run_until_idle()
    # ``depth`` is the heap size after the pop; ``at`` the event's time.
    assert [(d, at) for _, d, at in hook.accounted] == [
        (4 - i, 0.1 * (i + 1)) for i in range(5)
    ]


def test_hook_is_off_by_default():
    loop = EventLoop(seed=1)
    assert loop.profile is None
    seen = []
    loop.call_later(0.1, lambda: seen.append(loop.profile))
    loop.run_until(0.2)
    assert seen == [None]


def test_clearing_the_hook_restores_the_unprofiled_loop():
    loop = EventLoop(seed=1)
    hook = StubHook()
    loop.profile = hook
    loop.profile = None
    loop.call_later(0.0, lambda: None)
    loop.run_until_idle()
    assert hook.accounted == [] and hook.runs == 0 and hook.reads == 0


def test_probe_stream_identical_with_a_hook_attached():
    from repro.cluster.harness import RaincoreCluster
    from repro.obs import events_to_jsonl

    def quickstart(hook):
        # The quickstart scenario, the hook attached before any dispatch.
        ids = [chr(ord("A") + i) for i in range(4)]
        cluster = RaincoreCluster(ids, seed=2024)
        cluster.loop.profile = hook
        events = []
        cluster.enable_probes().subscribe(events.extend)
        cluster.start_all()
        cluster.node(ids[0]).multicast(b"probe-me")
        cluster.run(1.0)
        victim = ids[-1]
        cluster.faults.crash_node(victim)
        cluster.run_until_converged(5.0, expected=set(ids) - {victim})
        cluster.faults.recover_node(victim)
        cluster.run_until_converged(8.0, expected=set(ids))
        return events

    hook = StubHook()
    hooked = quickstart(hook)
    assert hook.accounted
    assert events_to_jsonl(hooked) == events_to_jsonl(quickstart(None))
