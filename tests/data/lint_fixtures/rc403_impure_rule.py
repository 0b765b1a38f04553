"""RC403 fixture: contract-monitor rules that read ambient state."""

import time

from repro.obs.monitor import contract_rule

_LAST_SEEN = {}


@contract_rule("wall-clock-rule")
def check_with_wall_clock(w):
    started = time.perf_counter()  # BAD: wall-clock read inside a rule
    if not w.kinds("token.accept"):
        return (w.start, 0.0, f"took {time.perf_counter() - started}")  # BAD
    return None


@contract_rule("stateful-rule")
def check_with_global_state(w):
    global _LAST_SEEN  # BAD: carries state between evaluations
    _LAST_SEEN[w.node] = w.end
    return None


@contract_rule("mutating-rule")
def check_mutates_window(w):
    w.params["count"] = len(w.kinds("fd.arm"))  # ok: subscript, caught at runtime
    w.cursor = w.end  # BAD: attribute write on ambient object
    return None


@contract_rule("clock-peeking-rule")
def check_reads_loop_now(w, loop=None):
    if loop is not None and w.end < loop.now:  # BAD: ambient .now read
        return (w.start, w.end, "stale window")
    return None


# Not a contract rule: the same constructs are fine elsewhere (RC101
# still covers wall-clock reads, but RC403 must stay silent here).
def helper(obj):
    obj.cursor = 0
    return obj
