"""Counted-work bill of the simulator, plus the bare event-loop rate.

The paper's cost model is a count, not a time: each node takes *L* group
communication wakeups per second (PAPER.md §4.1).  :func:`count_ring`
prices one fixed ring the same way.  It runs :data:`WORKLOAD` under
``sys.setprofile`` and charges every Python or builtin call to the
``repro.<package>`` (the layer) of the frame that makes it.  Calls made
from stdlib frames are not counted, so a patch release of Python cannot
move the bill; calls *into* the stdlib from a layer are.  Beside the
per-layer calls the bill records what the ring did in that window:
dispatched events, packets and bytes sent, token hops and agreed
deliveries, and calls per hop and per delivery.

The bill is exact: two runs on the same Python minor version print the
same bytes, whatever ``PYTHONHASHSEED`` is.  ``repro bench`` prints it as
sorted JSON and ``repro bench --check benchmarks/BENCH_counts.json`` gates
on it (exit 1 naming each field that moved, exit 2 when the pin was made
on another minor version).  End-to-end wall-clock claims belong to the
benchmark ledger (``benchmarks/ledger``), not here.

.. note::
   :func:`bench_event_loop` is the one wall-clock read here (RC101
   allowlists this module for it); ``benchmarks/ledger/micro.py`` imports
   it.  The bill itself reads no clock.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Any

__all__ = ["WORKLOAD", "bench_event_loop", "count_ring", "diff"]

#: The billed ring: 8 nodes, seed 2, a 5 ms hop, 50 multicasts of 200 B
#: queued once the ring has formed, then this many virtual seconds profiled.
WORKLOAD = {
    "nodes": 8,
    "seed": 2,
    "hop_interval": 0.005,
    "multicasts": 50,
    "multicast_bytes": 200,
    "sim_seconds": 1.0,
}


def bench_event_loop(n_events: int) -> float:
    """Dispatch ``n_events`` no-op callbacks; return events per wall second."""
    from repro.net.eventloop import EventLoop

    loop = EventLoop(seed=1)
    callback = lambda: None  # noqa: E731 - cheapest possible event body
    for i in range(n_events):
        loop.call_later(i * 1e-6, callback)
    t0 = time.perf_counter()
    loop.run_until_idle()
    t1 = time.perf_counter()
    return n_events / (t1 - t0)


def _ring_totals(cluster) -> dict[str, int]:
    stats = cluster.network.stats
    return {
        "events": cluster.loop.events_processed,
        "packets": stats.total("packets_sent"),
        "bytes": stats.total("bytes_sent"),
        "hops": max(cluster.node(nid).local_copy_seq for nid in cluster.node_ids),
        "deliveries": cluster.total_deliveries(),
    }


def count_ring() -> dict[str, Any]:
    """Run :data:`WORKLOAD` once and return its bill (see the module doc)."""
    from repro.cluster.harness import RaincoreCluster
    from repro.core.config import RaincoreConfig

    w = WORKLOAD
    cluster = RaincoreCluster(
        [f"n{i}" for i in range(w["nodes"])],
        seed=w["seed"],
        config=RaincoreConfig.tuned(
            ring_size=w["nodes"], hop_interval=w["hop_interval"]
        ),
    )
    cluster.start_all()
    for i in range(w["multicasts"]):
        cluster.node(f"n{i % w['nodes']}").multicast(
            f"m{i}", size=w["multicast_bytes"]
        )
    before = _ring_totals(cluster)
    calls: Counter[str] = Counter()

    def tally(frame, event, arg) -> None:
        if event == "call":
            frame = frame.f_back
        elif event != "c_call":
            return
        module = frame.f_globals.get("__name__", "")
        # The harness's own two calls (run and setprofile) are not billed.
        if module.startswith("repro.") and module != __name__:
            calls[module.split(".", 2)[1]] += 1

    run = cluster.run
    sys.setprofile(tally)
    try:
        run(w["sim_seconds"])
    finally:
        sys.setprofile(None)
    after = _ring_totals(cluster)
    bill: dict[str, Any] = {k: after[k] - before[k] for k in after}
    total = sum(calls.values())
    bill.update(
        python="{}.{}".format(*sys.version_info[:2]),
        workload=dict(w),
        calls=dict(sorted(calls.items())),
        calls_total=total,
        calls_per_hop=round(total / bill["hops"], 2) if bill["hops"] else None,
        calls_per_delivery=(
            round(total / bill["deliveries"], 2) if bill["deliveries"] else None
        ),
    )
    return bill


def _flatten(bill: dict[str, Any]) -> dict[str, Any]:
    flat: dict[str, Any] = {}
    for key, value in bill.items():
        if isinstance(value, dict):
            flat.update((f"{key}.{sub}", v) for sub, v in value.items())
        else:
            flat[key] = value
    return flat


def diff(bill: dict[str, Any], pin: dict[str, Any]) -> list[str]:
    """One ``"field: pinned -> now"`` line per field of the bill that moved.

    Nested fields read ``calls.net``; a field only one side has reads
    ``None`` on the other.  Empty when the bill matches the pin exactly.
    """
    now, pinned = _flatten(bill), _flatten(pin)
    return [
        f"{key}: {pinned.get(key)} -> {now.get(key)}"
        for key in sorted(now.keys() | pinned.keys())
        if now.get(key) != pinned.get(key)
    ]
