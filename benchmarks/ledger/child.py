"""One (workload, repeat): set up, time a fixed amount of work, check, report.

Runs in a fresh interpreter spawned by :mod:`benchmarks.ledger.cli` and
prints a single JSON object.  ``setup_s`` counts from the moment the parent
spawned this process (``--spawned-at``, on the system-wide monotonic clock)
to the moment the group is formed and ready to time, so interpreter start-up
and imports are in it.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

__all__ = ["main"]


def peak_rss_mb() -> float:
    """This process's own high-water mark.  ``ru_maxrss`` would do, except
    that it survives ``exec``: a child reports at least its parent's size."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_bill(wl, tracer, wall: float, cpu: float, delta: dict, hops: int) -> tuple[dict, dict]:
    """Fold the traced run into ``<layer>.<metric>`` values.

    Returns ``(metrics, shares)``; shares are each layer's self time as a
    fraction of the timed region and, with the dispatch residual, sum to 1.
    """
    from benchmarks.ledger.accounting import nearest_rank
    from benchmarks.ledger.tracing import LAYERS

    ledger = wl.ledger
    agreed = max(1, ledger.completed)
    layer_self = tracer.layer_self()
    tap = wl.loop_tap
    if tap is not None:
        # Simulator: shares of the timed wall.  Time outside the loop's run
        # calls is the harness polling for convergence: the benchmark's own.
        basis = wall
        residual = tap.run_wall - tap.callback_wall
        layer_self["bench"] += wall - tap.run_wall
        events = tap.events
    else:
        # Real runtime: the process sleeps between timers, so shares are of
        # CPU time; the residual is asyncio, the selector and recvfrom.
        basis = cpu
        residual = cpu - tracer.top_total
        events = 0
    shares = {layer: layer_self[layer] / basis for layer in LAYERS}
    shares["loop"] = residual / basis

    def quantile(name: str, q: float) -> float:
        return nearest_rank(sorted(tracer.samples.get(name, ())), q)

    count, self_us, total_us = tracer.count, tracer.self_us, tracer.total_us
    probe_events = delta.get("probe_events", 0)
    per_probe = 1e6 / probe_events if probe_events else 0.0
    rows = tracer.rows

    def seconds(name: str) -> float:
        return rows[name][2] if name in rows else 0.0

    udp = wl.clock == "real"
    m = {
        "net.events": delta.get("events", 0),
        "net.events_per_agreed": delta.get("events", 0) / agreed,
        "net.packets_sent": 0 if udp else delta["packets_sent"],
        "net.bytes_sent": 0 if udp else delta["bytes_sent"],
        "net.packets_dropped": 0 if udp else delta["packets_dropped"],
        "net.send_self_us": self_us("net.send"),
        "net.deliver_self_us": self_us("net.deliver"),
        "net.loop_self_us_per_event": residual / events * 1e6 if events else 0.0,
        "transport.sends": count("transport.send"),
        "transport.acks": count("transport.on_ack"),
        "transport.retransmits": max(0, count("transport.transmit") - count("transport.send")),
        "transport.failures": tracer.counters["transport.failures"],
        "transport.sheds": delta["sheds"],
        "transport.send_self_us": self_us("transport.send"),
        "transport.recv_self_us": self_us("transport.recv"),
        "core.token_visits": count("core.visit"),
        "core.msgs_per_visit": count("core.multicast") / max(1, count("core.visit")),
        "core.token_bytes_p50": quantile("core.token_bytes", 0.50),
        "core.token_bytes_p99": quantile("core.token_bytes", 0.99),
        "core.wakeups_per_node_per_sim_s": delta["wakeups"] / len(wl.nodes) / wl.sim_s,
        "core.view_changes": delta["views"],
        "core.regen_rounds": delta["regens"],
        "core.merges": delta["merges"],
        "core.false_alarms": tracer.counters["core.false_alarms"],
        "core.multicast_call_us": total_us("core.multicast"),
        "core.visit_self_us": self_us("core.visit"),
        "core.crash_outage_sim_ms": 0.0,
        "core.merge_heal_sim_ms": 0.0,
        "data.writes": count("data.set"),
        "data.log_appends": count("data.log_append"),
        "data.segments_sealed": tracer.counters["data.segments_sealed"],
        "data.acks_sent": count("data.ack"),
        "data.segments_pruned": tracer.counters["data.segments_pruned"],
        "data.retained_bytes_peak": tracer.peaks.get("data.retained_bytes", 0.0),
        "data.resync_delta": count("data.resync_delta"),
        "data.resync_snapshot": count("data.resync_snapshot"),
        "data.quarantines": count("core.quarantine"),
        "data.set_call_us": total_us("data.set"),
        "data.get_call_us": total_us("data.get"),
        "data.apply_self_us": self_us("data.apply"),
        "apps.flows_admitted": delta.get("flows_admitted", 0),
        "apps.flows_completed": delta.get("flows_completed", 0),
        "apps.flows_open_peak": tracer.peaks.get("apps.flows_open", 0.0),
        "apps.throughput_mbps": 0.0,
        "apps.tick_self_us": self_us("apps.tick"),
        "apps.admit_self_us": self_us("apps.admit"),
        "obs.probe_events": probe_events,
        "obs.emit_self_us": self_us("obs.emit"),
        "obs.recorder_us_per_event": seconds("obs.recorder") * per_probe,
        "obs.monitor_us_per_event": (seconds("obs.monitor") + seconds("obs.monitor_tick")) * per_probe,
        "obs.agg_us_per_event": seconds("obs.agg") * per_probe,
        "obs.shipper_us_per_event": seconds("obs.shipper") * per_probe,
        "obs.framed_bytes_per_event": delta.get("sink_bytes", 0) / probe_events if probe_events else 0.0,
        "obs.alerts": delta.get("alerts", 0),
        "runtime.datagrams_sent": delta["packets_sent"] if udp else 0,
        "runtime.datagrams_dropped": delta["packets_dropped"] if udp else 0,
        "runtime.frame_bytes_per_hop": delta.get("frame_bytes", 0) / max(1, hops),
        "runtime.frame_to_declared_ratio": (
            delta["frame_bytes"] / delta["bytes_sent"] if udp and delta["bytes_sent"] else 0.0
        ),
        "runtime.send_self_us": self_us("runtime.send"),
        "runtime.recv_self_us": self_us("runtime.recv"),
        "runtime.timer_late_ms_p50": quantile("runtime.timer_late_ms", 0.50),
        "runtime.timer_late_ms_p99": quantile("runtime.timer_late_ms", 0.99),
        "runtime.hops_per_s": hops / wall if udp else 0.0,
        "runtime.cpu_util": cpu / wall if udp else 0.0,
        "runtime.loadgen_late_ms_p99": 0.0,
        "runtime.ops_over_limit": ledger.late,
    }
    m.update(wl.extra)
    for layer in LAYERS:
        m[f"{layer}.self_share"] = shares[layer]
    m["loop.residual_share"] = shares["loop"]
    return m, shares


def run(args) -> dict:
    imports_at = time.monotonic()
    from benchmarks.ledger.workloads import WORKLOADS

    tracer = None
    if args.trace:
        from benchmarks.ledger.tracing import Tracer, install_boundaries

        tracer = Tracer()
        install_boundaries(tracer)
    built_at = time.monotonic()
    import_wall = built_at - imports_at

    wl = WORKLOADS[args.workload](args.seed, tracer, bare=bool(args.bare))
    form_t0 = time.perf_counter()
    wl.setup()
    form_wall = time.perf_counter() - form_t0
    ready_at = time.monotonic()
    setup_s = ready_at - args.spawned_at
    # The same three pieces of work in every repeat: interpreter start-up,
    # imports (argparse and json included), cluster built and group formed.
    setup_laps = [_STARTED - args.spawned_at, built_at - _STARTED, ready_at - built_at]

    if tracer is not None:
        tracer.reset()
        if wl.loop_tap is not None:
            wl.loop_tap.reset()
    before = wl.counters()
    hops0 = wl.hops()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    wl.drive(args.share)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    hops = wl.hops() - hops0
    marks = [(wall0, cpu0), *wl.laps, (wall0 + wall, cpu0 + cpu)]
    after = wl.counters()
    delta = {key: after[key] - before[key] for key in after}

    bill = trace = None
    if tracer is not None:
        bill, shares = layer_bill(wl, tracer, wall, cpu, delta, hops)
        trace = tracer.dump()  # now: quiesce and verify below still run traced
        trace.update(
            workload=args.workload, seed=args.seed, share=args.share,
            timed_wall_s=wall, timed_cpu_s=cpu,
            share_basis="wall" if wl.loop_tap is not None else "cpu",
            shares=shares,
        )
        bill["cluster.form_sim_s"] = wl.form_sim_s
        bill["cluster.form_wall_s"] = form_wall
        bill["cluster.import_wall_s"] = import_wall + (imports_at - _STARTED)

    wl.quiesce()
    broken = wl.verify()
    wl.teardown()

    ledger = wl.ledger
    if ledger.completed == 0:
        broken.append("no op was agreed-delivered")
    p50, p99 = ledger.percentiles_ms()
    agreed = max(1, ledger.completed)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "share": args.share,
        "broken": broken,
        "has_bare_twin": wl.has_bare_twin,
        "attempted": ledger.attempted,
        "failed": ledger.in_flight,
        "over_limit": ledger.late,
        "timed_wall_s": wall,
        "timed_cpu_s": cpu,
        # seconds between the cuts in the timed region (one slice on the real
        # clock), and the pieces of set-up: the parent folds them over repeats
        "wall_slices": [b[0] - a[0] for a, b in zip(marks, marks[1:])],
        "cpu_slices": [b[1] - a[1] for a, b in zip(marks, marks[1:])],
        "setup_slices": setup_laps,
        "hops": hops,
        "agreed": ledger.completed,
        "sim_s": wl.sim_s,
        "latency_samples": len(ledger.latencies),
        # public counters over the timed region: exact per seed on the simulator
        "counters": delta,
        "metrics": {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "token_hops_per_s": hops / wall,
            "agreed_per_s": ledger.completed / wall,
            "wall_s_per_sim_s": wall / wl.sim_s,
            "deliver_p50_ms": p50,
            "deliver_p99_ms": p99,
            "cpu_us_per_agreed": cpu / agreed * 1e6,
        },
    }
    if tracer is not None:
        out["per_layer"] = bill
        if args.trace_out:
            os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump(trace, fh)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--share", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--bare", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=_STARTED)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    sys.path[:0] = [root, os.path.join(root, "src")]
    sys.exit(main())
