"""Command-line interface: run scenarios and experiments without pytest.

Installed as ``raincore-repro`` (or ``python -m repro``).  Subcommands:

* ``info`` — package overview and experiment index;
* ``quickstart`` — form a group, multicast, crash and rejoin a member;
* ``trace`` — print a protocol event timeline for a short run;
* ``obs`` — probe-bus observability: JSONL export of the probed
  quickstart scenario, and file readers — summary, diagnostic-bundle
  rendering, span-timeline reconstruction, trace diff
  (docs/OBSERVABILITY.md, docs/MONITORING.md);
* ``scaling`` — the Figure 3 Rainwall throughput sweep;
* ``failover`` — the §3.2 cable-unplug experiment;
* ``merge`` — split-brain and TBM merge walk-through;
* ``hierarchy`` — the §5 two-plane scalability extension;
* ``top`` — raintap live view of a real multi-process cluster: per-node
  state, view id and token rate as redraw-free status lines, SIGKILL
  fault injection and breach postmortems, gating on clean formation and
  zero wall-clock contract alerts (docs/TELEMETRY.md);
* ``chaos`` — seeded chaos campaigns: generated fault schedules under the
  contract monitor, replayable traces, automatic shrinking of failures;
* ``lint`` — raincheck static analysis: determinism and protocol
  invariants checked before any test runs (docs/DETERMINISM.md);
* ``bench`` — the counted-work bill of one fixed ring (calls per layer,
  events, packets, hops, deliveries), gated exactly against a committed pin.

Everything runs in simulated time — each command finishes in seconds of
wall clock regardless of how much virtual time it covers — except ``top``,
which drives a real multi-process cluster and runs for the wall-clock
duration you ask for.
"""

from __future__ import annotations

import argparse
import math
import sys

__all__ = ["main", "build_parser"]


def _count(text: str) -> int:
    """argparse type for a row count: an int >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> int:
    """argparse type for a node, group or run count: an int >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raincore-repro",
        description=(
            "Reproduction of the Raincore Distributed Session Service "
            "(Fan & Bruck, IPPS 2001)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package overview and experiment index")

    p = sub.add_parser("quickstart", help="group formation, multicast, crash, rejoin")
    p.add_argument("--nodes", type=_positive, default=4)
    p.add_argument("--seed", type=int, default=2024)

    p = sub.add_parser("trace", help="print a protocol event timeline")
    p.add_argument("--nodes", type=_positive, default=3)
    p.add_argument("--duration", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--limit", type=_count, default=60)
    p.add_argument(
        "--quiet", action="store_true",
        help="suppress the rendered output; exit code only (CI use)",
    )
    p.add_argument(
        "--kinds",
        default="state,view,token,deliver,shutdown",
        help="comma-separated event kinds to show",
    )
    p.add_argument(
        "--swimlanes",
        action="store_true",
        help="render one column per node instead of a flat timeline",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the filtered events as a stable JSON array instead",
    )

    p = sub.add_parser(
        "obs",
        help=(
            "probe-bus observability: live summary, JSONL export, bundle "
            "render, trace diff"
        ),
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    q = obs_sub.add_parser(
        "summary",
        help="summarize a probe export, capture or bundle by node and kind",
    )
    q.add_argument(
        "file", metavar="FILE",
        help="probe export (.jsonl), raintap capture or bundle (.json)",
    )

    q = obs_sub.add_parser(
        "export",
        help="run the probed quickstart scenario and export JSONL streams",
    )
    q.add_argument("--nodes", type=_positive, default=4)
    q.add_argument("--seed", type=int, default=2024)
    q.add_argument("--duration", type=float, default=1.0)
    q.add_argument(
        "--no-crash", action="store_true",
        help="skip the crash/recover phase of the scenario",
    )
    q.add_argument(
        "--metrics", action="store_true",
        help="export the stream rollup instead of the probe event stream",
    )
    q.add_argument(
        "--out", metavar="FILE.jsonl",
        help="write the stream here (default: stdout)",
    )

    q = obs_sub.add_parser(
        "render",
        help="render a diagnostic bundle as timeline/swimlanes/causal chain",
    )
    q.add_argument("bundle", metavar="BUNDLE.json", help="bundle file to render")
    q.add_argument("--swimlanes", action="store_true")
    q.add_argument(
        "--kinds", default=None,
        help="comma-separated probe kinds to show (default: all)",
    )
    q.add_argument("--node", default=None, help="show only this node's events")
    q.add_argument("--limit", type=_count, default=60)
    q.add_argument(
        "--span", metavar="ORIGIN#N",
        help="render the causal chain of one multicast span instead",
    )

    q = obs_sub.add_parser(
        "timeline",
        help=(
            "reconstruct the span timeline (token laps, 911 episodes, "
            "merge windows, resync ladders) from a probe file"
        ),
    )
    q.add_argument(
        "events", metavar="EVENTS",
        help="probe export (.jsonl), raintap capture or bundle (.json) to "
        "reconstruct from",
    )
    q.add_argument("--limit", type=_count, default=40)
    q.add_argument(
        "--kind", default=None,
        help="show only spans of this kind (e.g. episode.911)",
    )
    q.add_argument(
        "--out", metavar="FILE.jsonl",
        help="write the span records as JSONL (repro obs diff compatible)",
    )
    q.add_argument(
        "--check", action="store_true",
        help="check the paper bounds over the spans; exit 1 on breach",
    )
    q.add_argument(
        "--detection-bound", type=float, default=None, metavar="S",
        help="911 detection-latency bound per episode (default 0.15)",
    )

    q = obs_sub.add_parser(
        "diff",
        help=(
            "localize the first divergence between two probe exports "
            "or diagnostic bundles"
        ),
    )
    q.add_argument("left", metavar="LEFT", help="probe export (.jsonl) or bundle (.json)")
    q.add_argument("right", metavar="RIGHT", help="probe export (.jsonl) or bundle (.json)")
    q.add_argument(
        "--context", type=int, default=3,
        help="events of context around the divergence point (default 3)",
    )
    for q2 in obs_sub.choices.values():
        q2.add_argument(
            "--quiet", action="store_true",
            help="suppress informational output; exit code only (CI use)",
        )

    p = sub.add_parser("scaling", help="Figure 3: Rainwall throughput sweep")
    p.add_argument("--nodes", type=_positive, nargs="+", default=[1, 2, 4])
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("failover", help="the 2-second cable-unplug experiment")
    p.add_argument("--seed", type=int, default=11)

    p = sub.add_parser("merge", help="split-brain and group merge walk-through")
    p.add_argument("--seed", type=int, default=5)

    p = sub.add_parser("hierarchy", help="two-plane hierarchical demo (§5)")
    p.add_argument("--groups", type=_positive, default=3)
    p.add_argument("--group-size", type=_positive, default=3)
    p.add_argument("--seed", type=int, default=4)

    p = sub.add_parser(
        "top",
        help="raintap: live terminal view of a real multi-process cluster",
    )
    p.add_argument("--procs", type=int, default=3, metavar="N")
    p.add_argument("--seconds", type=float, default=8.0)
    p.add_argument("--hop-interval", type=float, default=0.02)
    p.add_argument(
        "--every", type=float, default=1.0,
        help="seconds between status lines (redraw-free, CI-safe)",
    )
    p.add_argument(
        "--kill", metavar="NODE@T[,NODE@T]", default=None,
        help="SIGKILL NODE T wall seconds after start",
    )
    p.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve the Prometheus-style /metrics exposition on this port "
        "(0 = pick a free one; printed at start)",
    )
    p.add_argument("--capture", metavar="FILE.jsonl", default=None)
    p.add_argument("--postmortem", metavar="FILE.json", default=None)
    p.add_argument(
        "--expect-alerts", action="store_true",
        help="exit 0 only if at least one alert fired (fault-injection CI)",
    )

    p = sub.add_parser(
        "chaos",
        help="seeded chaos campaigns with replayable traces and shrinking",
    )
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--seconds", type=float, default=30.0, help="fault window (virtual s)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--campaign", type=_positive, default=1, metavar="N",
        help="run N schedules with seeds seed, seed+1, ...",
    )
    p.add_argument("--segments", type=int, default=2)
    p.add_argument(
        "--intensity", type=float, default=1.0, help="fault event rate multiplier"
    )
    p.add_argument(
        "--strict", action="store_true",
        help="flag every double-token sample instead of bounding the window",
    )
    p.add_argument(
        "--replay", metavar="TRACE.json",
        help="replay a recorded trace instead of generating schedules",
    )
    p.add_argument(
        "--partition", metavar="NODES:DURATION[:AT]",
        help="run one explicit long_partition schedule instead of "
        "generating: isolate the comma-separated NODES for DURATION "
        "virtual seconds starting at AT (default 2.0), e.g. "
        "'n00,n01:20:2'",
    )
    p.add_argument(
        "--artifacts", default="chaos-artifacts", metavar="DIR",
        help="directory for failing traces and their shrunk reproducers",
    )
    p.add_argument(
        "--no-shrink", action="store_true", help="skip shrinking failing schedules"
    )
    p.add_argument(
        "--print-trace", action="store_true",
        help="print the generated (or replayed) schedule's JSON trace",
    )
    p.add_argument(
        "--fail-on-alerts", action="store_true",
        help="exit nonzero if any contract-monitor alert fired (CI clean gate)",
    )

    p = sub.add_parser(
        "lint",
        help="raincheck: static determinism & protocol-invariant analysis",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(p)

    p = sub.add_parser(
        "spec",
        help="rainspec: protocol spec conformance, model checking, rendering",
    )
    from repro.spec.cli import add_spec_arguments

    add_spec_arguments(p)

    p = sub.add_parser(
        "bench", help="counted-work bill of the simulator and its exact gate"
    )
    p.add_argument(
        "--check", metavar="PIN.json",
        help="compare the bill exactly with a pinned one; exit 1 naming each "
        "field that moved, 2 when the pin was made on another Python minor "
        "version",
    )

    return parser


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_info(args) -> int:
    import repro

    print(f"raincore-repro {repro.__version__}")
    print(__doc__.split("\n\n")[0])
    print(
        "\nExperiments (pytest benchmarks/bench_<id>_*.py --benchmark-only -s):"
    )
    experiments = [
        ("e1", "CPU task-switching: L vs M*N vs 6*M*N (paper §4.1)"),
        ("e2", "network overhead: (N-1)^2 packets vs token piggybacking"),
        ("e3", "Figure 3: Rainwall throughput and scaling"),
        ("e4", "the 2-second fail-over claim (§3.2)"),
        ("e5", "multicast latency vs cluster size"),
        ("e6", "agreed vs safe ordering cost (§2.6)"),
        ("e7", "redundant-link resilience (§2.1)"),
        ("e8", "911 token regeneration (§2.3)"),
        ("e9", "hierarchical scalability extension (§5)"),
        ("e10", "failure-detection aggressiveness ablation (§2.2)"),
        ("e11", "token-rate dial ablation (§2.2)"),
        ("e12", "Fig. 3 scaling under heavy-tailed workloads"),
        ("e13", "split-brain merge convergence (§2.4)"),
    ]
    for eid, desc in experiments:
        print(f"  {eid:<4} {desc}")
    print("\nSee DESIGN.md and EXPERIMENTS.md for details.")
    return 0


def cmd_quickstart(args) -> int:
    from repro.obs.scenario import run_quickstart

    run = run_quickstart(nodes=args.nodes, seed=args.seed)
    cluster = run.cluster
    ids = cluster.node_ids
    first, victim = ids[0], ids[-1]
    views = [
        e.args[1]
        for e in run.events
        if e.kind == "view.change" and e.node == first
    ]
    formed = next(v for v in views if len(v) == len(ids))
    print(f"group formed: {'-'.join(formed)}")
    delivered = sum(1 for nid in ids if cluster.listener(nid).deliveries)
    print(f"multicast delivered at {delivered}/{len(ids)} nodes")
    after = views[views.index(formed):]
    crashed = next((v for v in after if victim not in v), None)
    if crashed is not None:
        print(f"{victim} crashed; membership now {crashed}")
        print(f"{victim} rejoined via 911: {cluster.node(first).members}")
    print(f"task switches/node: {cluster.stats.per_node('task_switches')}")
    return 0 if cluster.converged(set(ids)) else 1


def cmd_trace(args) -> int:
    from repro.cluster.harness import RaincoreCluster
    from repro.obs import (
        ProbeLog,
        events_to_json,
        render_swimlanes,
        render_timeline,
        trace_rows,
    )

    ids = [chr(ord("A") + i) for i in range(args.nodes)]
    cluster = RaincoreCluster(ids, seed=args.seed)
    log = ProbeLog(cluster.enable_probes())
    cluster.start_all()
    cluster.node(ids[0]).multicast(b"traced")
    cluster.run(args.duration)
    if args.quiet:
        return 0
    rows = trace_rows(log, set(args.kinds.split(",")))
    if args.json:
        print(events_to_json(rows))
    elif args.swimlanes:
        print(render_swimlanes(rows, ids, limit=args.limit))
    else:
        print(render_timeline(rows, limit=args.limit))
    return 0


def _cli_error(message: str) -> int:
    """Report a usage/load failure on stderr; exit code 2 (not a diff/run
    verdict, which use 0/1)."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_obs(args) -> int:
    quiet = getattr(args, "quiet", False)
    if args.obs_command == "render":
        from repro.obs import bundle_events, load_bundle, render_bundle, render_chain

        try:
            bundle = load_bundle(args.bundle)
        except ValueError as exc:
            return _cli_error(str(exc))
        if args.span:
            origin, _, msg_no = args.span.partition("#")
            if not msg_no.isdigit():
                return _cli_error(
                    f"--span takes ORIGIN#N (a span id like n01#2), got {args.span!r}"
                )
            text = render_chain(bundle_events(bundle), origin, int(msg_no))
            if not quiet:
                print(text)
            return 0
        kinds = set(args.kinds.split(",")) if args.kinds else None
        text = render_bundle(
            bundle,
            swimlanes=args.swimlanes,
            kinds=kinds,
            node=args.node,
            limit=args.limit,
        )
        if not quiet:
            print(text)
        return 0

    if args.obs_command == "timeline":
        import json as _json

        from repro.obs import event_from_record, load_events, reconstruct_spans

        try:
            records = load_events(args.events)
        except ValueError as exc:
            return _cli_error(str(exc))
        timeline = reconstruct_spans(event_from_record(r) for r in records)
        if args.out:
            text = "\n".join(
                _json.dumps(r, sort_keys=True, separators=(",", ":"))
                for r in timeline.to_records()
            )
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                return _cli_error(f"cannot write {args.out}: {exc}")
            if not quiet:
                print(f"{len(timeline.spans)} span records written to {args.out}")
        if not quiet:
            print(timeline.render(limit=args.limit, kind=args.kind))
        if args.check:
            bounds = (
                {"episode.911.detect": args.detection_bound}
                if args.detection_bound is not None
                else None
            )
            breaches = timeline.check(bounds)
            for breach in breaches:
                print(f"BREACH {breach}")
            if not quiet:
                print(
                    f"bounds check: {len(breaches)} breach(es) over "
                    f"{len(timeline.of_kind('episode.911'))} 911 episode(s)"
                )
            return 1 if breaches else 0
        return 0

    if args.obs_command == "diff":
        from repro.obs import first_divergence, load_events, render_divergence

        try:
            left = load_events(args.left)
            right = load_events(args.right)
        except ValueError as exc:
            return _cli_error(str(exc))
        divergence = first_divergence(left, right)
        report = render_divergence(
            left,
            right,
            divergence,
            context=args.context,
            left_label=args.left,
            right_label=args.right,
        )
        if not quiet:
            print(report)
        elif divergence is not None:
            print(divergence.describe())
        return 0 if divergence is None else 1

    if args.obs_command == "summary":
        from repro.obs import load_bundle, load_events, render_alerts

        try:
            bundle = load_bundle(args.file)
        except ValueError:
            bundle = None
        if bundle is not None:
            if quiet:
                return 0
            print(
                f"bundle {args.file}: {bundle['schema']}  "
                f"reason={bundle['reason']}  at={bundle['at']:.3f}s"
            )
            if bundle.get("detail"):
                print(f"  detail: {bundle['detail']}")
            print(f"  nodes: {', '.join(bundle['nodes'])}")
            records = [
                {"kind": e["kind"], "node": e["node"]}
                for e in bundle["events"]
            ]
        else:
            try:
                records = load_events(args.file)
            except ValueError as exc:
                return _cli_error(str(exc))
            if quiet:
                return 0
            ats = [float(r["at"]) for r in records]
            print(
                f"capture {args.file}: {len(records)} events over "
                f"{max(ats) - min(ats):.3f}s"
            )
        by_kind: dict[str, int] = {}
        by_node: dict[str, int] = {}
        for r in records:
            by_kind[r["kind"]] = by_kind.get(r["kind"], 0) + 1
            by_node[r["node"]] = by_node.get(r["node"], 0) + 1
        print(
            "by node: " + "  ".join(f"{n}={c}" for n, c in sorted(by_node.items()))
        )
        print("by kind:")
        for kind, count in sorted(by_kind.items(), key=lambda kv: (-kv[1], kv[0])):
            print(f"  {kind:<20} {count}")
        if bundle is not None and bundle.get("alerts"):
            print(render_alerts(bundle["alerts"]))
        return 0

    # export
    from repro.obs import events_to_jsonl, rollup_json
    from repro.obs.scenario import run_quickstart

    run = run_quickstart(
        nodes=args.nodes,
        seed=args.seed,
        duration=args.duration,
        crash=not args.no_crash,
    )
    text = (
        rollup_json(run.agg.to_dict())
        if args.metrics
        else events_to_jsonl(run.events)
    )
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _cli_error(f"cannot write {args.out}: {exc}")
        if not quiet:
            print(
                f"{'metrics' if args.metrics else 'events'} "
                f"written to {args.out}"
            )
    else:
        print(text)
    return 0


def cmd_scaling(args) -> int:
    from repro.apps.rainwall import RainwallCluster, RainwallConfig

    print(f"{'nodes':>5} | {'Mbit/s':>8} | {'scaling':>7} | {'max CPU %':>9}")
    base = None
    for n in args.nodes:
        cfg = RainwallConfig(
            vips=[f"10.1.0.{i}" for i in range(1, n + 1)], arrival_rate=500.0
        )
        rw = RainwallCluster([f"g{i}" for i in range(n)], seed=args.seed, config=cfg)
        rw.start()
        rw.run(6.0)
        tp = rw.throughput_mbps(since=rw.loop.now - 4.0)
        cpu = max(rw.rainwall_cpu_percent(6.0).values())
        base = base if base is not None else tp
        print(f"{n:>5} | {tp:>8.1f} | {tp / base:>6.2f}x | {cpu:>8.2f}%")
    print("paper: 95 / 187 / 357 Mbit/s (1.97x, 3.76x), CPU < 1%")
    return 0


def cmd_failover(args) -> int:
    from repro.apps.rainwall import RainwallCluster, RainwallConfig

    rw = RainwallCluster(
        ["g0", "g1"], seed=args.seed, config=RainwallConfig(arrival_rate=300.0)
    )
    rw.start()
    rw.run(3.0)
    print(f"steady state: {rw.throughput_mbps(since=1.0):.1f} Mbit/s")
    rw.unplug_gateway("g1")
    rw.run(6.0)
    stalls = [f.total_stall for f in rw.engine.flows.values()]
    lost = sum(
        1 for f in rw.engine.flows.values() if not f.done and f.gateway is None
    )
    print(f"g1 unplugged: {rw.raincore.node('g1').shutdown_reason}")
    print(f"worst connection hiccup: {max(stalls):.3f}s (paper budget: 2s)")
    print(f"connections lost: {lost}")
    print(f"resumed at {rw.throughput_mbps(since=rw.loop.now - 2.0):.1f} Mbit/s")
    return 0 if max(stalls) < 2.0 and lost == 0 else 1


def cmd_merge(args) -> int:
    from repro.cluster.harness import RaincoreCluster

    cluster = RaincoreCluster(list("ABCDEF"), seed=args.seed)
    cluster.start_all()
    print(f"formed: {cluster.node('A').members}")
    cluster.faults.partition(["A", "B"], ["C", "D"], ["E", "F"])
    cluster.run(3.0)
    views = {v for v in cluster.membership_views().values()}
    print(f"split-brain: {len(views)} independent groups: {sorted(views)}")
    cluster.faults.heal_partition()
    ok = cluster.run_until_converged(20.0, expected=set("ABCDEF"))
    print(f"healed and merged: {cluster.node('A').members}")
    return 0 if ok else 1


def _parse_kill_spec(spec: str | None) -> dict[str, float]:
    """Parse ``--kill NODE@T[,NODE@T]`` into a node → seconds map."""
    kills: dict[str, float] = {}
    if not spec:
        return kills
    for part in spec.split(","):
        node, sep, at = part.strip().partition("@")
        if not sep or not node:
            raise ValueError(f"--kill takes NODE@T (e.g. n02@2.0), got {part!r}")
        try:
            kills[node] = float(at)
        except ValueError:
            raise ValueError(f"--kill {part!r}: {at!r} is not a number") from None
    return kills


def cmd_top(args) -> int:
    import asyncio

    from repro.runtime.collector import LiveCluster

    try:
        cluster = LiveCluster(
            args.procs,
            seconds=args.seconds,
            hop_interval=args.hop_interval,
            kill_at=_parse_kill_spec(args.kill),
            capture_path=args.capture,
            postmortem_path=args.postmortem,
            metrics_port=args.metrics_port,
            report_every=args.every,
            on_line=print,
        )
    except ValueError as exc:
        return _cli_error(str(exc))
    result = asyncio.run(cluster.run())
    print(
        f"live cluster: {args.procs} procs, {args.seconds:g}s, "
        f"formed={result.formed}, events={result.events_released}, "
        f"alerts={len(result.alerts)}, killed={result.killed or 'none'}"
    )
    for alert in result.alerts:
        print("  " + alert.describe())
    if result.capture_path:
        print(f"capture: {result.capture_path}")
    if result.postmortem_path:
        print(f"postmortem bundle: {result.postmortem_path}")
    if args.expect_alerts:
        ok = bool(result.alerts) and result.postmortem_path is not None
        print(f"expected alerts: {'fired' if ok else 'MISSING'}")
        return 0 if ok else 1
    return 0 if result.clean else 1


def cmd_chaos(args) -> int:
    from repro.chaos import (
        ChaosEngine,
        ChaosParams,
        FaultOp,
        Schedule,
        run_campaign,
        shrink_schedule,
    )

    if args.replay:
        try:
            with open(args.replay, encoding="utf-8") as fh:
                schedule = Schedule.from_json(fh.read())
        except OSError as exc:
            return _cli_error(f"cannot read trace {args.replay}: {exc}")
        except ValueError as exc:
            return _cli_error(f"{args.replay} is not a chaos trace: {exc}")
        params = schedule.params
        if args.print_trace:
            print(schedule.to_json(), end="")
        print(
            f"replaying {args.replay}: nodes={params.nodes} "
            f"seconds={params.seconds:g} seed={params.seed} "
            f"ops={len(schedule.ops)}"
        )
        result = ChaosEngine(schedule).run()
        if result.alerts:
            from repro.obs import render_alerts

            print(render_alerts(result.alerts))
        if result.ok:
            print(f"clean ({result.stats['deliveries']} deliveries)")
            if args.fail_on_alerts and result.alerts:
                print("failing: contract alerts fired (--fail-on-alerts)")
                return 1
            return 0
        print(f"FAILED [{result.failure}] {result.detail}")
        if result.bundle is not None:
            import os

            from repro.obs import dump_bundle

            path = dump_bundle(
                result.bundle,
                os.path.join(
                    args.artifacts, f"replay-seed{params.seed}.bundle.json"
                ),
            )
            print(f"diagnostic bundle written to {path}")
            print(f"  inspect with: raincore-repro obs render {path}")
        if not args.no_shrink and len(schedule.ops) > 1:
            print("shrinking ...")
            minimal, tests = shrink_schedule(
                schedule, lambda s: not ChaosEngine(s).run().ok
            )
            print(
                f"shrunk {len(schedule.ops)} -> {len(minimal.ops)} ops "
                f"in {tests} engine runs:"
            )
            for op in minimal.ops:
                print(f"  t={op.at:<10g} {op.kind} {list(op.args)}")
        return 1

    try:
        params = ChaosParams(
            nodes=args.nodes,
            seconds=args.seconds,
            seed=args.seed,
            segments=args.segments,
            intensity=args.intensity,
            strict=args.strict,
        )
    except ValueError as exc:
        return _cli_error(str(exc))

    if args.partition:
        try:
            spec, _, rest = args.partition.partition(":")
            isolated = tuple(n for n in spec.split(",") if n)
            duration_s, _, at_s = rest.partition(":")
            duration = float(duration_s)
            at = float(at_s) if at_s else 2.0
            finite = 0.0 < duration < math.inf and 0.0 <= at < math.inf
            if not isolated or not finite:
                raise ValueError(
                    "empty node list, or a time out of range or not finite"
                )
        except ValueError as exc:
            return _cli_error(
                f"bad --partition spec {args.partition!r} "
                f"(want NODES:DURATION[:AT]): {exc}"
            )
        schedule = Schedule(
            params=params,
            ops=[FaultOp(at=at, kind="long_partition", args=(isolated, duration))],
        )
        if args.print_trace:
            print(schedule.to_json(), end="")
        print(
            f"long partition: isolating {','.join(isolated)} for "
            f"{duration:g}s at t={at:g}s (window {args.seconds:g}s)"
        )
        result = ChaosEngine(schedule).run()
        if result.alerts:
            from repro.obs import render_alerts

            print(render_alerts(result.alerts))
        if result.ok:
            print(f"clean ({result.stats['deliveries']} deliveries)")
            if args.fail_on_alerts and result.alerts:
                print("failing: contract alerts fired (--fail-on-alerts)")
                return 1
            return 0
        print(f"FAILED [{result.failure}] {result.detail}")
        return 1

    if args.print_trace:
        print(Schedule.generate(params).to_json(), end="")
    campaign = run_campaign(
        args.nodes,
        args.seconds,
        args.seed,
        campaign=args.campaign,
        segments=args.segments,
        intensity=args.intensity,
        strict=args.strict,
        artifacts_dir=args.artifacts,
        shrink=not args.no_shrink,
        log=print,
    )
    campaign.summary_table().print()
    if campaign.artifacts:
        print("artifacts:")
        for path in campaign.artifacts:
            print(f"  {path}")
    alerted = sum(len(r.alerts) for r in campaign.results)
    if alerted:
        print(f"contract alerts across campaign: {alerted}")
        if args.fail_on_alerts:
            print("failing: contract alerts fired (--fail-on-alerts)")
            return 1
    return 0 if campaign.ok else 1


def cmd_hierarchy(args) -> int:
    from repro.hierarchy import HierarchicalCluster

    groups = [
        [f"{chr(ord('a') + g)}{i}" for i in range(args.group_size)]
        for g in range(args.groups)
    ]
    h = HierarchicalCluster(groups, seed=args.seed)
    h.start()
    print(f"{args.groups} sub-rings of {args.group_size}; leaders: {h.current_leaders()}")
    print(f"top ring: {h.top_view()}")
    sender = groups[0][-1]
    h.members[sender].multicast_global("global hello")
    h.run(4.0)
    reach = sum(1 for nid in h.machine_ids if h.global_log[nid])
    print(f"global multicast from {sender} reached {reach}/{len(h.machine_ids)} machines")
    victim = h.current_leaders()[0]
    print(f"crashing leader {victim} ...")
    h.crash_machine(victim)
    ok = h.run_until_formed(20.0)
    print(f"re-formed: leaders {h.current_leaders()}, top ring {h.top_view()}")
    return 0 if ok and reach == len(h.machine_ids) else 1


def cmd_lint(args) -> int:
    from repro.lint.cli import cmd_lint as run_lint

    return run_lint(args)


def cmd_spec(args) -> int:
    from repro.spec.cli import cmd_spec as run_spec

    return run_spec(args)


def cmd_bench(args) -> int:
    import json

    from repro import perf

    pin = None
    if args.check:
        try:
            with open(args.check, encoding="utf-8") as fh:
                pin = json.load(fh)
        except OSError as exc:
            return _cli_error(f"cannot read {args.check}: {exc}")
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            return _cli_error(f"{args.check} is not JSON: {exc}")
        if not isinstance(pin, dict):
            return _cli_error(f"{args.check} is not a bill: not a JSON object")
    bill = perf.count_ring()
    print(json.dumps(bill, indent=2, sort_keys=True))
    if pin is None:
        return 0
    if pin.get("python") != bill["python"]:
        print(
            f"error: {args.check} was pinned on Python {pin.get('python')}, "
            f"this is Python {bill['python']}: counts differ between minor "
            "versions, so run the check on the pin's version",
            file=sys.stderr,
        )
        return 2
    moved = perf.diff(bill, pin)
    if moved:
        print(f"BILL MOVED vs {args.check}:", file=sys.stderr)
        for line in moved:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"bill matches {args.check}", file=sys.stderr)
    return 0


_COMMANDS = {
    "info": cmd_info,
    "quickstart": cmd_quickstart,
    "trace": cmd_trace,
    "obs": cmd_obs,
    "scaling": cmd_scaling,
    "failover": cmd_failover,
    "merge": cmd_merge,
    "hierarchy": cmd_hierarchy,
    "top": cmd_top,
    "chaos": cmd_chaos,
    "lint": cmd_lint,
    "spec": cmd_spec,
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
