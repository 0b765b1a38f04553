"""Parent process of the ledger: spawns the child interpreters one at a time,
turns their reports into the metrics named in ``BENCHMARK.json`` and prints
them (README.md has the method and the reading guide).

Run discipline: every (workload, repeat) is a fresh interpreter, one at a
time, single thread.  A run of ``--seconds S`` with ``--repeats R`` gives each
repeat ``S / R`` share-seconds of fixed work.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from benchmarks.ledger.accounting import check_same_work

__all__ = ["main"]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")

#: One invocation must finish within the contract's 180 s.
RUN_BUDGET_S = 170.0
#: The traced child does this share of a run's work.
TRACED_FRACTION = 5

#: Virtual-time and count metrics that repeat bit for bit per seed on the
#: ``sim_*`` workloads; ``--selfcheck`` requires them identical between sets.
EXACT_END_TO_END = ("deliver_p50_ms", "deliver_p99_ms")
EXACT_PER_LAYER = (
    "net.events", "net.packets_sent", "net.bytes_sent", "net.packets_dropped",
    "transport.sends", "transport.acks", "transport.retransmits",
    "transport.failures", "transport.sheds",
    "core.token_visits", "core.view_changes", "core.regen_rounds", "core.merges",
    "core.false_alarms", "core.crash_outage_sim_ms", "core.merge_heal_sim_ms",
    "data.writes", "data.log_appends", "data.segments_sealed", "data.acks_sent",
    "data.segments_pruned", "data.retained_bytes_peak", "data.resync_delta",
    "data.resync_snapshot", "data.quarantines",
    "apps.flows_admitted", "apps.flows_completed", "apps.flows_open_peak",
    "obs.probe_events", "obs.alerts",
)
#: Metrics made of seconds, wall or CPU, spent on work every repeat of a run
#: does alike: ``fold`` takes them from the least-disturbed reading of each
#: slice of that work.  Every other metric is the repeats' median.
TIME_ON_FIXED_WORK = (
    "setup_s", "token_hops_per_s", "agreed_per_s", "wall_s_per_sim_s", "cpu_us_per_agreed",
)
#: Workloads of the ledger that BENCHMARK.json leaves out: the contract's cap
#: on the time all its runs may take pays for five workloads at this run
#: length, not seven (README.md, "Where this departs from ISSUE 11").
UNGATED = ("sim_rainwall", "sim_churn")


class BrokenRun(Exception):
    """A child failed a correctness check, crashed or ran out of time."""


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def spawn(workload: str, seed: int, share: float, deadline: float, *,
          trace: bool = False, bare: bool = False) -> dict:
    """Run one child to completion and return its report."""
    cmd = [
        sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
        "--share", repr(share), "--trace", str(int(trace)), "--bare", str(int(bare)),
    ]
    if trace:
        cmd += ["--trace-out", os.path.join(OUT_DIR, f"trace_{workload}.json")]
    left = deadline - time.monotonic()
    if left <= 1.0:
        raise BrokenRun(f"{workload}: out of time before repeat could start")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=left)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BrokenRun(f"{workload}: child exceeded the run budget") from None
    if proc.returncode != 0:
        raise BrokenRun(f"{workload}: child exited {proc.returncode}\n{stderr.strip()}")
    report = json.loads(stdout.strip().splitlines()[-1])
    if report["broken"]:
        raise BrokenRun(f"{workload} (seed {seed}): " + "; ".join(report["broken"]))
    return report


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def undisturbed(reports: list[dict], slices: str) -> float:
    """Seconds the run's work takes when the machine leaves it alone.

    Every repeat cut its timed region (and its set-up) at the same points of
    the same work, so slice ``i`` is one piece of work timed once per repeat.
    What differs between those readings is the machine's doing, which only
    ever adds: the least of them is the reading it disturbed least, and the
    work as a whole costs the sum of those.  (On the real clock the region
    is one slice, so this is the best whole repeat.)
    """
    return sum(min(column) for column in zip(*(r[slices] for r in reports)))


def fold(reports: list[dict]) -> dict[str, float]:
    """The run's value of every end-to-end metric, from its repeats."""
    wall = undisturbed(reports, "wall_slices")
    cpu = undisturbed(reports, "cpu_slices")
    # Equal in every repeat on the simulated clock; on the real one the
    # ring's own timers decide how many hops fit the schedule.
    hops, agreed, sim_s = (
        statistics.median(r[key] for r in reports) for key in ("hops", "agreed", "sim_s")
    )
    metrics = {
        name: statistics.median(r["metrics"][name] for r in reports)
        for name in reports[0]["metrics"]
    }
    metrics.update(
        setup_s=undisturbed(reports, "setup_slices"),
        token_hops_per_s=hops / wall,
        agreed_per_s=agreed / wall,
        wall_s_per_sim_s=wall / sim_s,
        cpu_us_per_agreed=cpu / max(1, agreed) * 1e6,
    )
    return metrics


def run_end_to_end(workload: str, seed: int, seconds: float, repeats: int, deadline: float) -> dict:
    """One run: ``repeats`` children of the same seed, one after another.

    On the simulated clock the repeats must have executed the same event
    sequence, which is checked.  An op that any repeat left undelivered is a
    failed op.  README.md, "What a run reports", has the runs behind
    :func:`fold`.
    """
    share = seconds / repeats
    reports = [spawn(workload, seed, share, deadline) for _ in range(repeats)]
    if workload.startswith("sim_"):
        broken = check_same_work(reports, EXACT_END_TO_END)
        if broken:
            raise BrokenRun(f"{workload} (seed {seed}): " + "; ".join(broken))
    return {
        "metrics": fold(reports),
        "repeats": reports,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "over_limit": sum(r["over_limit"] for r in reports),
    }


def run_traced(workload: str, seed: int, seconds: float, deadline: float,
               microdrivers: dict[str, float]) -> dict:
    """The per-layer bill: one traced child at a fifth of the run's size, its
    untraced twin for the tracing overhead, and the (workload-independent)
    microdriver figures."""
    share = seconds / TRACED_FRACTION
    traced = spawn(workload, seed, share, deadline, trace=True)
    twin = spawn(workload, seed, share, deadline)
    bill = dict(traced["per_layer"])
    # CPU seconds, not wall: the real-time workload's wall is pinned by its
    # schedule whatever tracing costs (on the simulator the two coincide).
    bill["trace_overhead_ratio"] = traced["timed_cpu_s"] / twin["timed_cpu_s"]
    bill["obs.stacked_overhead_ratio"] = 0.0
    if traced["has_bare_twin"]:
        bare = spawn(workload, seed, share, deadline, bare=True)
        bill["obs.stacked_overhead_ratio"] = twin["timed_cpu_s"] / bare["timed_cpu_s"]
    bill.update(microdrivers)
    return {
        "metrics": bill,
        "attempted": traced["attempted"] + twin["attempted"],
        "failed": traced["failed"] + twin["failed"],
    }


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
def print_end_to_end(workload: str, result: dict, specs: list[dict], note: str) -> None:
    for spec in specs:
        name = spec["name"]
        per_repeat = [r["metrics"][name] for r in result["repeats"]]
        q1, q3 = quartiles(per_repeat)
        print(
            f"{workload:18s} {name:22s} {result['metrics'][name]:14.6g} {spec['unit']:6s}"
            f" repeats: median {statistics.median(per_repeat):.6g}"
            f" q1 {q1:.6g} q3 {q3:.6g} n={len(per_repeat)}{note}"
        )
    print(
        f"{workload:18s} {'ops_attempted':22s} {result['attempted']:14d} count\n"
        f"{workload:18s} {'ops_failed':22s} {result['failed']:14d} count\n"
        f"{workload:18s} {'ops_over_limit':22s} {result['over_limit']:14d} count"
    )


def print_per_layer(workload: str, result: dict, specs: list[dict], note: str) -> None:
    for spec in specs:
        value = result["metrics"][spec["name"]]
        print(f"{workload:18s} {spec['name']:34s} {value:14.6g} {spec['unit']}{note}")


def final_line(result: dict, specs: list[dict]) -> str:
    return json.dumps({
        "correct": True,
        "attempted": max(1, int(result["attempted"])),
        "failed": int(result["failed"]),
        "metrics": {
            s["name"]: {"value": result["metrics"][s["name"]], "unit": s["unit"]}
            for s in specs
        },
    })


# ----------------------------------------------------------------------
# self-check: two sets of the same code must agree
# ----------------------------------------------------------------------
def worse_by(spec: dict, first: float, second: float) -> float:
    """Share of ``first`` by which ``second`` is worse (negative = better)."""
    if spec["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def resolution(run: dict, name: str) -> float:
    """How finely one run resolves a metric, as a share of its value: for a
    median of the repeats, their q1-q3; for time on fixed work, the distance
    between the values the odd and the even repeats give on their own."""
    reports = run["repeats"]
    if name in TIME_ON_FIXED_WORK and len(reports) >= 4:
        odd, even = fold(reports[0::2])[name], fold(reports[1::2])[name]
        return abs(odd - even) / run["metrics"][name]
    values = [r["metrics"][name] for r in reports]
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def selfcheck(contract: dict, seed: int, seconds: float, repeats: int) -> int:
    from benchmarks.ledger import micro
    from benchmarks.ledger.accounting import negative_selftest

    problems = 0
    print("negative self-test (every check must bite):")
    for check, bit in negative_selftest(seed):
        print(f"  {'ok  ' if bit else 'FAIL'} {check}")
        problems += not bit
    names = [w["name"] for w in contract["workloads"]] + list(UNGATED)
    sets = []
    for label in ("first", "second"):
        print(f"running the {label} set ...", flush=True)
        runs = {}
        microdrivers = micro.run_all()
        for workload in names:
            deadline = time.monotonic() + RUN_BUDGET_S
            runs[workload] = (
                run_end_to_end(workload, seed, seconds, repeats, deadline),
                run_traced(workload, seed, seconds, deadline + RUN_BUDGET_S, microdrivers),
            )
        sets.append(runs)
    for workload in names:
        (e2e_a, layer_a), (e2e_b, layer_b) = sets[0][workload], sets[1][workload]
        sim = workload.startswith("sim_")
        for spec in contract["end_to_end"]:
            name = spec["name"]
            a, b = e2e_a["metrics"][name], e2e_b["metrics"][name]
            verdict = "agree"
            if sim and name in EXACT_END_TO_END:
                if a != b:
                    verdict = "NOT IDENTICAL"
            else:
                spread = max(resolution(run, name) for run in (e2e_a, e2e_b))
                if max(worse_by(spec, a, b), worse_by(spec, b, a)) > spec["bound"]:
                    verdict = "DISAGREE"
                elif spread > spec["bound"]:
                    verdict = "unresolved (a run resolves it to %.1f%% > bound)" % (100 * spread)
            problems += verdict != "agree"
            print(f"{workload:18s} {name:22s} {a:14.6g} {b:14.6g} {verdict}")
        if sim:
            for name in EXACT_PER_LAYER:
                a, b = layer_a["metrics"][name], layer_b["metrics"][name]
                if a != b:
                    problems += 1
                    print(f"{workload:18s} {name:22s} {a:14.6g} {b:14.6g} NOT IDENTICAL")
    print("selfcheck:", "ok" if not problems else f"{problems} problem(s)")
    return 1 if problems else 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]] + list(UNGATED)
    parser = argparse.ArgumentParser(
        prog="benchmarks.ledger",
        description="The Raincore performance ledger (benchmarks/ledger/README.md).",
    )
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="share-seconds of fixed work per run, split over the repeats")
    parser.add_argument("--repeats", type=int, default=24,
                        help="fresh child interpreters per end-to-end run")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=["0", "1", "both"],
                        help="0: end-to-end metrics; 1: the per-layer bill from a "
                             "traced run; bare flag: both")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 size, one repeat, both kinds of metrics; not comparable")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two full sets back to back and compare them")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.seconds <= 0:
        parser.error("--repeats and --seconds must be positive")

    note = ""
    if args.smoke:
        from benchmarks.ledger.accounting import negative_selftest

        args.seconds, args.repeats, args.trace = contract["run_seconds"] / 20.0, 1, "both"
        note = "  (smoke: not comparable)"
        failed = [check for check, bit in negative_selftest(args.seed) if not bit]
        if failed:
            print("negative self-test did not bite:", ", ".join(failed))
            return 1

    last = ""
    microdrivers = {}
    if args.trace != "0" and not args.selfcheck:
        from benchmarks.ledger import micro

        microdrivers = micro.run_all()
    try:
        if args.selfcheck:
            return selfcheck(contract, args.seed, args.seconds, args.repeats)
        for workload in [args.workload] if args.workload else names:
            deadline = time.monotonic() + RUN_BUDGET_S
            if args.trace in ("0", "both"):
                result = run_end_to_end(workload, args.seed, args.seconds, args.repeats, deadline)
                print_end_to_end(workload, result, contract["end_to_end"], note)
                last = final_line(result, contract["end_to_end"])
            if args.trace in ("1", "both"):
                result = run_traced(workload, args.seed, args.seconds, deadline, microdrivers)
                print_per_layer(workload, result, contract["per_layer"], note)
                last = final_line(result, contract["per_layer"])
    except BrokenRun as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    if args.workload:
        print(last)
    return 0
