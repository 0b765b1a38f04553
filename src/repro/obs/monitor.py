"""Contract monitor: a live SLO rules engine over the probe bus.

The paper's pitch is a *quantitative overhead contract*: with the token at
L roundtrips/s each node pays L group-communication wakeups per second
(§4.1), a bounded bandwidth share, and failure detection inside a fixed
window (§2.2/§3.2).  :mod:`repro.obs` made every layer emit probes; this
module *watches* them while a run executes and turns a degraded cluster —
token-rate collapse, wakeup inflation, detection-bound overruns, ring
stalls — into structured :class:`Alert` records the moment the bound
breaks, instead of a post-mortem over exported streams.

Design rules:

* **Deterministic and sim-time driven.**  The monitor ticks on the event
  loop (``call_later``), windows are trailing *virtual*-time intervals,
  and rule evaluation is a pure function of the events in the window —
  two runs with one seed fire byte-identical alerts.
* **Injectable clock.**  The monitor itself never names a time source: it
  reads ``now``/``call_later`` from whatever clock it was handed — the
  simulator's virtual loop by default (``bus.loop``), or a wall-clock
  adapter when watching a real multi-process cluster
  (:mod:`repro.runtime.collector`, docs/TELEMETRY.md).  In wall-clock
  mode events arrive via :meth:`ContractMonitor.ingest` after the
  collector's watermark merge, so windows still see a time-ordered feed.
* **Declarative rules.**  A :class:`RuleSpec` is data: window, severity,
  for-duration, JSON-safe params, plus a registered pure check function.
  The paper-contract rule set is built by :func:`paper_contract_rules`
  from a :class:`~repro.core.config.RaincoreConfig`, so the bounds being
  enforced are the ones the cluster was actually provisioned with.
* **Pure rule functions** (raincheck RC403): a check decorated with
  :func:`contract_rule` may consult only its :class:`RuleWindow` — no
  wall clock, no ambient state, no mutation.  Derived facts a rule needs
  beyond raw events (continuous uptime, current view size) are computed
  deterministically by the monitor and passed *in* the window.
* **Read-only.**  The monitor never emits probes and never touches
  protocol state; attaching it cannot change a run (the
  ``monitor_overhead_ratio`` benchmark gates its cost).

``repro watch`` renders the monitor's rolling status as a plain-text,
redraw-free feed (CI-safe); chaos bundles carry fired alerts in their
``alerts`` section (schema ``repro.obs.bundle/2``), so every failure
artifact says which contract broke first.  Full walkthroughs live in
docs/MONITORING.md.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Mapping

from repro.obs.probe import ProbeBus, ProbeEvent
from repro.spec.protocol import LIFECYCLE as _SPEC_LIFECYCLE_PAIRS

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import RaincoreConfig

__all__ = [
    "Alert",
    "Breach",
    "RuleSpec",
    "RuleWindow",
    "ContractMonitor",
    "CONTRACT_RULES",
    "contract_rule",
    "paper_contract_rules",
    "realtime_contract_rules",
    "render_alerts",
]

#: Node states (``node.state`` probes) in which a node is a ring member
#: owed token visits.  STARVING counts: it is the distress state a stalled
#: ring produces, and excluding it would blind the monitor to exactly the
#: collapse it exists to catch.  JOINING/DOWN nodes are not yet owed
#: anything, so their windows reset.
_UP_STATES = frozenset({"hungry", "eating", "starving"})


_emission_order = attrgetter("n")


class _Series:
    """The retained events of one (kind, node), sorted by time.

    ``ats`` mirrors ``events`` one timestamp per event, so windowing and
    pruning bisect over plain floats and never touch an event nobody
    asked for.
    """

    __slots__ = ("ats", "events")

    def __init__(self) -> None:
        self.ats: list[float] = []
        self.events: list[ProbeEvent] = []

    def since(self, start: float) -> list[ProbeEvent]:
        """Events stamped at or after ``start``, oldest first."""
        return self.events[bisect_left(self.ats, start):]


@dataclass(frozen=True)
class RuleWindow:
    """Everything a rule function may look at — its *entire* world.

    :meth:`kinds` is the only view of the probe stream: the trailing
    window's events of one kind, already filtered to the rule's scope
    (one node's events for node-scope rules, every node's for cluster
    scope).  ``uptime`` and ``view_size`` are derived deterministically
    from the probe stream by the monitor so rules stay pure functions of
    their inputs.
    """

    start: float  #: window start (sim time)
    end: float  #: evaluation instant (sim time)
    node: str  #: node under evaluation, or ``"*"`` for cluster scope
    #: seconds the node has been continuously up (member states) at ``end``;
    #: for cluster scope, the longest such uptime over all nodes.
    uptime: float
    #: current membership-view size at ``end`` (from ``view.change``).
    view_size: int
    params: Mapping[str, float]
    #: the monitor's kind -> node -> series index; rules read it through
    #: :meth:`kinds`, which costs a bisect per series it actually returns.
    series: Mapping[str, Mapping[str, _Series]] = field(repr=False)

    def kinds(self, kind: str) -> list[ProbeEvent]:
        """The window's events of one probe kind, in emission order."""
        by_node = self.series.get(kind)
        if by_node is None:
            return []
        if self.node != "*":
            series = by_node.get(self.node)
            return [] if series is None else series.since(self.start)
        slices = [
            events for s in by_node.values() if (events := s.since(self.start))
        ]
        if len(slices) == 1:
            return slices[0]
        merged = [e for events in slices for e in events]
        merged.sort(key=_emission_order)
        return merged

    @property
    def span(self) -> float:
        return self.end - self.start


#: A rule check's verdict: ``None`` when healthy, else (value, bound,
#: detail) — the measured quantity, the bound it broke, and a short
#: human-readable explanation rendered into the Alert.
Breach = tuple[float, float, str]

#: name -> registered pure check function (populated by @contract_rule).
CONTRACT_RULES: dict[str, Callable[[RuleWindow], Breach | None]] = {}


def contract_rule(name: str):
    """Register a pure rule check under ``name`` (decorator).

    Functions registered here are statically held to the purity contract
    by raincheck RC403: no wall clock, no ambient state, no mutation —
    the :class:`RuleWindow` argument is the entire accessible world.
    """

    def deco(fn: Callable[[RuleWindow], Breach | None]):
        CONTRACT_RULES[name] = fn
        return fn

    return deco


@dataclass(frozen=True)
class RuleSpec:
    """One declarative SLO rule: which check, over what window, how strict.

    ``for_duration`` debounces: the check must report a breach at every
    tick for that long before an alert fires, so one slow hop does not
    page.  ``params`` are JSON-safe numbers baked into the spec (bounds,
    tolerances) — they ride along into the alert record so an artifact
    is self-describing.
    """

    name: str  #: registered check name (key into CONTRACT_RULES)
    summary: str
    window: float  #: trailing virtual seconds the check looks at
    severity: str = "critical"  #: "warning" | "critical"
    for_duration: float = 0.0  #: continuous-breach seconds before alerting
    scope: str = "node"  #: "node" | "cluster"
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in CONTRACT_RULES:
            raise ValueError(f"unknown contract rule {self.name!r}")
        if self.window <= 0.0:
            raise ValueError("window must be positive")
        if self.severity not in ("warning", "critical"):
            raise ValueError(f"severity must be warning|critical, not {self.severity!r}")
        if self.scope not in ("node", "cluster"):
            raise ValueError(f"scope must be node|cluster, not {self.scope!r}")


@dataclass(frozen=True)
class Alert:
    """One fired contract violation — the structured answer to "which
    bound broke, where, and when"."""

    rule: str
    severity: str
    node: str  #: node id, or ``"*"`` for cluster-scope rules
    at: float  #: sim time the alert fired (breach sustained for_duration)
    since: float  #: sim time the continuous breach began
    value: float  #: measured quantity at fire time
    bound: float  #: the bound it violated
    detail: str

    def record(self) -> dict:
        """JSON-safe, key-stable record (bundled into ``alerts``)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "node": self.node,
            "at": round(self.at, 9),
            "since": round(self.since, 9),
            "value": round(self.value, 9),
            "bound": round(self.bound, 9),
            "detail": self.detail,
        }

    def describe(self) -> str:
        return (
            f"[{self.severity}] {self.rule} node={self.node} "
            f"at={self.at:.3f}s (since {self.since:.3f}s): {self.detail}"
        )


def alert_from_record(record: dict) -> Alert:
    """Rebuild an :class:`Alert` from :meth:`Alert.record` output."""
    return Alert(
        rule=record["rule"],
        severity=record["severity"],
        node=record["node"],
        at=record["at"],
        since=record["since"],
        value=record["value"],
        bound=record["bound"],
        detail=record["detail"],
    )


# ----------------------------------------------------------------------
# the built-in paper-contract checks (pure functions of the window)
# ----------------------------------------------------------------------
@contract_rule("token-rate")
def check_token_rate(w: RuleWindow) -> Breach | None:
    """Token visit rate within tolerance of the configured L (§2.2/§4.1).

    With the ring at its current view size N and a hop interval h, each
    member should see ``token.accept`` about every N*h seconds — the
    roundtrip rate L = 1/(N*h).  A collapse (delay spikes, heavy loss,
    a wedged predecessor) shows up as observed visits/s far below L.
    """
    if w.uptime < w.span:  # joining/rebooting nodes get a full window first
        return None
    if w.kinds("view.change"):
        # Reconfiguration window: visits earned under the old view would
        # be judged against the new view's L.  Rates resume one full
        # window after the membership settles.
        return None
    hop = w.params["hop_interval"]
    tolerance = w.params["tolerance"]
    expected = 1.0 / (max(1, w.view_size) * hop)
    floor = expected * (1.0 - tolerance)
    observed = len(w.kinds("token.accept")) / w.span
    if observed < floor:
        return (
            observed,
            floor,
            f"token visits {observed:.1f}/s < {floor:.1f}/s "
            f"(L={expected:.1f}/s for view of {w.view_size}, "
            f"tolerance {tolerance:.0%})",
        )
    return None


@contract_rule("wakeup-budget")
def check_wakeup_budget(w: RuleWindow) -> Breach | None:
    """GC task wakeups per second stay within L·(1+ε) (paper §4.1).

    The paper's CPU argument: token-ring group communication costs each
    node L wakeups/s, against M·N for broadcast emulation and up to
    6·M·N for 2PC.  ``min_rate`` (default 0) arms the other direction —
    a floor, for asserting that :mod:`repro.baselines` adapters really
    do pay their higher wakeup bill.
    """
    if w.uptime < w.span:
        return None
    if w.kinds("view.change"):
        return None  # mixed-regime window (see check_token_rate)
    hop = w.params["hop_interval"]
    epsilon = w.params["epsilon"]
    slack = w.params["slack"]
    expected = 1.0 / (max(1, w.view_size) * hop)
    ceiling = expected * (1.0 + epsilon) + slack
    observed = len(w.kinds("core.wakeup")) / w.span
    if observed > ceiling:
        return (
            observed,
            ceiling,
            f"{observed:.1f} wakeups/s > {ceiling:.1f}/s "
            f"(L={expected:.1f}/s for view of {w.view_size}, ε={epsilon:g})",
        )
    floor = w.params.get("min_rate", 0.0)
    if floor > 0.0 and observed < floor:
        return (
            observed,
            floor,
            f"{observed:.1f} wakeups/s < configured floor {floor:.1f}/s",
        )
    return None


@contract_rule("fd-latency")
def check_fd_latency(w: RuleWindow) -> Breach | None:
    """Failure detection fires within the transport bound (§2.2, §3.2).

    Pairs each detector *verdict* — ``fd.fire`` (peer accused) or
    ``fd.false_alarm`` (ring had moved on) — with its ``fd.arm`` for the
    same (peer, seq) and demands arm→verdict latency within the
    configured detection bound (the paper's 0.15 s on a single route).
    An ack blackout stretches detection past the bound: data flows, acks
    do not, so the sender exhausts every retry before reaching a verdict.
    """
    bound = w.params["bound"]
    tolerance = w.params["tolerance"]
    limit = bound * (1.0 + tolerance)
    verdicts = w.kinds("fd.fire") + w.kinds("fd.false_alarm")
    if not verdicts:
        return None
    armed: dict[tuple[object, object], float] = {}
    worst: tuple[float, ProbeEvent] | None = None
    for e in sorted(w.kinds("fd.arm") + verdicts, key=_emission_order):
        if e.kind == "fd.arm":
            armed[(e.args[0], e.args[1])] = e.at
        else:
            at_armed = armed.pop((e.args[0], e.args[1]), None)
            if at_armed is None:
                continue
            latency = e.at - at_armed
            if worst is None or latency > worst[0]:
                worst = (latency, e)
    if worst is not None and worst[0] > limit:
        latency, e = worst
        return (
            latency,
            limit,
            f"failure-on-delivery verdict ({e.kind}) for peer {e.args[0]} "
            f"took {latency:.3f}s > {limit:.3f}s detection bound",
        )
    return None


@contract_rule("bandwidth-share")
def check_bandwidth_share(w: RuleWindow) -> Breach | None:
    """Per-node send bandwidth stays inside its provisioned share (§4.1).

    The token's wire size is flow-controlled to ``max_token_bytes``, and
    a member forwards it once per visit — so sent bytes/s stay within
    budget ≈ token_budget · visits/s plus a fixed allowance for acks,
    beacons and recovery chatter.
    """
    if w.uptime < w.span:
        return None
    budget = w.params["budget"]
    sent = 0.0
    for e in w.kinds("net.send"):
        sent += e.args[3]
    rate = sent / w.span
    if rate > budget:
        return (
            rate,
            budget,
            f"sending {rate / 1e3:.1f} kB/s > budgeted share {budget / 1e3:.1f} kB/s",
        )
    return None


@contract_rule("buffer-bound")
def check_buffer_bound(w: RuleWindow) -> Breach | None:
    """Every bounded buffer stays inside its budget (docs/RESYNC.md).

    The resync layer emits ``resync.buffer`` level samples (component,
    bytes, budget) whenever a bounded buffer changes.  The budget rides
    in the event itself, so one rule covers every component — replica op
    logs, transport retransmit buffers — without per-component config.
    Only the latest sample per component counts: a level that was high
    and has already been pruned back is not a breach.
    """
    latest: dict[object, ProbeEvent] = {}
    for e in w.kinds("resync.buffer"):
        latest[e.args[0]] = e
    worst: Breach | None = None
    for e in latest.values():
        component, level, budget = e.args[0], e.args[1], e.args[2]
        if not isinstance(level, (int, float)) or not isinstance(
            budget, (int, float)
        ):
            continue
        if budget <= 0:  # bound disabled for this component
            continue
        if level > budget and (worst is None or level > worst[0]):
            worst = (
                float(level),
                float(budget),
                f"buffer {component} holds {level} B > budget {budget} B",
            )
    return worst


#: Allowed ``node.state`` probe transitions, derived from the protocol
#: spec's lifecycle table (probe args carry lowercase ``NodeState.value``).
_SPEC_LIFECYCLE: frozenset[tuple[str, str]] = frozenset(
    (src.lower(), dst.lower()) for src, dst in _SPEC_LIFECYCLE_PAIRS
)


@contract_rule("state-transitions")
def check_state_transitions(w: RuleWindow) -> Breach | None:
    """Every observed lifecycle transition is allowed by the spec.

    The spec's lifecycle table (``repro.spec.protocol.LIFECYCLE``) is the
    same data ``repro spec check`` diffs against
    ``repro.core.states.VALID_TRANSITIONS``; this rule closes the loop at
    runtime, so a node driven through an undeclared transition (by a bug
    or a bypassed ``_transition``) raises an alert even though the static
    gates passed.
    """
    worst: Breach | None = None
    illegal = 0
    for e in w.kinds("node.state"):
        old, new = str(e.args[0]), str(e.args[1])
        if (old, new) not in _SPEC_LIFECYCLE:
            illegal += 1
            worst = (
                float(illegal),
                0.0,
                f"lifecycle transition {old}->{new} is not in the protocol "
                "spec",
            )
    return worst


@contract_rule("telemetry-liveness")
def check_telemetry_liveness(w: RuleWindow) -> Breach | None:
    """Every registered probe source keeps shipping (cluster scope).

    The collector emits ``telemetry.silent`` when a source that said
    ``hello`` stops shipping frames — events *and* heartbeat marks — for
    longer than the silence timeout without a clean ``bye``.  On a real
    cluster that is what a killed worker looks like from the telemetry
    plane: the process is gone, so no probe (not even ``node.shutdown``)
    ever arrives.  Any silent source in the window is a breach.
    """
    silents = w.kinds("telemetry.silent")
    if silents:
        e = silents[-1]
        return (
            float(len(silents)),
            0.0,
            f"probe source {e.args[0]} silent for {e.args[1]}s "
            "(no frames, no bye — worker dead or unreachable)",
        )
    return None


@contract_rule("ring-liveness")
def check_ring_liveness(w: RuleWindow) -> Breach | None:
    """The ring is circulating *somewhere* (cluster scope).

    A window long enough to cover HUNGRY timeout plus a 911 round with
    zero ``token.accept`` anywhere — while at least one node has been up
    throughout — means the token is gone and regeneration is not
    happening: the protocol's one unrecoverable degradation.
    """
    if w.uptime < w.span:  # nobody has been up a full window yet
        return None
    accepts = len(w.kinds("token.accept"))
    if accepts == 0:
        return (
            0.0,
            1.0,
            f"no token.accept anywhere for {w.span:.2f}s "
            "(stall: token lost and not regenerated)",
        )
    return None


# ----------------------------------------------------------------------
# the paper-contract rule set
# ----------------------------------------------------------------------
def paper_contract_rules(
    config: "RaincoreConfig",
    n_nodes: int,
    *,
    segments: int = 1,
    rate_tolerance: float = 0.5,
    wakeup_epsilon: float = 1.0,
    wakeup_slack: float = 10.0,
    detection_bound: float | None = None,
    detection_tolerance: float = 0.10,
    bandwidth_budget: float | None = None,
    window: float = 1.0,
    for_duration: float = 0.5,
) -> list[RuleSpec]:
    """The paper's overhead contract as declarative rules, bounds derived
    from the actual cluster provisioning.

    Parameters mirror the paper's claims: ``detection_bound`` defaults to
    the transport's worst case over ``segments`` routes (0.15 s with the
    default single-route transport — the §4.1 number); the wakeup ceiling
    is L·(1+ε) plus a small absolute ``wakeup_slack`` for beacons and
    recovery chatter; the bandwidth budget covers one flow-controlled
    token forward per visit plus an ack/beacon allowance.
    """
    hop = config.hop_interval
    if detection_bound is None:
        detection_bound = config.transport.failure_detection_bound(segments)
    if bandwidth_budget is None:
        visits_per_sec = 1.0 / max(1, n_nodes) / hop * max(1, n_nodes)
        # one token forward per hop interval is the worst case a single
        # node can legally sustain (it forwards only when it holds the
        # token, but a 2-member view visits every 2*hop); budget on the
        # small-view worst case so partitions stay in-contract.
        visits_per_sec = 1.0 / (2.0 * hop)
        bandwidth_budget = (config.max_token_bytes + 4096) * visits_per_sec
    stall_window = max(4.0 * config.hungry_timeout, 2.0)
    return [
        RuleSpec(
            name="token-rate",
            summary="token visit rate within tolerance of configured L",
            window=window,
            severity="critical",
            for_duration=for_duration,
            scope="node",
            params={"hop_interval": hop, "tolerance": rate_tolerance},
        ),
        RuleSpec(
            name="wakeup-budget",
            summary="GC wakeups/node/s within L*(1+eps)",
            window=window,
            severity="warning",
            for_duration=for_duration,
            scope="node",
            params={
                "hop_interval": hop,
                "epsilon": wakeup_epsilon,
                "slack": wakeup_slack,
            },
        ),
        RuleSpec(
            name="fd-latency",
            summary="failure detection within the transport bound",
            window=max(window, 2.0 * detection_bound + 0.5),
            severity="critical",
            for_duration=0.0,  # one overrun is already a contract breach
            scope="node",
            params={"bound": detection_bound, "tolerance": detection_tolerance},
        ),
        RuleSpec(
            name="bandwidth-share",
            summary="per-node send bandwidth within provisioned share",
            window=window,
            severity="warning",
            for_duration=for_duration,
            scope="node",
            params={"budget": bandwidth_budget},
        ),
        RuleSpec(
            name="ring-liveness",
            summary="token circulating somewhere in the cluster",
            window=stall_window,
            severity="critical",
            for_duration=0.0,  # the window itself is the debounce
            scope="cluster",
            params={},
        ),
        RuleSpec(
            name="buffer-bound",
            summary="bounded buffers stay inside their byte budgets",
            window=window,
            severity="critical",
            for_duration=0.0,  # an overrun is a hard-bound violation
            scope="node",
            params={},
        ),
        RuleSpec(
            name="state-transitions",
            summary="node.state transitions stay inside the spec lifecycle",
            window=window,
            severity="critical",
            for_duration=0.0,  # one undeclared transition is a bug
            scope="node",
            params={},
        ),
    ]


def realtime_contract_rules(
    config: "RaincoreConfig",
    n_nodes: int,
    *,
    segments: int = 1,
    silence_timeout: float = 1.0,
    **overrides,
) -> list[RuleSpec]:
    """The paper rule set retuned for a wall-clock multi-process cluster.

    Same bounds, looser tolerances: on real sockets the OS scheduler —
    not the simulator — decides when timers fire, so a loaded CI runner
    legitimately jitters hop timing by tens of percent.  The sim-time
    defaults would page on noise; these defaults page on collapse.  Adds
    the ``telemetry-liveness`` rule, which only makes sense when probes
    cross a process boundary: a silent source is a dead worker.

    Keyword overrides pass straight through to
    :func:`paper_contract_rules` (e.g. ``detection_bound=...``).
    """
    overrides.setdefault("rate_tolerance", 0.7)
    overrides.setdefault("wakeup_epsilon", 2.0)
    overrides.setdefault("wakeup_slack", 30.0)
    overrides.setdefault("detection_tolerance", 1.0)
    overrides.setdefault("window", 1.5)
    overrides.setdefault("for_duration", 1.0)
    rules = paper_contract_rules(config, n_nodes, segments=segments, **overrides)
    rules.append(
        RuleSpec(
            name="telemetry-liveness",
            summary="every registered probe source keeps shipping",
            window=max(2.0 * silence_timeout, 2.0),
            severity="critical",
            for_duration=0.0,  # a silent worker is already the incident
            scope="cluster",
            params={"silence_timeout": silence_timeout},
        )
    )
    return rules


# ----------------------------------------------------------------------
# the monitor
# ----------------------------------------------------------------------
class _NodeTrack:
    """Deterministic per-node derived state (fed only by probe events)."""

    __slots__ = ("up_since", "view_size")

    def __init__(self) -> None:
        self.up_since: float | None = None
        self.view_size = 1


class ContractMonitor:
    """Evaluates a rule set over the live probe stream of one cluster.

    Subscribes to the bus, files every event under its (kind, node) in a
    time-sorted series bounded by the longest rule window, and ticks on
    the event loop every ``interval`` virtual seconds.  At each tick every
    rule is evaluated per scope over the series it asks for — a kind no
    rule reads costs its append and its share of the prune, nothing more;
    breaches must persist ``for_duration`` before they latch an
    :class:`Alert` (re-armed after the breach clears).

    The monitor is passive: it never emits probes, draws no randomness,
    and mutates nothing outside itself — attaching it cannot change a
    run's behaviour, only observe it.
    """

    def __init__(
        self,
        bus: ProbeBus | None,
        rules: list[RuleSpec],
        *,
        interval: float = 0.25,
        clock=None,
    ) -> None:
        if interval <= 0.0:
            raise ValueError("interval must be positive")
        if bus is None and clock is None:
            raise ValueError("need a bus or an explicit clock")
        self.bus = bus
        #: The time source: anything with ``now`` and ``call_later``.
        #: Defaults to the bus's (virtual) loop; a wall-clock adapter here
        #: is what "ContractMonitor in wall-clock mode" means.
        self.loop = clock if clock is not None else bus.loop
        self.rules = list(rules)
        self.interval = interval
        self.alerts: list[Alert] = []
        self.ticks = 0
        self.started_at: float | None = None
        #: kind -> node -> retained events (see :class:`_Series`)
        self._series: dict[str, dict[str, _Series]] = {}
        self._horizon = max((r.window for r in self.rules), default=1.0)
        self._tracks: dict[str, _NodeTrack] = {}
        #: (rule name, node) -> sim time the current continuous breach began
        self._breached_since: dict[tuple[str, str], float] = {}
        #: breaches currently latched as alerts (cleared when healthy again)
        self._latched: set[tuple[str, str]] = set()
        #: last evaluation per (rule, node): (value, bound, breached)
        self._last: dict[tuple[str, str], tuple[float | None, float | None, bool]] = {}
        self._timer = None
        self._running = False
        if bus is not None:
            bus.subscribe(self._on_event)

    # ------------------------------------------------------------------
    # stream ingestion (derived state is probe-driven and deterministic)
    # ------------------------------------------------------------------
    def _track(self, node: str) -> _NodeTrack:
        track = self._tracks.get(node)
        if track is None:
            track = self._tracks[node] = _NodeTrack()
        return track

    def ingest(self, event: ProbeEvent) -> None:
        """Feed one event directly (no bus): the collector's entry point.

        Events must arrive in non-decreasing ``at`` order — the
        collector's watermark merge guarantees that for wall-clock
        streams, exactly as the bus guarantees it for sim time.
        """
        self._on_event(event)

    def _on_event(self, event: ProbeEvent) -> None:
        kind = event.kind
        try:
            series = self._series[kind][event.node]
        except KeyError:
            series = self._series.setdefault(kind, {}).setdefault(
                event.node, _Series()
            )
        at = event.at
        ats = series.ats
        if ats and at < ats[-1]:
            # A wall-clock straggler released behind its successors (the
            # collector's reorder allowance is finite): file it by time.
            i = bisect_right(ats, at)
            ats.insert(i, at)
            series.events.insert(i, event)
        else:
            ats.append(at)
            series.events.append(event)
        if kind == "node.state":
            track = self._track(event.node)
            if event.args[1] in _UP_STATES:
                if track.up_since is None:
                    track.up_since = event.at
            else:
                track.up_since = None
        elif kind == "view.change":
            self._track(event.node).view_size = max(1, len(event.args[1]))

    def _prune(self, now: float) -> None:
        cutoff = now - self._horizon
        for by_node in self._series.values():
            for series in by_node.values():
                ats = series.ats
                if ats and ats[0] < cutoff:
                    drop = bisect_left(ats, cutoff)
                    del ats[:drop]
                    del series.events[:drop]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin ticking on the event loop (idempotent)."""
        if self._running:
            return
        self._running = True
        if self.started_at is None:
            self.started_at = self.loop.now
        self._schedule()

    def stop(self) -> None:
        """Stop ticking and detach from the bus; alerts remain readable."""
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self.bus is not None:
            self.bus.unsubscribe(self._on_event)

    def _schedule(self) -> None:
        self._timer = self.loop.call_later(self.interval, self._tick)

    def _tick(self) -> None:
        if not self._running:
            return
        self.evaluate()
        self._schedule()

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _uptime(self, node: str, now: float) -> float:
        track = self._tracks.get(node)
        if track is None or track.up_since is None:
            return 0.0
        return now - track.up_since

    def _cluster_uptime(self, now: float) -> float:
        return max(
            (self._uptime(node, now) for node in self._tracks), default=0.0
        )

    def _cluster_view_size(self) -> int:
        return max((t.view_size for t in self._tracks.values()), default=1)

    def _window_for(self, rule: RuleSpec, node: str, now: float) -> RuleWindow:
        if node == "*":
            uptime = self._cluster_uptime(now)
            view = self._cluster_view_size()
        else:
            uptime = self._uptime(node, now)
            view = self._track(node).view_size
        return RuleWindow(
            start=now - rule.window,
            end=now,
            node=node,
            uptime=uptime,
            view_size=view,
            params=rule.params,
            series=self._series,
        )

    def evaluate(self, now: float | None = None) -> list[Alert]:
        """Run one evaluation pass; returns alerts fired by *this* pass.

        Called automatically by the tick loop; callable directly for a
        final sweep at run end (``now`` defaults to the sim clock).
        """
        if now is None:
            now = self.loop.now
        self.ticks += 1
        self._prune(now)
        fired: list[Alert] = []
        # The monitor only learns about a node when it probes; a run's
        # node population is therefore probe-derived and deterministic.
        nodes = sorted(self._tracks)
        for rule in self.rules:
            targets = ["*"] if rule.scope == "cluster" else nodes
            check = CONTRACT_RULES[rule.name]
            for node in targets:
                key = (rule.name, node)
                breach = check(self._window_for(rule, node, now))
                if breach is None:
                    self._breached_since.pop(key, None)
                    self._latched.discard(key)
                    self._last[key] = (None, None, False)
                    continue
                value, bound, detail = breach
                self._last[key] = (value, bound, True)
                since = self._breached_since.setdefault(key, now)
                if key in self._latched:
                    continue
                if now - since >= rule.for_duration:
                    alert = Alert(
                        rule=rule.name,
                        severity=rule.severity,
                        node=node,
                        at=now,
                        since=since,
                        value=value,
                        bound=bound,
                        detail=detail,
                    )
                    self.alerts.append(alert)
                    fired.append(alert)
                    self._latched.add(key)
        return fired

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def alert_records(self) -> list[dict]:
        """All fired alerts as JSON-safe records (bundle ``alerts`` form)."""
        return [a.record() for a in self.alerts]

    def status_line(self, now: float | None = None) -> str:
        """One redraw-free health line for the ``repro watch`` feed.

        ``t=<sim>s  <ok|ALERT>  <node>:<state> ...`` where a node's state
        is ``ok`` or the comma-joined names of its currently-breached
        rules; cluster-scope breaches show under the ``*`` pseudo-node.
        """
        if now is None:
            now = self.loop.now
        nodes = sorted(self._tracks)
        marks: list[str] = []
        any_breach = False
        for node in nodes + ["*"]:
            breached = sorted(
                rule_name
                for (rule_name, rule_node), (_, _, bad) in self._last.items()
                if rule_node == node and bad
            )
            if node == "*" and not breached:
                continue
            if breached:
                any_breach = True
                marks.append(f"{node}:{','.join(breached)}")
            else:
                marks.append(f"{node}:ok")
        flag = "ALERT" if any_breach or self.alerts else "ok   "
        body = "  ".join(marks) if marks else "(no nodes probed yet)"
        return f"t={now:8.2f}s  {flag}  {body}  alerts={len(self.alerts)}"


def render_alerts(alerts: list[Alert] | list[dict]) -> str:
    """Human-readable alert digest (accepts Alert objects or records)."""
    if not alerts:
        return "no contract alerts"
    shaped = [
        a if isinstance(a, Alert) else alert_from_record(a) for a in alerts
    ]
    lines = [f"{len(shaped)} contract alert(s):"]
    for a in shaped:
        lines.append("  " + a.describe())
    return "\n".join(lines)
