"""rainspec: the declarative protocol specification (pure data).

This module is the *source of truth* for the Raincore control-plane
protocol: which message kinds exist, which dispatcher tier delivers them,
which handler implements each exchange, which lifecycle states guard it,
which states it may transition a node into, which message kinds it may
mint, and — for the exchanges the model checker executes — the ordered
guard→effect rules of the paper's token / 911 / TBM machines.

Three consumers, three contracts:

* **raincheck RC5xx** (:mod:`repro.spec.extract`) recovers the *implemented*
  machine from the handler bodies in ``core/session.py``,
  ``core/recovery.py``, ``core/merge.py``, ``core/opengroup.py`` and
  ``data/replica.py`` by AST analysis and diffs it against this table.
  Drift in either direction — an unspecified dispatch arm, a spec entry no
  code implements, a transition/emit/guard the other side lacks — fails CI.
* **The model checker** (:mod:`repro.spec.model`) interprets the ordered
  :attr:`Exchange.rules` of the token/911/TBM exchanges over an abstract
  cluster with message loss, duplication and reordering, and verifies the
  paper's safety properties exhaustively for small N.
* **``repro spec render``** (:mod:`repro.spec.render`) prints the whole
  table as byte-stable markdown (pinned by a golden test and embedded in
  docs/PROTOCOL.md §9).

Everything here is a frozen dataclass of strings: no behaviour, no I/O,
no imports from the protocol implementation (the spec must be loadable to
judge a broken tree).  Kind names are matched against the sorted registry
views (:func:`repro.transport.messages.registered_kinds`) by the property
tests; state names must be ``NodeState`` member names.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "GUARDS",
    "EFFECTS",
    "LIFECYCLE",
    "PROTOCOL_SPEC",
    "SPEC_MODULES",
    "Exchange",
    "ModelRule",
    "exchange",
    "exchanges_by_name",
    "lifecycle_pairs",
    "spec_states",
    "spec_kinds",
    "validate_spec",
]

#: Source modules the conformance extractor analyzes (display-path
#: suffixes).  Adding an exchange whose handler lives elsewhere requires
#: adding its module here — the extractor errors on unresolvable handlers.
SPEC_MODULES: tuple[str, ...] = (
    "repro/core/session.py",
    "repro/core/recovery.py",
    "repro/core/merge.py",
    "repro/core/opengroup.py",
    "repro/data/replica.py",
)

#: Node-lifecycle transition relation (paper §2.2–§2.3), as value pairs.
#: This must stay equal to ``repro.core.states.VALID_TRANSITIONS`` — the
#: property test and ``repro spec check`` both assert the equality, and
#: the obs contract rule ``state-transitions`` enforces it live against
#: every ``node.state`` probe a run emits.
LIFECYCLE: tuple[tuple[str, str], ...] = (
    ("JOINING", "EATING"),
    ("JOINING", "JOINING"),
    ("JOINING", "STARVING"),
    ("JOINING", "DOWN"),
    ("HUNGRY", "EATING"),
    ("HUNGRY", "STARVING"),
    ("HUNGRY", "DOWN"),
    ("EATING", "HUNGRY"),
    ("EATING", "DOWN"),
    ("STARVING", "EATING"),
    ("STARVING", "HUNGRY"),
    ("STARVING", "JOINING"),
    ("STARVING", "DOWN"),
    ("DOWN", "JOINING"),
)

#: Guard vocabulary of the model rules.  A guard is evaluated by the model
#: checker against the abstract receiver state; within one exchange the
#: rules are tried in order and the first true guard fires.  ``ok`` is the
#: unconditional fall-through.
GUARDS: frozenset[str] = frozenset(
    {
        "ok",
        "tbm",
        "foreign_lineage",
        "stale_seq",
        "not_in_ring",
        "newer_seen",
        "hungry",
        "sender_not_member",
        "sender_member",
        "sender_quarantined",
        "have_token",
        "newer_copy",
        "deny",
        "all_join_pending",
        "higher_group",
        "already_holding",
        "not_member",
    }
)

#: Effect vocabulary of the model rules.  The checker implements the
#: operational semantics of each effect; the spec only binds guards to
#: effects, so a broken spec fixture (wrong binding) changes the explored
#: behaviour and trips a safety property.
EFFECTS: frozenset[str] = frozenset(
    {
        "accept",
        "drop",
        "divert",
        "forward",
        "repair",
        "start_round",
        "reply_join_pending",
        "reply_deny_token",
        "reply_deny_newer",
        "reply_grant",
        "back_to_hungry",
        "regenerate",
        "to_joining",
        "hold_tbm",
        "refuse_tbm",
        "merge",
        "initiate_merge",
        "queue_merge",
        "apply_joins",
        "quarantine",
    }
)

#: One model-checker rule: ``(guard, effect)``, evaluated in order.
ModelRule = tuple[str, str]


@dataclass(frozen=True)
class Exchange:
    """One protocol exchange: a message kind or timer and its handler.

    The extractable facts (``guard_states``, ``transitions``, ``emits``,
    ``delegates``) describe the handler's *call closure*: every helper it
    reaches within the spec modules, stopping at — and recording — other
    exchanges' handlers.  ``transitions`` are the ``NodeState`` names the
    closure passes to ``_transition``; ``emits`` the registered message
    kinds it constructs; ``guard_states`` the ``NodeState`` names its
    guard comparisons mention.  ``rules`` exist only on the exchanges the
    model checker executes.
    """

    name: str
    dispatcher: str  #: "transport" | "stream" | "timer" | "internal" | "lifecycle" | "view"
    handler: str  #: "ClassName.method" within :data:`SPEC_MODULES`
    kind: str | None = None  #: triggering message kind (dispatched tiers)
    dispatched_by: str | None = None  #: dispatch function owning the arm
    guard_states: tuple[str, ...] = ()
    transitions: tuple[str, ...] = ()
    emits: tuple[str, ...] = ()
    delegates: tuple[str, ...] = ()
    rules: tuple[ModelRule, ...] = ()
    doc: str = ""


def exchange(
    name: str,
    dispatcher: str,
    handler: str,
    *,
    kind: str | None = None,
    dispatched_by: str | None = None,
    guard_states: tuple[str, ...] = (),
    transitions: tuple[str, ...] = (),
    emits: tuple[str, ...] = (),
    delegates: tuple[str, ...] = (),
    rules: tuple[ModelRule, ...] = (),
    doc: str = "",
) -> Exchange:
    """Build an :class:`Exchange` with sorted fact tuples (determinism)."""
    return Exchange(
        name=name,
        dispatcher=dispatcher,
        handler=handler,
        kind=kind,
        dispatched_by=dispatched_by,
        guard_states=tuple(sorted(guard_states)),
        transitions=tuple(sorted(transitions)),
        emits=tuple(sorted(emits)),
        delegates=tuple(sorted(delegates)),
        rules=tuple(rules),
        doc=doc,
    )


#: The protocol specification.  Order is the authored narrative order;
#: every renderer sorts by (dispatcher, name) so output never depends on
#: edits here.
PROTOCOL_SPEC: tuple[Exchange, ...] = (
    # ------------------------------------------------------------------
    # transport tier: session messages dispatched by _receive
    # ------------------------------------------------------------------
    exchange(
        "token-accept",
        "transport",
        "RaincoreNode._accept_token",
        kind="Token",
        dispatched_by="RaincoreNode._receive",
        guard_states=("DOWN", "JOINING"),
        transitions=("EATING",),
        delegates=(
            "merge-complete",
            "tbm-hold",
            "token-depart",
            "token-divert",
            "token-visit",
        ),
        rules=(
            ("tbm", "hold_tbm"),
            ("foreign_lineage", "divert"),
            ("stale_seq", "drop"),
            ("not_in_ring", "drop"),
            ("ok", "accept"),
        ),
        doc="Token acceptance guard: lineage continuity then seq freshness "
        "(paper §2.2, session.py module docstring).",
    ),
    exchange(
        "911-request",
        "transport",
        "RecoveryProtocol.handle_911",
        kind="NineOneOne",
        dispatched_by="RaincoreNode._receive",
        guard_states=("EATING",),
        emits=("NineOneOneReply",),
        rules=(
            ("sender_not_member", "reply_join_pending"),
            ("have_token", "reply_deny_token"),
            ("newer_copy", "reply_deny_newer"),
            ("ok", "reply_grant"),
        ),
        doc="Grant rule of the 911 protocol (paper §2.3): members vote on a "
        "regeneration; non-members are queued as joiners.",
    ),
    exchange(
        "911-reply",
        "transport",
        "RecoveryProtocol.handle_reply",
        kind="NineOneOneReply",
        dispatched_by="RaincoreNode._receive",
        guard_states=("HUNGRY", "STARVING"),
        transitions=("HUNGRY", "JOINING"),
        emits=("Token",),
        delegates=("join-retry", "timeout-starve", "token-accept"),
        rules=(
            ("deny", "back_to_hungry"),
            ("all_join_pending", "to_joining"),
            ("ok", "regenerate"),
        ),
        doc="STARVING round bookkeeping: any deny aborts; unanimous "
        "JOIN_PENDING means we were removed; unanimous grant regenerates "
        "from the local copy.",
    ),
    exchange(
        "bodyodor",
        "transport",
        "MergeProtocol.handle_bodyodor",
        kind="BodyOdor",
        dispatched_by="RaincoreNode._receive",
        guard_states=("DOWN", "JOINING"),
        rules=(
            ("not_member", "drop"),
            ("sender_member", "drop"),
            ("sender_quarantined", "drop"),
            ("higher_group", "drop"),
            ("ok", "queue_merge"),
        ),
        doc="Discovery beacon receive (paper §2.4): lower group id joins "
        "higher; quarantined senders wait out the backoff.",
    ),
    exchange(
        "open-group",
        "transport",
        "RaincoreNode._handle_open_group",
        kind="OpenGroupMessage",
        dispatched_by="RaincoreNode._receive",
        guard_states=("DOWN", "JOINING"),
        emits=("OpenGroupAck",),
        doc="Open group injection (paper §2.6): a member multicasts an "
        "outside node's payload and acks the client.",
    ),
    exchange(
        "open-group-ack",
        "transport",
        "OpenGroupClient._receive",
        kind="OpenGroupAck",
        dispatched_by="OpenGroupClient._receive",
        doc="Client side of open group: acceptance ends the retry loop.",
    ),
    # ------------------------------------------------------------------
    # internal exchanges (reached only by delegation)
    # ------------------------------------------------------------------
    exchange(
        "token-divert",
        "internal",
        "RaincoreNode._divert_foreign_token",
        doc="Foreign-lineage token routed around this node (acceptance "
        "guard layer 1); both forks then partition cleanly.",
    ),
    exchange(
        "token-visit",
        "internal",
        "RaincoreNode._process_visit",
        delegates=("join-apply", "token-forward"),
        doc="The arrival side of one token visit: membership sync, queued "
        "joins, the multicast arrival half (receive, confirm/retire, "
        "deliver), mutex, then the hold timer.",
    ),
    exchange(
        "token-depart",
        "internal",
        "RaincoreNode._depart_with_token",
        transitions=("DOWN",),
        doc="Voluntary leave while EATING: a leave mid-hold runs the "
        "multicast departure half first; hand the ring over, stop.",
    ),
    exchange(
        "fd-repair",
        "internal",
        "RaincoreNode._on_forward_result",
        guard_states=("DOWN",),
        delegates=("token-accept",),
        rules=(("newer_seen", "drop"), ("ok", "repair")),
        doc="Failure-on-delivery (paper §2.2): remove the dead neighbour "
        "and resume from the local copy of exactly what was sent.",
    ),
    exchange(
        "quarantine",
        "internal",
        "RaincoreNode.quarantine_peer",
        rules=(("ok", "quarantine"),),
        doc="Resync degradation ladder terminal rung: evict the peer on "
        "the next visit and ignore its joins/beacons until backoff lifts.",
    ),
    exchange(
        "join-apply",
        "internal",
        "RecoveryProtocol.on_token",
        rules=(("ok", "apply_joins"),),
        doc="Token-visit hook: insert queued joiners after us; evict "
        "quarantined peers on the same visit.",
    ),
    exchange(
        "911-round",
        "internal",
        "RecoveryProtocol._start_round",
        guard_states=("STARVING",),
        transitions=("JOINING",),
        emits=("NineOneOne", "Token"),
        delegates=("join-retry", "token-accept"),
        doc="Fan a 911 out to every member of the local view; "
        "failure-on-delivery excludes a peer from vote and regenerated "
        "membership.",
    ),
    exchange(
        "merge-initiate",
        "internal",
        "MergeProtocol.maybe_initiate",
        rules=(("ok", "initiate_merge"),),
        doc="Initiating side of the TBM merge: add the discovered peer to "
        "the ring, set TBM, forward the token straight to it.",
    ),
    exchange(
        "tbm-hold",
        "internal",
        "MergeProtocol.handle_tbm",
        guard_states=("EATING",),
        delegates=("merge-complete",),
        rules=(("already_holding", "refuse_tbm"), ("ok", "hold_tbm")),
        doc="Joining side: hold the TBM token until our own token arrives; "
        "a second TBM is refused so the second initiator's ring routes "
        "around us.",
    ),
    exchange(
        "merge-complete",
        "internal",
        "MergeProtocol.merge_with_own",
        emits=("Token",),
        rules=(("ok", "merge"),),
        doc="Combine the held TBM token with our own: splice rings, "
        "concatenate queues, mint a merged lineage with both parents in "
        "the ancestry.",
    ),
    # ------------------------------------------------------------------
    # timer-driven exchanges
    # ------------------------------------------------------------------
    exchange(
        "token-forward",
        "timer",
        "RaincoreNode._forward_token",
        guard_states=("EATING", "HUNGRY"),
        transitions=("HUNGRY",),
        delegates=("fd-repair", "merge-initiate", "timeout-starve", "token-accept"),
        rules=(("ok", "forward"),),
        doc="Hop-interval expiry: the multicast departure half (attach, "
        "deliver own) before any merge starts, then seq+1, snapshot a "
        "local copy, send to the ring successor (or the merge target), "
        "arm the failure detector.",
    ),
    exchange(
        "timeout-starve",
        "timer",
        "RecoveryProtocol.on_hungry_timeout",
        guard_states=("HUNGRY",),
        transitions=("STARVING",),
        delegates=("911-round",),
        rules=(("hungry", "start_round"),),
        doc="HUNGRY timeout: suspect token loss, enter STARVING, start a "
        "911 round.",
    ),
    exchange(
        "join-retry",
        "timer",
        "RecoveryProtocol._on_join_timeout",
        guard_states=("JOINING",),
        transitions=("STARVING",),
        emits=("NineOneOne",),
        delegates=("911-round",),
        doc="JOINING retry / deadlock escalation: keep knocking, or — "
        "still holding a token copy after repeated futility — escalate "
        "to a 911 regeneration round.",
    ),
    exchange(
        "merge-beacon",
        "timer",
        "MergeProtocol._beacon",
        guard_states=("DOWN", "JOINING"),
        emits=("BodyOdor",),
        doc="Periodic BODYODOR discovery beacons to eligible non-members.",
    ),
    # ------------------------------------------------------------------
    # stream tier: payloads dispatched off the agreed-ordered multicast
    # ------------------------------------------------------------------
    exchange(
        "resync-snapshot",
        "stream",
        "ReplicaBase._handle_snapshot",
        kind="ResyncSnapshot",
        dispatched_by="ReplicaBase.on_deliver",
        guard_states=("DOWN",),
        emits=("ResyncAck",),
        doc="Continuation-point state transfer installed by every member; "
        "reconciles split-brain histories (docs/RESYNC.md ladder rung 2).",
    ),
    exchange(
        "resync-delta",
        "stream",
        "ReplicaBase._handle_delta",
        kind="ResyncDelta",
        dispatched_by="ReplicaBase.on_deliver",
        guard_states=("DOWN",),
        emits=("ResyncAck",),
        delegates=("resync-antientropy",),
        doc="Certified O(window) catch-up for an in-window peer (ladder "
        "rung 1); a divergent base re-enters the unsynced protocol.",
    ),
    exchange(
        "resync-ack",
        "stream",
        "ReplicaBase._handle_ack",
        kind="ResyncAck",
        dispatched_by="ReplicaBase.on_deliver",
        delegates=("resync-serve",),
        doc="Certified positions drive deterministic pruning and growth "
        "coordination.",
    ),
    exchange(
        "resync-request",
        "stream",
        "ReplicaBase._handle_sync_request",
        kind="SyncRequest",
        dispatched_by="ReplicaBase.on_deliver",
        delegates=("resync-serve",),
        doc="An unsynced replica asking for catch-up; every synced member "
        "answers along the ladder.",
    ),
    exchange(
        "resync-serve",
        "internal",
        "ReplicaBase._serve_peer",
        guard_states=("DOWN",),
        emits=("ResyncDelta", "ResyncSnapshot"),
        delegates=("quarantine",),
        doc="One ladder rung for one lagging peer: certified delta → "
        "continuation-point snapshot → quarantine.",
    ),
    exchange(
        "resync-growth",
        "view",
        "ReplicaBase.on_view_change",
        guard_states=("DOWN",),
        emits=("ResyncAck",),
        delegates=("resync-antientropy", "resync-growth-tick"),
        doc="View growth: advertise certified positions; the lowest-id "
        "survivor becomes the joiners' resync coordinator.",
    ),
    exchange(
        "resync-growth-tick",
        "timer",
        "ReplicaBase._growth_tick",
        guard_states=("DOWN", "JOINING"),
        emits=("ResyncSnapshot",),
        doc="Growth deferral expired with unresolved joiners: snapshot "
        "fallback (never toward a peer that knows strictly more).",
    ),
    exchange(
        "resync-antientropy",
        "timer",
        "ReplicaBase._sync_tick",
        guard_states=("DOWN", "JOINING"),
        emits=("ResyncSnapshot", "SyncRequest"),
        doc="Unsynced replicas poll with certified-position SyncRequests; "
        "a fruitless minimum-id member self-declares (FINDINGS.md §4).",
    ),
    exchange(
        "resync-amnesia",
        "lifecycle",
        "ReplicaBase.on_state_change",
        guard_states=("DOWN", "JOINING"),
        doc="A restart is amnesia: drop state trust, log and chain; "
        "re-enter the unsynced protocol.",
    ),
)


def exchanges_by_name() -> dict[str, Exchange]:
    """Name → exchange mapping (validated unique by :func:`validate_spec`)."""
    return {ex.name: ex for ex in PROTOCOL_SPEC}


def lifecycle_pairs() -> frozenset[tuple[str, str]]:
    """The allowed lifecycle transitions as a set of value-name pairs."""
    return frozenset(LIFECYCLE)


def spec_states() -> frozenset[str]:
    """Every state name the spec mentions anywhere."""
    names = {s for pair in LIFECYCLE for s in pair}
    for ex in PROTOCOL_SPEC:
        names.update(ex.guard_states)
        names.update(ex.transitions)
    return frozenset(names)


def spec_kinds() -> frozenset[str]:
    """Every message kind the spec mentions (dispatch kinds and emits)."""
    kinds: set[str] = set()
    for ex in PROTOCOL_SPEC:
        if ex.kind is not None:
            kinds.add(ex.kind)
        kinds.update(ex.emits)
    return frozenset(kinds)


def validate_spec(spec: tuple[Exchange, ...] = PROTOCOL_SPEC) -> list[str]:
    """Structural self-checks; returns a sorted list of problem strings.

    Kept import-light (no protocol imports) so a broken tree can still
    validate its spec.  Cross-checks against the live registries and
    ``NodeState`` live in the property tests and ``repro spec check``.
    """
    problems: list[str] = []
    seen: set[str] = set()
    names = {ex.name for ex in spec}
    lifecycle_states = {s for pair in LIFECYCLE for s in pair}
    for ex in spec:
        if ex.name in seen:
            problems.append(f"duplicate exchange name {ex.name!r}")
        seen.add(ex.name)
        if "." not in ex.handler:
            problems.append(f"{ex.name}: handler {ex.handler!r} is not Class.method")
        if (ex.kind is None) != (ex.dispatched_by is None):
            problems.append(
                f"{ex.name}: kind and dispatched_by must be set together"
            )
        for state in (*ex.guard_states, *ex.transitions):
            if state not in lifecycle_states:
                problems.append(
                    f"{ex.name}: state {state!r} not in the lifecycle table"
                )
        for delegate in ex.delegates:
            if delegate not in names:
                problems.append(f"{ex.name}: unknown delegate {delegate!r}")
        for guard, effect in ex.rules:
            if guard not in GUARDS:
                problems.append(f"{ex.name}: unknown guard {guard!r}")
            if effect not in EFFECTS:
                problems.append(f"{ex.name}: unknown effect {effect!r}")
        if ex.rules:
            guards = [g for g, _ in ex.rules]
            if guards.count("ok") > 1 or ("ok" in guards and guards[-1] != "ok"):
                problems.append(
                    f"{ex.name}: 'ok' must be the single final fall-through"
                )
    return sorted(problems)
