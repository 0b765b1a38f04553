"""The raincheck rule catalogue.

Three families (full prose in docs/DETERMINISM.md):

* **RC1xx determinism** — the replay contract: no wall clock, no ambient
  entropy, all randomness via an explicitly seeded ``random.Random``, no
  iteration over unordered sets.
* **RC2xx protocol** — structural invariants of the session service:
  exhaustive dispatch of registered session messages, scheduling/socket
  primitives contained to ``repro.net``/``repro.runtime``, no poking at
  ``EventLoop`` internals from protocol code.
* **RC3xx hot-path hygiene** — per-packet/per-hop dataclasses carry
  ``__slots__``; no ``copy.deepcopy`` on the token/datagram hot path.
* **RC4xx observability** — probe emissions stay cheap and deterministic:
  no eager string formatting in ``probe.emit(...)`` argument lists (the
  probe catalogue formats lazily at render time), probe events are
  stamped with sim time by the bus alone — no hand-built
  :class:`~repro.obs.probe.ProbeEvent` outside ``repro/obs/``, no ``at=``
  smuggled into an emit call — and contract-monitor rules registered via
  ``@contract_rule`` stay pure functions of their window (no wall clock,
  no ambient state, no mutation).

RC0xx are meta findings emitted by the engine itself (parse failures and
pragma hygiene); they are registered here so ``--list-rules`` and pragma
validation know about them, but they have no checker function and are
never suppressible.

Rules are generators: file-scope rules take a :class:`FileContext` and
yield ``(line, col, message)``; project-scope rules take a
:class:`Project` and yield ``(path, line, col, message)``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.lint.model import FileContext, Project

__all__ = ["Rule", "RULES", "rule", "FileContext", "Project"]

FileFinding = tuple[int, int, str]
ProjectFinding = tuple[str, int, int, str]


@dataclass(frozen=True)
class Rule:
    """One registered rule: id, one-line summary, scope, checker."""

    id: str
    summary: str
    scope: str  #: "file" | "project" | "meta"
    func: Callable


RULES: dict[str, Rule] = {}


def rule(rule_id: str, summary: str, scope: str = "file"):
    """Register a checker under ``rule_id`` (decorator)."""

    def deco(fn: Callable) -> Callable:
        RULES[rule_id] = Rule(rule_id, summary, scope, fn)
        return fn

    return deco


def _meta(rule_id: str, summary: str) -> None:
    RULES[rule_id] = Rule(rule_id, summary, "meta", lambda _: ())


_meta("RC000", "file does not parse")
_meta("RC001", "malformed pragma or unknown rule id")
_meta("RC002", "suppression pragma without a justification")
_meta("RC003", "suppression pragma that suppressed nothing (strict)")


# ----------------------------------------------------------------------
# RC1xx — determinism
# ----------------------------------------------------------------------
#: Wall-clock reads.  Only repro/perf.py (the wall-clock benchmark harness,
#: whose entire purpose is measuring real elapsed time) may use these.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)
#: The only modules allowed to read the wall clock: the perf harness, the
#: hot-path profiler, and the raintap telemetry plane (shipper, collector,
#: worker) — all live on the non-deterministic wall-clock side of the
#: fence and never feed the *simulated* probe stream (docs/PROFILING.md,
#: docs/TELEMETRY.md).
_CLOCK_ALLOWED_MODULES = (
    "repro/perf.py",
    "repro/obs/prof.py",
    "repro/runtime/telemetry.py",
    "repro/runtime/collector.py",
    "repro/runtime/worker.py",
)

#: Ambient entropy: different on every run, ruinous to replay.  Note that
#: uuid3/uuid5 (name-based, deterministic in their inputs) are allowed.
_ENTROPY = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "random.SystemRandom",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.randbelow",
        "secrets.choice",
    }
)


@rule("RC101", "wall-clock read outside the wall-clock allowlist")
def check_wall_clock(ctx: FileContext) -> Iterator[FileFinding]:
    if ctx.is_module(*_CLOCK_ALLOWED_MODULES):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            name = ctx.resolve(node.func)
            if name in _WALL_CLOCK:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"wall-clock call {name}() breaks replay determinism; "
                    "use EventLoop virtual time (loop.now) — real-time "
                    "measurement belongs in repro/perf.py or "
                    "repro/obs/prof.py",
                )


@rule("RC102", "ambient entropy source (urandom/uuid4/secrets/...)")
def check_entropy(ctx: FileContext) -> Iterator[FileFinding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            name = ctx.resolve(node.func)
            if name in _ENTROPY:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{name}() draws ambient entropy; all randomness must "
                    "come from a seeded random.Random (EventLoop.rng)",
                )


@rule("RC103", "module-level random.* call (unseeded global RNG)")
def check_module_random(ctx: FileContext) -> Iterator[FileFinding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                if alias.name not in ("Random",):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"from random import {alias.name} binds the global "
                        "(process-seeded) RNG; import random.Random and "
                        "seed it explicitly",
                    )
        elif isinstance(node, ast.Call):
            name = ctx.resolve(node.func)
            if (
                name is not None
                and name.startswith("random.")
                and name not in ("random.Random", "random.SystemRandom")
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{name}() uses the global RNG whose state is shared "
                    "and process-seeded; draw from a seeded random.Random "
                    "(in simulation code: EventLoop.rng)",
                )


@rule("RC104", "random.Random() constructed without an explicit seed")
def check_unseeded_random(ctx: FileContext) -> Iterator[FileFinding]:
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and ctx.resolve(node.func) == "random.Random"
            and not node.args
            and not node.keywords
        ):
            yield (
                node.lineno,
                node.col_offset,
                "random.Random() without a seed is seeded from the OS; "
                "pass an explicit seed so runs replay",
            )


def _is_unordered(node: ast.AST, ctx: FileContext) -> bool:
    """Syntactically-recognizable unordered set expression."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return ctx.resolve(node.func) in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        return _is_unordered(node.left, ctx) or _is_unordered(node.right, ctx)
    return False


@rule("RC105", "iteration over an unordered set expression")
def check_set_iteration(ctx: FileContext) -> Iterator[FileFinding]:
    def finding(node: ast.AST) -> FileFinding:
        return (
            node.lineno,
            node.col_offset,
            "iterating a set draws on hash order, which varies across "
            "processes (PYTHONHASHSEED) — wrap in sorted(...) before it "
            "can feed scheduling or serialization order",
        )

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.For) and _is_unordered(node.iter, ctx):
            yield finding(node.iter)
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            for gen in node.generators:
                if _is_unordered(gen.iter, ctx):
                    yield finding(gen.iter)
        elif (
            isinstance(node, ast.Call)
            and ctx.resolve(node.func) in ("list", "tuple", "enumerate")
            and node.args
            and _is_unordered(node.args[0], ctx)
        ):
            yield finding(node)


# ----------------------------------------------------------------------
# RC2xx — protocol invariants
# ----------------------------------------------------------------------
def _isinstance_targets(fn: ast.FunctionDef) -> set[str]:
    """Class names tested with isinstance() anywhere inside ``fn``."""
    targets: set[str] = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            second = node.args[1]
            elts = second.elts if isinstance(second, ast.Tuple) else [second]
            for elt in elts:
                if isinstance(elt, ast.Name):
                    targets.add(elt.id)
                elif isinstance(elt, ast.Attribute):
                    targets.add(elt.attr)
    return targets


@rule(
    "RC201",
    "registered session message without an isinstance arm in a _receive "
    "handler",
    scope="project",
)
def check_exhaustive_dispatch(project: Project) -> Iterator[ProjectFinding]:
    """Every ``@session_message`` class must be dispatched somewhere.

    The registry lives in repro/transport/messages.py; the dispatchers are
    the functions named ``_receive`` (the conventional transport-delivery
    callback installed via ``set_receiver``).  A message that is registered
    but never matched would be silently dropped by every receiver — the
    session layer tolerates garbage, so this failure mode is invisible at
    runtime and must be caught statically.
    """
    registered: list[tuple[str, str, int, int]] = []
    handled: set[str] = set()
    for ctx in project.files:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                for deco in node.decorator_list:
                    name = ctx.resolve(deco)
                    if name is not None and name.split(".")[-1] == (
                        "session_message"
                    ):
                        registered.append(
                            (node.name, ctx.path, node.lineno, node.col_offset)
                        )
            elif isinstance(node, ast.FunctionDef) and node.name == "_receive":
                handled |= _isinstance_targets(node)
    for cls_name, path, line, col in registered:
        if cls_name not in handled:
            yield (
                path,
                line,
                col,
                f"session message {cls_name} is registered but no _receive "
                "handler has an isinstance arm for it; it would be dropped "
                "as garbage at every receiver",
            )


@rule("RC202", "direct heapq use outside repro/net and repro/runtime")
def check_heapq_containment(ctx: FileContext) -> Iterator[FileFinding]:
    if ctx.in_dir("repro/net/", "repro/runtime/"):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name == "heapq"]
        elif isinstance(node, ast.ImportFrom):
            names = ["heapq"] if node.module == "heapq" else []
        else:
            continue
        if names:
            yield (
                node.lineno,
                node.col_offset,
                "event ordering is owned by EventLoop's (time, priority, "
                "seq) heap; schedule through the loop instead of building "
                "a private heapq here",
            )


@rule("RC203", "direct socket use outside repro/runtime")
def check_socket_containment(ctx: FileContext) -> Iterator[FileFinding]:
    if ctx.in_dir("repro/runtime/"):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name == "socket"]
        elif isinstance(node, ast.ImportFrom):
            names = ["socket"] if node.module == "socket" else []
        else:
            continue
        if names:
            yield (
                node.lineno,
                node.col_offset,
                "real I/O lives behind repro/runtime; simulation and "
                "protocol code must stay on the DatagramNetwork model",
            )


#: EventLoop/SimClock internals that only the loop itself may touch.
_LOOP_PRIVATE_ATTRS = frozenset({"_heap", "_pop_live"})


@rule("RC204", "EventLoop/SimClock internals touched outside repro/net")
def check_loop_internals(ctx: FileContext) -> Iterator[FileFinding]:
    if ctx.in_dir("repro/net/"):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Attribute) and node.attr in _LOOP_PRIVATE_ATTRS:
            yield (
                node.lineno,
                node.col_offset,
                f"accessing .{node.attr} reaches into the EventLoop's "
                "private heap; use call_at/call_later/peek_time",
            )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "advance_to"
        ):
            yield (
                node.lineno,
                node.col_offset,
                "advance_to() moves the virtual clock out from under the "
                "event heap; time advances only by running events "
                "(run_until/run_for/step)",
            )


#: Modules whose classes buffer protocol data and therefore must bound it
#: (docs/RESYNC.md): the Data Service replicas and the reliable transport.
_BOUNDED_BUFFER_DIRS = ("repro/data/",)
_BOUNDED_BUFFER_MODULES = ("repro/transport/reliable.py",)

#: Method calls on ``self.<attr>`` that shrink or empty the buffer.
_PRUNE_METHODS = frozenset(
    {"clear", "pop", "popleft", "popitem", "remove", "discard"}
)


def _self_attr(node: ast.AST) -> str | None:
    """``self.X`` → ``"X"``; anything else → None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _bounded_deque_call(node: ast.AST) -> bool:
    """True for ``deque(..., maxlen=<non-None>)`` constructions."""
    if not (isinstance(node, ast.Call) and node.keywords):
        return False
    target = node.func
    name = target.attr if isinstance(target, ast.Attribute) else (
        target.id if isinstance(target, ast.Name) else None
    )
    if name != "deque":
        return False
    return any(
        kw.arg == "maxlen"
        and not (isinstance(kw.value, ast.Constant) and kw.value.value is None)
        for kw in node.keywords
    )


@rule("RC205", "buffer append without a reachable prune path")
def check_buffer_prune_path(ctx: FileContext) -> Iterator[FileFinding]:
    """Every buffering append in the data/transport layers must be prunable.

    The bounded-state resync work (docs/RESYNC.md) turns "buffers grow
    until something crashes" into a static finding: inside ``repro/data/``
    and the reliable transport, any class that does ``self.X.append(...)``
    must also give ``self.X`` a prune path — a shrink call (``clear`` /
    ``pop`` / ``popleft`` / ``remove`` / ...), a ``del self.X[...]``, a
    reassignment outside ``__init__``, or construction as a bounded
    ``deque(maxlen=...)``.  A class that only ever appends is exactly the
    unbounded-log bug class this PR's protocol machinery exists to kill.
    """
    if not (
        ctx.in_dir(*_BOUNDED_BUFFER_DIRS)
        or ctx.is_module(*_BOUNDED_BUFFER_MODULES)
    ):
        return
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        appends: dict[str, tuple[int, int]] = {}
        pruned: set[str] = set()
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            in_init = fn.name == "__init__"
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    attr = _self_attr(node.func.value)
                    if attr is None:
                        continue
                    if node.func.attr == "append":
                        appends.setdefault(
                            attr, (node.lineno, node.col_offset)
                        )
                    elif node.func.attr in _PRUNE_METHODS:
                        pruned.add(attr)
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        base = (
                            target.value
                            if isinstance(target, ast.Subscript)
                            else target
                        )
                        attr = _self_attr(base)
                        if attr is not None:
                            pruned.add(attr)
                elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    value = node.value
                    for target in targets:
                        base = (
                            target.value
                            if isinstance(target, ast.Subscript)
                            else target
                        )
                        attr = _self_attr(base)
                        if attr is None:
                            continue
                        if value is not None and _bounded_deque_call(value):
                            pruned.add(attr)  # bounded by construction
                        elif not in_init:
                            pruned.add(attr)  # rebind/splice = prune path
        for attr, (line, col) in sorted(appends.items()):
            if attr not in pruned:
                yield (
                    line,
                    col,
                    f"{cls.name}.{attr} is appended to but never pruned: "
                    "give it a shrink path (clear/pop/del/reassignment "
                    "outside __init__) or bound it with deque(maxlen=...) "
                    "— unbounded buffers break the resync byte budget",
                )


#: Names that conventionally hold collections of per-shard objects in
#: ``repro/parallel/``.  Reaching *through* one of these into a shard's
#: state is exactly the cross-shard access the exchange exists to forbid.
_SHARD_COLLECTIONS = frozenset(
    {"shards", "workers", "peers", "_shards", "_workers", "_peers"}
)

#: Terminal method names that mutate shard state or schedule into a
#: shard's loop when reached through a shard collection.
_CROSS_SHARD_MUTATORS = frozenset(
    {
        "call_at",
        "call_later",
        "send",
        "submit",
        "bind",
        "unbind",
        "crash",
        "start_new_group",
        "start_joining",
        "multicast",
        "set_eligible",
    }
)


def _shard_subscript_in_chain(node: ast.AST) -> bool:
    """True if an attribute/subscript chain passes through ``<shards>[i]``."""
    while True:
        if isinstance(node, ast.Attribute):
            node = node.value
        elif isinstance(node, ast.Subscript):
            base = node.value
            name = None
            if isinstance(base, ast.Name):
                name = base.id
            elif isinstance(base, ast.Attribute):
                name = base.attr
            if name in _SHARD_COLLECTIONS:
                return True
            node = base
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            return False


def _rc206_findings_in(body: list[ast.stmt]) -> Iterator[FileFinding]:
    for stmt in body:
        if isinstance(stmt, ast.ClassDef):
            if not stmt.name.endswith("Exchange"):
                yield from _rc206_findings_in(stmt.body)
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _CROSS_SHARD_MUTATORS and _shard_subscript_in_chain(
                    node.func.value
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f".{node.func.attr}() reached through a shard "
                        "collection subscript mutates another shard "
                        "directly; cross-shard effects must ride the "
                        "epoch exchange (submit/deliver_trunk)",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    # Only attribute stores past the subscript count:
                    # ``self.workers[i] = proc`` builds the collection and
                    # stays legal; ``self.workers[i].node.x = 1`` mutates
                    # the shard behind the exchange's back.
                    if isinstance(target, ast.Attribute) and _shard_subscript_in_chain(
                        target.value
                    ):
                        yield (
                            target.lineno,
                            target.col_offset,
                            "assignment into another shard's object "
                            "through a shard collection subscript; "
                            "cross-shard state changes must ride the "
                            "epoch exchange",
                        )


@rule("RC206", "direct cross-shard state access outside the exchange path")
def check_cross_shard_access(ctx: FileContext) -> Iterator[FileFinding]:
    """No reaching into another shard's loop/network/nodes directly.

    Inside ``repro/parallel/`` the only sanctioned way for one shard to
    affect another is the epoch exchange (``submit`` at send time,
    ``deliver_trunk`` at the boundary): it is what keeps traces
    shard-count invariant and what the process engine can actually ship
    over a pipe.  Code that holds a collection of shard objects
    (``shards``/``workers``/``peers``) and calls scheduling or protocol
    mutators through it — ``self.shards[i].loop.call_at(...)``,
    ``workers[k].network.send(...)`` — or assigns into a shard's objects
    bypasses that path.  Exchange classes themselves (``*Exchange``) are
    exempt: they *are* the sanctioned path.
    """
    if not ctx.in_dir("repro/parallel/"):
        return
    yield from _rc206_findings_in(ctx.tree.body)


# ----------------------------------------------------------------------
# RC3xx — hot-path hygiene
# ----------------------------------------------------------------------
#: Modules on the per-packet / per-hop critical path (see PR 2's
#: benchmarks): every dataclass allocated here rides a hot loop.
_HOT_PATH_MODULES = (
    "repro/net/eventloop.py",
    "repro/net/datagram.py",
    "repro/net/adversity.py",
    "repro/core/token.py",
    "repro/transport/messages.py",
    "repro/transport/reliable.py",
)

_SLOTS_EXEMPT_BASES = frozenset(
    {"Protocol", "Enum", "IntEnum", "StrEnum", "Exception", "NamedTuple"}
)


def _dataclass_decorator(node: ast.ClassDef) -> ast.AST | None:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return deco
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return deco
    return None


def _declares_slots(node: ast.ClassDef) -> bool:
    deco = _dataclass_decorator(node)
    if isinstance(deco, ast.Call):
        for kw in deco.keywords:
            if (
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
            ):
                return True
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
    return False


@rule("RC301", "hot-path dataclass without __slots__")
def check_hot_path_slots(ctx: FileContext) -> Iterator[FileFinding]:
    if not ctx.is_module(*_HOT_PATH_MODULES):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if any(
            isinstance(base, ast.Name) and base.id in _SLOTS_EXEMPT_BASES
            for base in node.bases
        ):
            continue
        if _dataclass_decorator(node) is None:
            continue
        if not _declares_slots(node):
            yield (
                node.lineno,
                node.col_offset,
                f"dataclass {node.name} is allocated on the token/datagram "
                "hot path; declare @dataclass(slots=True) to drop the "
                "per-instance __dict__",
            )


_DEEPCOPY_MESSAGE = (
    "deepcopy walks the whole object graph per call; hot paths copy only "
    "what travels (Token.snapshot) instead"
)


@rule("RC302", "copy.deepcopy on the token/datagram hot path")
def check_hot_path_deepcopy(ctx: FileContext) -> Iterator[FileFinding]:
    if not ctx.is_module(*_HOT_PATH_MODULES):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "copy":
            if any(a.name == "deepcopy" for a in node.names):
                yield (
                    node.lineno,
                    node.col_offset,
                    _DEEPCOPY_MESSAGE,
                )
        elif (
            isinstance(node, ast.Call)
            and ctx.resolve(node.func) == "copy.deepcopy"
        ):
            yield (
                node.lineno,
                node.col_offset,
                _DEEPCOPY_MESSAGE,
            )


# ----------------------------------------------------------------------
# RC4xx — observability
# ----------------------------------------------------------------------
def _is_probe_receiver(ctx: FileContext, func: ast.AST) -> bool:
    """True for ``<probe-ish>.emit(...)`` call targets.

    Matches the repo's probe-handle naming convention: a bare or dotted
    name whose final component is ``probe``/``probes``/``bus`` or ends in
    ``_probe``/``_bus`` (``self.probe``, ``bus``, ``node.probe``, ...).
    """
    if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
        return False
    name = ctx.resolve(func.value)
    if name is None:
        return False
    leaf = name.split(".")[-1]
    return (
        leaf in ("probe", "probes", "bus")
        or leaf.endswith("_probe")
        or leaf.endswith("_bus")
    )


def _eager_format(node: ast.AST) -> str | None:
    """Kind of eager string formatting, or None."""
    if isinstance(node, ast.JoinedStr):
        return "f-string"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        return "%-formatting"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        if _eager_format(node.left) or _eager_format(node.right):
            return "string concatenation of formatted parts"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "format"
    ):
        return ".format() call"
    return None


@rule("RC401", "eager string formatting in a probe.emit() argument")
def check_probe_lazy_args(ctx: FileContext) -> Iterator[FileFinding]:
    """Probe emissions ride the per-packet/per-hop path of every layer.

    The zero-cost-when-disabled contract only holds for the *enabled* side
    if arguments stay raw: the probe catalogue names each field and
    rendering formats them at export time.  An f-string (or ``%``/
    ``.format``) in the argument list pays string-building on every hop
    and bakes a rendering into the stream that the exporters can no
    longer take apart.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if not _is_probe_receiver(ctx, node.func):
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            kind = _eager_format(arg)
            if kind is not None:
                yield (
                    arg.lineno,
                    arg.col_offset,
                    f"{kind} inside probe.emit() builds the string on the "
                    "hot path; pass raw fields — the probe catalogue "
                    "formats lazily at render/export time",
                )


@rule("RC402", "probe event timestamped outside the bus (sim-time only)")
def check_probe_sim_time(ctx: FileContext) -> Iterator[FileFinding]:
    """The bus stamps every event with ``loop.now`` when it is emitted.

    Constructing a ProbeEvent by hand (outside ``repro/obs/``) or passing
    an ``at=`` keyword to ``emit()`` would let call sites invent
    timestamps — the one thing that must come from the simulation clock
    alone for streams to merge and replays to compare byte-for-byte.
    """
    in_obs = ctx.in_dir("repro/obs/")
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = ctx.resolve(node.func)
        if (
            not in_obs
            and name is not None
            and name.split(".")[-1] == "ProbeEvent"
        ):
            yield (
                node.lineno,
                node.col_offset,
                "ProbeEvent built outside repro/obs/: events are created "
                "by ProbeBus.emit(), which stamps loop.now and the global "
                "ordinal; hand-built events can carry invented timestamps",
            )
        elif _is_probe_receiver(ctx, node.func):
            for kw in node.keywords:
                if kw.arg == "at":
                    yield (
                        kw.value.lineno,
                        kw.value.col_offset,
                        "at= passed to probe.emit(): the bus stamps sim "
                        "time (loop.now) itself; call sites must not "
                        "supply timestamps",
                    )


def _is_contract_rule_decorator(ctx: FileContext, deco: ast.AST) -> bool:
    """True for ``@contract_rule("...")`` (bare or dotted, any alias)."""
    if isinstance(deco, ast.Call):
        deco = deco.func
    name = ctx.resolve(deco)
    return name is not None and name.split(".")[-1] == "contract_rule"


@rule("RC403", "contract-monitor rule reads ambient state (impure)")
def check_monitor_rule_purity(ctx: FileContext) -> Iterator[FileFinding]:
    """Functions registered with ``@contract_rule`` must be pure.

    The monitor evaluates the same rule over live probe streams and over
    replayed/exported ones, and ``repro obs diff`` assumes both produce
    the same alerts.  That only holds if a rule is a pure function of its
    :class:`~repro.obs.monitor.RuleWindow`: no wall clock or entropy, no
    ``global``/``nonlocal`` escape hatches, no attribute writes (mutating
    shared state across evaluations), and no ambient ``.now`` reads — the
    window's ``start``/``end`` are the only clock a rule may consult.
    """
    for fn in ast.walk(ctx.tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not any(
            _is_contract_rule_decorator(ctx, d) for d in fn.decorator_list
        ):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = ctx.resolve(node.func)
                if name in _WALL_CLOCK or name in _ENTROPY:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"{name}() inside contract rule {fn.name}: rules "
                        "are re-evaluated on replay and must be pure "
                        "functions of the RuleWindow",
                    )
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                keyword = (
                    "global" if isinstance(node, ast.Global) else "nonlocal"
                )
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{keyword} in contract rule {fn.name}: rules must not "
                    "carry state between evaluations — derive everything "
                    "from the RuleWindow",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    elts = (
                        target.elts
                        if isinstance(target, (ast.Tuple, ast.List))
                        else [target]
                    )
                    for elt in elts:
                        if isinstance(elt, ast.Attribute):
                            yield (
                                elt.lineno,
                                elt.col_offset,
                                f"attribute write in contract rule "
                                f"{fn.name}: mutating ambient state makes "
                                "live and replayed alert streams disagree",
                            )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "now"
                and isinstance(node.ctx, ast.Load)
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f".now read in contract rule {fn.name}: the window's "
                    "start/end are the only clock a rule may consult",
                )


# ----------------------------------------------------------------------
# RC5xx — spec conformance (rainspec drift gate)
# ----------------------------------------------------------------------
#: One extraction per engine run: every RC5xx rule diffs the same
#: recovered machine, so the work is shared across the six rules.
_SPEC_DRIFT_CACHE: tuple[int, list] | None = None


def _spec_drift(project: Project) -> list:
    """Extract the implemented protocol machine and diff it against
    :data:`repro.spec.protocol.PROTOCOL_SPEC` (memoized per project)."""
    global _SPEC_DRIFT_CACHE
    if _SPEC_DRIFT_CACHE is not None and _SPEC_DRIFT_CACHE[0] == id(project):
        return _SPEC_DRIFT_CACHE[1]
    from repro.spec.extract import diff_against_spec, extract_project

    extraction = extract_project([(ctx.path, ctx.tree) for ctx in project.files])
    findings = diff_against_spec(extraction)
    _SPEC_DRIFT_CACHE = (id(project), findings)
    return findings


def _spec_rule(rule_id: str):
    def checker(project: Project) -> Iterator[ProjectFinding]:
        for f in _spec_drift(project):
            if f.rule == rule_id:
                yield (f.path, f.line, 0, f.message)

    checker.__name__ = f"check_spec_drift_{rule_id.lower()}"
    return checker


_SPEC_RULE_SUMMARIES = {
    "RC501": "registered message kind with no dispatch arm",
    "RC502": "dispatch arm unknown to the spec (or wrong handler)",
    "RC503": "spec exchange not implemented / its arm is missing",
    "RC504": "handler emits drift from the spec",
    "RC505": "handler transitions/guard-states drift from the spec",
    "RC506": "handler delegation drift from the spec",
}

for _rule_id in sorted(_SPEC_RULE_SUMMARIES):
    rule(_rule_id, _SPEC_RULE_SUMMARIES[_rule_id], scope="project")(
        _spec_rule(_rule_id)
    )
