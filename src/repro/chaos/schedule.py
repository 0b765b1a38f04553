"""Fault schedules: the unit the chaos engine generates, runs and shrinks.

A schedule is a seeded, fully explicit plan: the cluster parameters plus a
time-ordered list of :class:`FaultOp` records, each a JSON-serializable
``(at, kind, args)`` triple.  Everything else in a chaos run — packet loss
draws, background load, protocol timing — is derived from the event loop's
seeded RNG, so *schedule + seed is the complete reproducer*.  The JSON
rendering is canonical (sorted keys, rounded floats), which gives the
byte-identical-trace property the campaign engine asserts.

Op kinds and their arguments:

======================  =============================================
``crash``               ``[node]``
``recover``             ``[node]``
``cut_link``            ``[a, b]``
``restore_link``        ``[a, b]``
``partition``           ``[[group...], [group...]]``
``heal_partition``      ``[]``
``long_partition``      ``[[node...], duration]``  (isolates the named
                        nodes from the rest, heals after ``duration``)
``unplug``              ``[node, segment_index]``
``replug``              ``[node, segment_index]``
``flap_nic``            ``[node, segment_index, period, duration]``
``lose_token``          ``[]``
``lose_token_in_flight``  ``[timeout]``
``false_alarm``         ``[accuser, victim]``
``ack_blackout``        ``[src, dst, duration]``
``forge_duplicate_token``  ``[]``
``duplicate``           ``[segment, prob]``  (``prob 0.0`` switches off)
``burst``               ``[segment, p_enter, p_exit, loss_bad]``
``burst_off``           ``[segment]``
``spike``               ``[segment, prob, extra]``
``spike_off``           ``[segment]``
======================  =============================================

``at`` is virtual seconds after the cluster finished forming.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass, field

__all__ = ["FaultOp", "ChaosParams", "Schedule", "node_names", "segment_names"]

TRACE_FORMAT = "raincore-chaos-trace"
TRACE_VERSION = 1

#: The argument types of each op kind, in order: ``name`` a string,
#: ``names`` a list of strings, ``int`` an integer, ``number`` an int or
#: float that is finite as a float.  ``partition`` takes one or more
#: ``names`` groups.  Replay refuses an op that does not match, so a
#: hand-edited trace fails to load instead of failing inside the engine.
OP_ARGS: dict[str, tuple[str, ...]] = {
    "crash": ("name",),
    "recover": ("name",),
    "cut_link": ("name", "name"),
    "restore_link": ("name", "name"),
    "partition": ("names", "names"),
    "heal_partition": (),
    "long_partition": ("names", "number"),
    "unplug": ("name", "int"),
    "replug": ("name", "int"),
    "flap_nic": ("name", "int", "number", "number"),
    "lose_token": (),
    "lose_token_in_flight": ("number",),
    "false_alarm": ("name", "name"),
    "ack_blackout": ("name", "name", "number"),
    "forge_duplicate_token": (),
    "duplicate": ("name", "number"),
    "burst": ("name", "number", "number", "number"),
    "burst_off": ("name",),
    "spike": ("name", "number", "number"),
    "spike_off": ("name",),
}

#: Op kinds a generator may emit; replay validates against this set.
OP_KINDS = frozenset(OP_ARGS)

#: Trace params: (field, type as in :data:`OP_ARGS` or ``bool``, required).
_PARAM_TYPES = (
    ("nodes", "int", True),
    ("seconds", "number", True),
    ("seed", "int", True),
    ("segments", "int", False),
    ("intensity", "number", False),
    ("strict", "bool", False),
)


def _conforms(value: object, kind: str) -> bool:
    """Whether a loaded JSON value has the trace type ``kind``."""
    if kind == "name":
        return isinstance(value, str)
    if kind == "names":
        return isinstance(value, (list, tuple)) and all(
            isinstance(v, str) for v in value
        )
    if kind == "bool":
        return isinstance(value, bool)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if kind == "int":
        return isinstance(value, int)
    return abs(value) <= sys.float_info.max  # "number"


def node_names(n: int) -> list[str]:
    """The engine's canonical node naming (matches the soak scenarios)."""
    return [f"n{i:02d}" for i in range(n)]


def segment_names(n: int) -> list[str]:
    return [f"net{k}" for k in range(n)]


def _r(x: float) -> float:
    """Round a generated float so the in-memory schedule equals its JSON."""
    return round(float(x), 6)


@dataclass(frozen=True)
class FaultOp:
    """One scheduled fault injection."""

    at: float
    kind: str
    args: tuple = ()

    def to_obj(self) -> dict:
        return {"at": self.at, "kind": self.kind, "args": _args_to_obj(self.args)}

    @classmethod
    def from_obj(cls, obj: object) -> "FaultOp":
        """Validate one trace op; raises ``ValueError`` on any mismatch."""
        if not isinstance(obj, dict):
            raise ValueError(f"fault op must be an object, got {type(obj).__name__}")
        kind, at, args = obj.get("kind"), obj.get("at"), obj.get("args")
        if not isinstance(kind, str) or kind not in OP_ARGS:
            raise ValueError(f"unknown fault op kind {kind!r}")
        if not _conforms(at, "number"):
            raise ValueError(f"{kind} op: 'at' must be a finite number")
        if not isinstance(args, (list, tuple)):
            raise ValueError(f"{kind} op: 'args' must be a list")
        expected = OP_ARGS[kind]
        if kind == "partition":
            expected = ("names",) * max(1, len(args))
        if len(args) != len(expected) or not all(map(_conforms, args, expected)):
            raise ValueError(f"{kind} op takes args ({', '.join(expected)})")
        return cls(at=float(at), kind=kind, args=_args_from_obj(args))


def _args_to_obj(args):
    return [list(a) if isinstance(a, tuple) else a for a in args]


def _args_from_obj(args):
    return tuple(tuple(a) if isinstance(a, list) else a for a in args)


@dataclass(frozen=True)
class ChaosParams:
    """Cluster and campaign knobs carried inside the trace, so a replay
    reconstructs the identical environment."""

    nodes: int
    seconds: float
    seed: int
    segments: int = 2
    intensity: float = 1.0  #: scales the fault event rate
    strict: bool = False  #: strict InvariantMonitor (no double-token grace)

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise ValueError("chaos needs at least two nodes")
        if not 0.0 < self.seconds < math.inf:
            # The chained comparison also rejects NaN.
            raise ValueError(
                f"seconds must be positive and finite, got {self.seconds}"
            )
        if self.segments < 1:
            raise ValueError("need at least one segment")
        if not 0.0 <= self.intensity < math.inf:
            raise ValueError(
                f"intensity must be non-negative and finite, got {self.intensity}"
            )

    def to_obj(self) -> dict:
        return {
            "nodes": self.nodes,
            "seconds": self.seconds,
            "seed": self.seed,
            "segments": self.segments,
            "intensity": self.intensity,
            "strict": self.strict,
        }

    @classmethod
    def from_obj(cls, obj: object) -> "ChaosParams":
        """Validate trace params; raises ``ValueError`` on any mismatch."""
        if not isinstance(obj, dict):
            raise ValueError(f"trace params must be an object, got {type(obj).__name__}")
        for key, kind, required in _PARAM_TYPES:
            if key in obj:
                if not _conforms(obj[key], kind):
                    raise ValueError(f"trace param {key!r} must be {kind}")
            elif required:
                raise ValueError(f"trace params lack {key!r}")
        return cls(
            nodes=obj["nodes"],
            seconds=float(obj["seconds"]),
            seed=obj["seed"],
            segments=obj.get("segments", 2),
            intensity=float(obj.get("intensity", 1.0)),
            strict=obj.get("strict", False),
        )


@dataclass
class Schedule:
    """A complete, replayable chaos plan: params + time-ordered fault ops."""

    params: ChaosParams
    ops: list[FaultOp] = field(default_factory=list)

    # ------------------------------------------------------------------
    # trace (de)serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Canonical JSON trace: same schedule ⇒ byte-identical text."""
        obj = {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "params": self.params.to_obj(),
            "ops": [op.to_obj() for op in self.ops],
        }
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        """Parse a trace.  Anything malformed — not JSON, nested too deep
        for the parser, a foreign document, a missing or mistyped field —
        raises ``ValueError``."""
        try:
            obj = json.loads(text)
            if not isinstance(obj, dict) or obj.get("format") != TRACE_FORMAT:
                raise ValueError("not a raincore chaos trace")
            if obj.get("version") != TRACE_VERSION:
                raise ValueError(f"unsupported trace version {obj.get('version')!r}")
            ops = obj.get("ops")
            if not isinstance(ops, list):
                raise ValueError("trace 'ops' must be a list")
            return cls(
                params=ChaosParams.from_obj(obj.get("params")),
                ops=[FaultOp.from_obj(o) for o in ops],
            )
        except RecursionError as exc:
            raise ValueError("trace JSON is nested too deeply to load") from exc

    def with_ops(self, ops: list[FaultOp]) -> "Schedule":
        """Same environment, different op list (the shrinker's move)."""
        return Schedule(params=self.params, ops=list(ops))

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------
    @classmethod
    def generate(cls, params: ChaosParams) -> "Schedule":
        """Draw a randomized schedule from the seeded op palette.

        The generator keeps a coarse plan-time model of cluster state
        (which nodes it has scheduled down, whether a partition is open,
        which segments already run an adversity) so schedules stay *fair*:
        faults always leave the protocol a recovery path, which is what
        makes a clean campaign the expected outcome and any failure a
        finding.  Uses its own RNG stream, independent of the run RNG, so
        schedule identity depends only on ``params``.
        """
        rng = random.Random(f"{TRACE_FORMAT}-{params.seed}")
        gen = _Generator(params, rng)
        return cls(params=params, ops=gen.build())


class _Generator:
    """Stateful single-use schedule builder (see :meth:`Schedule.generate`)."""

    #: (kind, weight) palette; fallbacks keep infeasible draws harmless.
    #: ``forge_duplicate_token`` is deliberately absent: it plants a
    #: protocol-unreachable state (two tokens with *identical* membership,
    #: which the seq guard cannot absorb — real duplicates always carry
    #: divergent rings), so it is a fixture op for shrink/replay tests,
    #: not part of the fair-schedule space.  ``long_partition`` is also
    #: absent: it is the resync soak's explicit primitive (CLI/tests); a
    #: fair schedule reaches the same state via ``partition`` + heal.
    PALETTE = [
        ("crash", 14),
        ("partition", 8),
        ("cut_link", 10),
        ("unplug", 6),
        ("flap_nic", 7),
        ("lose_token", 5),
        ("lose_token_in_flight", 4),
        ("false_alarm", 7),
        ("ack_blackout", 7),
        ("duplicate", 10),
        ("burst", 8),
        ("spike", 8),
    ]

    def __init__(self, params: ChaosParams, rng: random.Random) -> None:
        self.params = params
        self.rng = rng
        self.ids = node_names(params.nodes)
        self.segs = segment_names(params.segments)
        self.ops: list[FaultOp] = []
        self.down_until: dict[str, float] = {}
        self.partition_until = 0.0
        self.seg_busy: dict[str, float] = {s: 0.0 for s in self.segs}

    def build(self) -> list[FaultOp]:
        horizon = self.params.seconds
        n_events = max(2, int(horizon * 0.5 * self.params.intensity))
        lead_in = min(0.3, horizon / 4.0)
        times = sorted(
            _r(self.rng.uniform(lead_in, max(lead_in * 1.5, horizon - 0.3)))
            for _ in range(n_events)
        )
        kinds = [k for k, _ in self.PALETTE]
        weights = [w for _, w in self.PALETTE]
        for t in times:
            kind = self.rng.choices(kinds, weights)[0]
            getattr(self, f"_gen_{kind}")(t)
        self.ops.sort(key=lambda op: (op.at, op.kind, repr(op.args)))
        return self.ops

    # -- helpers -------------------------------------------------------
    def _emit(self, at: float, kind: str, *args) -> None:
        self.ops.append(FaultOp(at=_r(at), kind=kind, args=tuple(args)))

    def _window(self, t: float, lo: float, hi: float) -> float:
        """End time for a paired fault starting at ``t``: uniform duration
        clamped so the 'off' op lands inside the run."""
        end = t + self.rng.uniform(lo, hi)
        return _r(min(end, self.params.seconds - 0.05))

    def _up_nodes(self, t: float) -> list[str]:
        return [n for n in self.ids if self.down_until.get(n, 0.0) <= t]

    # -- op generators -------------------------------------------------
    def _gen_crash(self, t: float) -> None:
        up = self._up_nodes(t)
        planned_down = len(self.ids) - len(up)
        if planned_down >= max(1, len(self.ids) // 3) or len(up) <= 2:
            self._gen_lose_token(t)
            return
        node = self.rng.choice(up)
        end = self._window(t, 1.0, 4.0)
        self._emit(t, "crash", node)
        if end > t:
            self._emit(end, "recover", node)
            self.down_until[node] = end
        else:
            self.down_until[node] = self.params.seconds

    def _gen_partition(self, t: float) -> None:
        if self.partition_until > t:
            self._gen_cut_link(t)
            return
        shuffled = self.ids[:]
        self.rng.shuffle(shuffled)
        cut = self.rng.randrange(1, len(shuffled))
        end = self._window(t, 1.0, 3.0)
        self._emit(t, "partition", tuple(sorted(shuffled[:cut])), tuple(sorted(shuffled[cut:])))
        if end > t:
            self._emit(end, "heal_partition")
        self.partition_until = max(end, t + 0.5)

    def _gen_cut_link(self, t: float) -> None:
        a, b = self.rng.sample(self.ids, 2)
        end = self._window(t, 0.5, 2.0)
        self._emit(t, "cut_link", a, b)
        if end > t:
            self._emit(end, "restore_link", a, b)

    def _gen_unplug(self, t: float) -> None:
        if self.params.segments < 2:
            self._gen_lose_token(t)
            return
        node = self.rng.choice(self.ids)
        seg_idx = self.rng.randrange(self.params.segments)
        end = self._window(t, 0.5, 2.0)
        self._emit(t, "unplug", node, seg_idx)
        if end > t:
            self._emit(end, "replug", node, seg_idx)

    def _gen_flap_nic(self, t: float) -> None:
        node = self.rng.choice(self.ids)
        seg_idx = self.rng.randrange(self.params.segments)
        period = _r(self.rng.uniform(0.1, 0.3))
        duration = _r(
            max(0.2, min(self.rng.uniform(0.5, 2.0), self.params.seconds - t - 0.1))
        )
        self._emit(t, "flap_nic", node, seg_idx, period, duration)

    def _gen_lose_token(self, t: float) -> None:
        self._emit(t, "lose_token")

    def _gen_lose_token_in_flight(self, t: float) -> None:
        self._emit(t, "lose_token_in_flight", 0.5)

    def _gen_false_alarm(self, t: float) -> None:
        accuser, victim = self.rng.sample(self.ids, 2)
        self._emit(t, "false_alarm", accuser, victim)

    def _gen_ack_blackout(self, t: float) -> None:
        src, dst = self.rng.sample(self.ids, 2)
        self._emit(t, "ack_blackout", src, dst, _r(self.rng.uniform(0.2, 0.6)))

    def _free_segment(self, t: float) -> str | None:
        free = [s for s in self.segs if self.seg_busy[s] <= t]
        return self.rng.choice(free) if free else None

    def _gen_duplicate(self, t: float) -> None:
        seg = self._free_segment(t)
        if seg is None:
            self._gen_lose_token(t)
            return
        end = self._window(t, 1.0, 4.0)
        self._emit(t, "duplicate", seg, _r(self.rng.uniform(0.05, 0.3)))
        if end > t:
            self._emit(end, "duplicate", seg, 0.0)
        self.seg_busy[seg] = max(end, t + 0.5)

    def _gen_burst(self, t: float) -> None:
        seg = self._free_segment(t)
        if seg is None:
            self._gen_lose_token(t)
            return
        end = self._window(t, 1.0, 3.0)
        self._emit(
            t,
            "burst",
            seg,
            _r(self.rng.uniform(0.02, 0.1)),
            _r(self.rng.uniform(0.2, 0.5)),
            _r(self.rng.uniform(0.7, 1.0)),
        )
        if end > t:
            self._emit(end, "burst_off", seg)
        self.seg_busy[seg] = max(end, t + 0.5)

    def _gen_spike(self, t: float) -> None:
        seg = self._free_segment(t)
        if seg is None:
            self._gen_lose_token(t)
            return
        end = self._window(t, 1.0, 3.0)
        self._emit(
            t,
            "spike",
            seg,
            _r(self.rng.uniform(0.02, 0.1)),
            _r(self.rng.uniform(0.02, 0.08)),
        )
        if end > t:
            self._emit(end, "spike_off", seg)
        self.seg_busy[seg] = max(end, t + 0.5)
