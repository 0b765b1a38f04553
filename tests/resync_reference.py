"""The parent's segmented log and prune rule, kept as the test reference.

This is ``repro.data.resync`` as it stood before the log was made to cost
what an op costs: ``chain_digest`` feeding SHA-256 in five updates,
``LogEntry`` a frozen dataclass, ``head_seq`` / ``head_digest`` re-derived
by walking the segments, a continuation point that carries a digest of the
whole replica state, and the cooperative prune taking ``min()`` over every
member's ack before looking at the horizon.  Standalone on purpose: it
imports nothing from ``repro.data``, so the production module can change
under it.  ``tests/test_resync_equivalence.py`` drives both with the same
schedules and demands equal answers, digests bit for bit.  ``DictOp`` and
``NatOp`` are here for their generated ``__repr__``, which those digests
hash.

The replica's data path is here too, as it stood before an op carried its
own size and chain identity: ``reference_on_deliver`` routes through four
``isinstance`` arms after an ``isinstance`` op check, and
``reference_apply_and_log`` prices every op again at every replica with
the parent's size model (:func:`wire_size`), so the log hashes an identity
rebuilt from the op's repr rather than the one the op carries.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

#: Chain digest of the empty history (before the first op).  Sixteen hex
#: chars — 64 bits of the SHA-256 — is plenty for corruption/divergence
#: detection (this is an integrity check, not an adversarial signature).
GENESIS_DIGEST = "0" * 16

_DIGEST_HEX = 16


def chain_digest(prev: str, seq: int, payload: Any, size: int) -> str:
    """Fold one applied op into the rolling hash chain.

    Hashes the *modelled identity* of the op — its type, repr and wire
    size — which is deterministic across same-seed runs (ops are plain
    frozen dataclasses of JSON-safe values).
    """
    h = hashlib.sha256()
    h.update(prev.encode())
    h.update(str(seq).encode())
    h.update(type(payload).__name__.encode())
    h.update(repr(payload).encode())
    h.update(str(size).encode())
    return h.hexdigest()[:_DIGEST_HEX]


def state_digest(snapshot_payload: Any) -> str:
    """Digest of a compacted prefix state (the certified part of a
    continuation point).  Uses the snapshot payload's repr — frozen
    dataclasses of deterministic values, like ops."""
    h = hashlib.sha256()
    h.update(type(snapshot_payload).__name__.encode())
    h.update(repr(snapshot_payload).encode())
    return h.hexdigest()[:_DIGEST_HEX]


@dataclass(frozen=True)
class LogEntry:
    """One applied op retained in the prunable window.

    ``digest`` is the chain digest *after* applying this entry, so an ack
    carrying ``(seq, digest)`` certifies the whole prefix up to ``seq``.
    """

    seq: int
    payload: Any
    size: int
    digest: str


@dataclass
class Segment:
    """A run of consecutive log entries, pruned as a unit."""

    base_seq: int  # entries cover seqs (base_seq, base_seq + len]
    entries: list[LogEntry] = field(default_factory=list)
    sealed: bool = False

    @property
    def last_seq(self) -> int:
        return self.entries[-1].seq if self.entries else self.base_seq

    def bytes(self) -> int:
        return sum(e.size for e in self.entries)


@dataclass(frozen=True)
class ContinuationPoint:
    """The certified compaction horizon of a segmented log.

    ``upto_seq`` is the last pruned sequence number, ``digest`` the chain
    digest at that seq, and ``state_digest`` the digest of the compacted
    prefix state at the most recent compaction.  Monotone by construction:
    pruning and snapshot adoption only ever move ``upto_seq`` forward
    (asserted by the chaos invariants).
    """

    upto_seq: int
    digest: str
    state_digest: str


class SegmentedLog:
    """Hash-chained, segment-granular, budget-bounded op log."""

    __slots__ = ("segment_ops", "cont", "_segments", "_bytes")

    def __init__(self, segment_ops: int) -> None:
        if segment_ops < 1:
            raise ValueError("segment_ops must be at least 1")
        self.segment_ops = segment_ops
        self.cont = ContinuationPoint(0, GENESIS_DIGEST, "")
        self._segments: list[Segment] = []
        self._bytes = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def head_seq(self) -> int:
        if self._segments:
            return self._segments[-1].last_seq
        return self.cont.upto_seq

    @property
    def head_digest(self) -> str:
        for segment in reversed(self._segments):
            if segment.entries:
                return segment.entries[-1].digest
        return self.cont.digest

    def buffered_bytes(self) -> int:
        """Retained window size in modelled bytes (incremental)."""
        return self._bytes

    def segment_count(self) -> int:
        return len(self._segments)

    def digest_at(self, seq: int) -> str | None:
        """Chain digest at ``seq`` if certifiable, else None.

        Certifiable means: exactly the continuation point, or a retained
        entry.  ``None`` marks an out-of-window (or never-seen) position —
        the degradation ladder then falls back to a snapshot.
        """
        if seq == self.cont.upto_seq:
            return self.cont.digest
        if seq < self.cont.upto_seq:
            return None
        for segment in self._segments:
            if seq <= segment.base_seq:
                return None  # gap (cannot happen with contiguous appends)
            if seq <= segment.last_seq:
                return segment.entries[seq - segment.base_seq - 1].digest
        return None  # ahead of our head: we cannot vouch for it

    def entries_after(self, seq: int) -> list[LogEntry]:
        """The retained tail strictly after ``seq`` (the delta payload)."""
        tail: list[LogEntry] = []
        for segment in self._segments:
            if segment.last_seq <= seq:
                continue
            for entry in segment.entries:
                if entry.seq > seq:
                    tail.append(entry)
        return tail

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------
    def append(self, payload: Any, size: int) -> tuple[LogEntry, bool]:
        """Append the next applied op; returns ``(entry, sealed)``.

        ``sealed`` is True when this append completed a segment — the
        replica acknowledges its position around the ring at that moment.
        """
        seq = self.head_seq + 1
        digest = chain_digest(self.head_digest, seq, payload, size)
        entry = LogEntry(seq, payload, size, digest)
        if not self._segments or self._segments[-1].sealed:
            self._segments.append(Segment(base_seq=seq - 1))
        segment = self._segments[-1]
        segment.entries.append(entry)
        self._bytes += size
        sealed = len(segment.entries) >= self.segment_ops
        if sealed:
            segment.sealed = True
        return entry, sealed

    def adopt(self, upto_seq: int, digest: str, state_dig: str) -> None:
        """Reset onto a continuation point received with a snapshot.

        The snapshot *is* the compacted prefix: everything before it is
        outside our window now, and subsequent appends grow a fresh
        segment aligned on the adopted seq.
        """
        self.cont = ContinuationPoint(upto_seq, digest, state_dig)
        self._segments = []
        self._bytes = 0

    # ------------------------------------------------------------------
    # shrink (the "log burning")
    # ------------------------------------------------------------------
    def prune_to(self, floor_seq: int, state_dig: str) -> tuple[int, int]:
        """Drop sealed segments fully acknowledged below ``floor_seq``.

        Returns ``(segments_dropped, bytes_freed)``; advances the
        continuation point to the last dropped entry.
        """
        dropped = 0
        freed = 0
        while self._segments:
            segment = self._segments[0]
            if not segment.sealed or segment.last_seq > floor_seq:
                break
            freed += segment.bytes()
            last = segment.entries[-1]
            self.cont = ContinuationPoint(last.seq, last.digest, state_dig)
            self._segments.pop(0)
            dropped += 1
        self._bytes -= freed
        return dropped, freed

    def force_prune(self, budget: int, state_dig: str) -> tuple[int, int]:
        """Shed oldest segments until retained bytes fit ``budget``.

        Seals the open segment if that is what it takes: the budget is a
        hard bound, and a shrunken delta window (degrading some peers to
        snapshot resync) beats unbounded memory.
        """
        dropped = 0
        freed = 0
        while self._bytes - freed > budget and self._segments:
            segment = self._segments[0]
            segment.sealed = True
            freed += segment.bytes()
            last = segment.entries[-1]
            self.cont = ContinuationPoint(last.seq, last.digest, state_dig)
            self._segments.pop(0)
            dropped += 1
        self._bytes -= freed
        return dropped, freed


@dataclass(frozen=True)
class DictOp:
    """``repro.data.shared_dict.DictOp`` with the repr ``@dataclass``
    generates (same class name, so the same string)."""

    kind: str
    key: str
    value: object


@dataclass(frozen=True)
class NatOp:
    """``repro.apps.nat.NatOp`` with its declared fields and generated repr."""

    kind: str
    flow_id: int
    client: str
    requester: str


def estimate_size(obj: object) -> int:
    """The parent's crude wire-size model for replicated values."""
    if isinstance(obj, (bytes, bytearray, str)):
        return len(obj)
    if isinstance(obj, dict):
        return sum(estimate_size(k) + estimate_size(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(estimate_size(v) for v in obj)
    return 8


def wire_size(op: Any) -> int:
    """The parent's ``wire_size()`` of a dictionary or NAT op, priced from
    its fields (the production op now returns the size it was built with)."""
    name = type(op).__name__
    if name == "DictOp":
        return 16 + len(op.key) + estimate_size(op.value)
    if name == "NatOp":
        return 24 + len(op.client)
    return 64 if getattr(op, "wire_size", None) is None else int(op.wire_size())


def reference_on_deliver(replica: Any, delivery: Any) -> None:
    """``ReplicaBase.on_deliver`` as the parent had it; its ``_is_op`` hook
    was ``isinstance`` against the service's op type."""
    from repro.data.replica import SyncRequest
    from repro.data.resync import ResyncAck, ResyncDelta, ResyncSnapshot

    self = replica
    payload = delivery.payload
    if isinstance(payload, self.OP):
        if self._synced:
            self._apply_and_log(payload)
        else:
            self._buffer.append(payload)
        return
    if isinstance(payload, ResyncSnapshot):
        if payload.service == self.SERVICE:
            self._handle_snapshot(payload)
        return
    if isinstance(payload, ResyncDelta):
        if payload.service == self.SERVICE:
            self._handle_delta(payload)
        return
    if isinstance(payload, ResyncAck):
        if payload.service == self.SERVICE:
            self._handle_ack(payload)
        return
    if isinstance(payload, SyncRequest):
        if payload.service == self.SERVICE:
            self._handle_sync_request(payload)


def reference_apply_and_log(replica: Any, op: Any) -> None:
    """``ReplicaBase._apply_and_log`` as the parent had it: the op is priced
    here, and the log derives its chain identity from it again."""
    self = replica
    self._apply_op(op)
    self._applied_seq += 1
    log = self._log
    _entry, sealed = log.append(op, wire_size(op))
    if sealed:
        self._multicast_ack()
    node = self.node
    if log.buffered_bytes() > node.config.resync_window_bytes:
        self._enforce_budget()
    if node.probe is not None:
        self._emit_buffer_level()


def reference_maybe_prune(replica: Any) -> None:
    """``ReplicaBase._maybe_prune`` as the parent had it (``replica._log``
    must be a reference :class:`SegmentedLog`)."""
    self = replica
    members = self.node.members
    if not members or not self._synced:
        return
    floor = min(self._acked.get(m, (0, ""))[0] for m in members)
    if floor <= self._log.cont.upto_seq:
        return
    dropped, freed = self._log.prune_to(
        floor, state_digest(self._snapshot_payload())
    )
    if dropped:
        self._emit_prune(dropped, freed, forced=False)
        self._emit_buffer_level()
