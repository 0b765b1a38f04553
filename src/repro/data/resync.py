"""Bounded-state session resync: segmented prunable op logs with
certified continuation points.

The paper's reliable multicast and replica layer buffer operations until
they are acknowledged around the ring, so a long partition or a slow
rejoiner grows unbounded catch-up state.  This module adapts tinySSB's
*log burning* / sliding-window-of-bounded-feeds idea to the Raincore Data
Service: each replica keeps its applied-op history in fixed-size,
hash-chained **segments**, and everything before the retained window is
compacted into a **continuation point** — the last pruned sequence number
plus the chain digest at that point.  The chain digest plays the role of
tinySSB's signed continuation:
a peer whose ``(seq, digest)`` pair matches ours *provably* shares our
history prefix, so catch-up needs only the retained tail (O(window)), not
the full history.

Pruning discipline (docs/RESYNC.md):

* a segment **seals** once it holds ``resync_segment_ops`` ops; sealed
  segments are acknowledged around the ring (:class:`ResyncAck` rides the
  agreed-ordered multicast, so every replica sees every ack at the same
  stream position);
* a sealed segment is pruned once **every live view member** has
  acknowledged past its end — the cooperative path;
* when retained bytes exceed ``resync_window_bytes`` anyway, the oldest
  segments are **force-pruned** — the budget is a hard bound, enforced
  live by the ``buffer-bound`` contract rule; peers that fall behind the
  shrunken window degrade to a continuation-point snapshot instead.

Everything here is pure deterministic bookkeeping: no timers, no I/O.
The protocol driving it lives in :mod:`repro.data.replica`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, NamedTuple

from repro.transport.messages import stream_message

__all__ = [
    "GENESIS_DIGEST",
    "chain_digest",
    "LogEntry",
    "Segment",
    "ContinuationPoint",
    "SegmentedLog",
    "ResyncAck",
    "ResyncDelta",
    "ResyncSnapshot",
]

#: Chain digest of the empty history (before the first op).  Sixteen hex
#: chars — 64 bits of the SHA-256 — is plenty for corruption/divergence
#: detection (this is an integrity check, not an adversarial signature).
GENESIS_DIGEST = "0" * 16

_DIGEST_HEX = 16


def chain_digest(prev: str, seq: int, payload: Any, size: int) -> str:
    """Fold one applied op into the rolling hash chain.

    Hashes the *modelled identity* of the op — its type, repr and wire
    size — which is deterministic across same-seed runs (ops are plain
    frozen dataclasses of JSON-safe values).  One link is one SHA-256
    over one concatenated buffer.
    """
    link = f"{prev}{seq}{type(payload).__name__}{payload!r}{size}"
    return sha256(link.encode()).hexdigest()[:_DIGEST_HEX]


class LogEntry(NamedTuple):
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

    ``upto_seq`` is the last pruned sequence number and ``digest`` the
    chain digest at that seq.  Monotone by construction: pruning and
    snapshot adoption only ever move ``upto_seq`` forward (asserted by
    the chaos invariants).
    """

    upto_seq: int
    digest: str


class SegmentedLog:
    """Hash-chained, segment-granular, budget-bounded op log.

    ``head_seq`` / ``head_digest`` are the certified position of the last
    applied op — the continuation point itself when nothing is retained.
    :meth:`append` and :meth:`adopt` maintain them; pruning never moves
    them.
    """

    __slots__ = (
        "segment_ops", "cont", "head_seq", "head_digest",
        "_segments", "_open", "_bytes",
    )

    def __init__(self, segment_ops: int) -> None:
        if segment_ops < 1:
            raise ValueError("segment_ops must be at least 1")
        self.segment_ops = segment_ops
        self.adopt(0, GENESIS_DIGEST)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
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
        self.head_seq = seq
        self.head_digest = digest
        entries = self._open
        if entries is None:
            segment = Segment(base_seq=seq - 1)
            self._segments.append(segment)
            entries = self._open = segment.entries
        entries.append(entry)
        self._bytes += size
        if len(entries) < self.segment_ops:
            return entry, False
        self._segments[-1].sealed = True
        self._open = None
        return entry, True

    def adopt(self, upto_seq: int, digest: str) -> None:
        """Reset onto a continuation point received with a snapshot.

        The snapshot *is* the compacted prefix: everything before it is
        outside our window now, and subsequent appends grow a fresh
        segment aligned on the adopted seq.
        """
        self.cont = ContinuationPoint(upto_seq, digest)
        self.head_seq = upto_seq
        self.head_digest = digest
        self._segments: list[Segment] = []
        self._open: list[LogEntry] | None = None  # the unsealed segment's entries
        self._bytes = 0

    # ------------------------------------------------------------------
    # shrink (the "log burning")
    # ------------------------------------------------------------------
    def prune_to(self, floor_seq: int, state_dig: str = "") -> tuple[int, int]:
        """Drop sealed segments fully acknowledged below ``floor_seq``.

        Returns ``(segments_dropped, bytes_freed)``; advances the
        continuation point to the last dropped entry.  ``state_dig`` is
        vestigial — accepted and ignored for the ledger's microdriver,
        which still passes one.
        """
        dropped = 0
        freed = 0
        while self._segments:
            segment = self._segments[0]
            if not segment.sealed or segment.last_seq > floor_seq:
                break
            freed += self._drop_oldest()
            dropped += 1
        return dropped, freed

    def force_prune(self, budget: int, state_dig: str = "") -> tuple[int, int]:
        """Shed oldest segments until retained bytes fit ``budget``.

        Seals the open segment if that is what it takes: the budget is a
        hard bound, and a shrunken delta window (degrading some peers to
        snapshot resync) beats unbounded memory.  ``state_dig`` is
        vestigial, as in :meth:`prune_to`.
        """
        dropped = 0
        freed = 0
        while self._bytes > budget and self._segments:
            freed += self._drop_oldest()
            dropped += 1
        return dropped, freed

    def _drop_oldest(self) -> int:
        """Burn the oldest segment into the continuation point."""
        segment = self._segments.pop(0)
        if segment.entries is self._open:
            self._open = None
        last = segment.entries[-1]
        self.cont = ContinuationPoint(last.seq, last.digest)
        freed = segment.bytes()
        self._bytes -= freed
        return freed


# ----------------------------------------------------------------------
# wire messages (ride the agreed-ordered multicast)
# ----------------------------------------------------------------------
@stream_message
@dataclass(frozen=True)
class ResyncAck:
    """A replica certifying its applied position ``(seq, digest)``.

    Multicast on segment seal, on view growth and after installing a
    snapshot or delta.  Every member delivers every ack at the same
    stream position, so prune decisions are replica-deterministic.
    """

    service: str
    sender: str
    seq: int
    digest: str

    def wire_size(self) -> int:
        return 24 + len(self.service) + len(self.digest)


@stream_message
@dataclass(frozen=True)
class ResyncDelta:
    """Certified catch-up for an in-window peer: the retained tail after
    its certified position.  Materialized at token-attach time, so the
    entries cover exactly the ops ordered before the delta itself."""

    service: str
    target: str
    from_seq: int
    from_digest: str
    entries: tuple[LogEntry, ...]

    def wire_size(self) -> int:
        return 32 + len(self.service) + sum(e.size + 24 for e in self.entries)


@stream_message
@dataclass(frozen=True)
class ResyncSnapshot:
    """Continuation-point state transfer: the service snapshot plus the
    sender's certified position, so the receiver can adopt the chain and
    serve (and certify) future resyncs itself."""

    service: str
    inner: Any
    applied_seq: int
    digest: str

    def wire_size(self) -> int:
        inner_size = getattr(self.inner, "wire_size", lambda: 64)()
        return 32 + len(self.service) + int(inner_size)
