"""Raincore Distributed Data Service (paper Fig. 2, §2.7, §5).

Replicated shared state over the session service's agreed-ordered
multicast: a distributed lock manager and a replicated dictionary — the
building blocks the paper's applications (Virtual IP Manager, Rainwall)
use to share assignment tables and load information.
"""

from repro.data.lock_manager import DistributedLockManager, LockOp
from repro.data.replica import ReplicaBase, SyncRequest
from repro.data.resync import (
    ContinuationPoint,
    LogEntry,
    ResyncAck,
    ResyncDelta,
    ResyncSnapshot,
    Segment,
    SegmentedLog,
)
from repro.data.shared_dict import DictOp, DictSnapshot, SharedDict

__all__ = [
    "ContinuationPoint",
    "LogEntry",
    "ResyncAck",
    "ResyncDelta",
    "ResyncSnapshot",
    "Segment",
    "SegmentedLog",
    "DistributedLockManager",
    "LockOp",
    "ReplicaBase",
    "SyncRequest",
    "DictOp",
    "DictSnapshot",
    "SharedDict",
]
