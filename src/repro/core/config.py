"""Protocol timing configuration for the Raincore Distributed Session Service.

All the paper's behaviours are driven by a handful of timers:

* the **token hop interval** — "a TOKEN is a message that is being passed at
  a regular time interval from one node to the next node in the ring"
  (paper §2.2);
* the **HUNGRY timeout** — how long a node waits for the token before
  suspecting token loss and entering STARVING (paper §2.3);
* the **BODYODOR interval** — the low-frequency discovery beacon period
  (paper §2.4).

The defaults model the paper's environment: a low-latency switched LAN where
the token circulates tens of times per second.  :meth:`RaincoreConfig.tuned`
derives safe timeouts from the expected ring size, which is how a deployment
would provision them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.transport.reliable import TransportConfig

__all__ = ["RaincoreConfig"]


@dataclass(frozen=True)
class RaincoreConfig:
    """Timing and policy knobs for one Raincore node.

    Attributes
    ----------
    hop_interval:
        Seconds a node holds the token before forwarding it.  With N nodes
        the token makes ``1 / (N * hop_interval)`` roundtrips per second —
        the paper's *L*.
    hungry_timeout:
        Seconds in HUNGRY before entering STARVING and firing the 911
        protocol.  Must comfortably exceed one full ring traversal plus the
        transport's failure-detection bound, otherwise healthy operation
        triggers spurious 911 rounds.
    starving_backoff:
        Seconds to wait after a denied 911 round before trying again (the
        token is probably on its way).
    join_retry:
        Seconds a joining node waits for the token after its join-911 was
        accepted before asking again.
    bodyodor_interval:
        Discovery beacon period; "a small message sent with a regular, but
        low frequency, so that it does not impose a major overhead"
        (paper §2.4).
    max_batch_per_visit:
        Upper bound on how many queued multicast messages a node attaches
        per token visit; bounds token growth under bursty load.
    max_token_bytes:
        Flow control: a node stops attaching once the token's modelled wire
        size would exceed this budget (already-attached messages always
        ride).  Keeps the token within datagram-friendly sizes under load,
        the same role Totem's flow control plays; deferred messages attach
        on later visits.
    resync_window_bytes:
        Hard per-replica budget for the retained (prunable) op log that
        serves delta resync (docs/RESYNC.md).  Segments acknowledged by
        every live view member are pruned normally; when the retained
        bytes would exceed this budget anyway, the oldest segments are
        force-pruned — shrinking the delta window instead of growing
        memory.  ``0`` disables the window entirely: every resync attempt
        is out-of-window and the requester is quarantined immediately.
    resync_segment_ops:
        Ops per log segment.  A segment seals (and is acknowledged around
        the ring) once it holds this many ops; pruning is segment-granular.
    transport:
        Timing for the underlying Raincore Transport Service.
    """

    hop_interval: float = 0.010
    hungry_timeout: float = 0.500
    starving_backoff: float = 0.150
    join_retry: float = 0.400
    bodyodor_interval: float = 1.0
    max_batch_per_visit: int = 64
    max_token_bytes: int = 60_000  #: within a jumbo UDP datagram
    resync_window_bytes: int = 65_536
    resync_segment_ops: int = 32
    transport: TransportConfig = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.transport is None:
            object.__setattr__(self, "transport", TransportConfig())
        for name in (
            "hop_interval",
            "hungry_timeout",
            "starving_backoff",
            "join_retry",
            "bodyodor_interval",
        ):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.max_batch_per_visit < 1:
            raise ValueError("max_batch_per_visit must be at least 1")
        if self.max_token_bytes < 1024:
            raise ValueError("max_token_bytes must be at least 1024")
        if self.resync_window_bytes < 0:
            raise ValueError("resync_window_bytes must be non-negative")
        if self.resync_segment_ops < 1:
            raise ValueError("resync_segment_ops must be at least 1")

    @classmethod
    def tuned(
        cls,
        ring_size: int,
        hop_interval: float = 0.010,
        transport: TransportConfig | None = None,
        **overrides,
    ) -> "RaincoreConfig":
        """Derive safe timeouts for an expected ring size.

        The HUNGRY timeout is set to three full ring traversals plus the
        transport failure bound: long enough that one slow hop or one
        failure detection does not trigger a spurious 911, short enough
        that token regeneration stays well under the paper's two-second
        fail-over budget.
        """
        if ring_size < 1:
            raise ValueError("ring_size must be at least 1")
        tcfg = transport if transport is not None else TransportConfig()
        traversal = ring_size * hop_interval
        hungry = 3.0 * traversal + 2.0 * tcfg.failure_detection_bound()
        cfg = cls(
            hop_interval=hop_interval,
            hungry_timeout=hungry,
            starving_backoff=max(1.5 * traversal, 0.05),
            join_retry=max(2.0 * traversal, 0.1),
            transport=tcfg,
        )
        if overrides:
            cfg = replace(cfg, **overrides)
        return cfg
