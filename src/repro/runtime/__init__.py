"""Real-time runtime: the protocol stack over asyncio + real UDP sockets.

The session service is driver-agnostic: it consumes a scheduler (``now`` /
``call_later`` / ``call_at`` / ``rng``) and a datagram fabric (``bind`` / ``send`` /
``topology`` / ``stats``).  :class:`AsyncioScheduler` and
:class:`UdpFabric` provide real-time implementations so the identical
protocol code that runs deterministically in the simulator also runs on
localhost UDP — see ``examples/asyncio_udp_demo.py``.

On top of that sits **raintap**, the live telemetry plane
(docs/TELEMETRY.md): :mod:`repro.runtime.telemetry` ships each worker's
probe events over a versioned JSON sidecar channel,
:mod:`repro.runtime.collector` merges the per-worker streams into one
watermarked feed and runs the wall-clock contract monitor, rollups,
``/metrics`` exposition, capture files, and breach postmortems over it.
"""

from repro.runtime.collector import LiveCluster, LiveRunResult, TelemetryCollector
from repro.runtime.scheduler import AsyncioScheduler
from repro.runtime.telemetry import TelemetryShipper, WallClock
from repro.runtime.udp import UdpFabric

__all__ = [
    "AsyncioScheduler",
    "LiveCluster",
    "LiveRunResult",
    "TelemetryCollector",
    "TelemetryShipper",
    "UdpFabric",
    "WallClock",
]
