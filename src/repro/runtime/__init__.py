"""Real-time runtime: the protocol stack over asyncio + real UDP sockets.

The session service is driver-agnostic: it consumes a scheduler (``now`` /
``call_later`` / ``call_at`` / ``rng``) and a datagram fabric (``bind`` / ``send`` /
``topology`` / ``stats``).  :class:`AsyncioScheduler` and
:class:`UdpFabric` provide real-time implementations so the identical
protocol code that runs deterministically in the simulator also runs on
localhost UDP — see ``examples/asyncio_udp_demo.py``.  They are the only
names this package exports, so importing it does not load raintap,
:mod:`repro.obs` or :mod:`repro.spec`.

**raintap**, the live telemetry plane (docs/TELEMETRY.md), lives in its
own modules; import its names from them:

* :mod:`repro.runtime.telemetry` — ``TelemetryShipper`` and ``WallClock``:
  each worker's probe events over a versioned, typed binary sidecar channel
  (RTAP v3).
* :mod:`repro.runtime.collector` — ``TelemetryCollector``, ``LiveCluster``
  and ``LiveRunResult``: the per-worker streams merged into one watermarked
  feed, with the wall-clock contract monitor, rollups, ``/metrics``
  exposition, capture files, and breach postmortems over it.
"""

from repro.runtime.scheduler import AsyncioScheduler
from repro.runtime.udp import UdpFabric

__all__ = ["AsyncioScheduler", "UdpFabric"]
