"""Simulated network substrate for the Raincore reproduction.

The paper runs on real switched Fast Ethernet with UDP; we substitute a
deterministic discrete-event simulation that exposes the same interface the
protocols consume — an unreliable unicast datagram service plus timers — and
adds controllable fault injection (loss, link cuts, partitions, crashes).
See DESIGN.md §2 for the substitution argument.
"""

from repro.net.adversity import GilbertElliott
from repro.net.datagram import Datagram, DatagramNetwork
from repro.net.eventloop import EventLoop, TimerHandle
from repro.net.stats import CpuModel, NodeStats, StatsRegistry
from repro.net.topology import NodeSite, Segment, Topology, build_switched_cluster

__all__ = [
    "GilbertElliott",
    "Datagram",
    "DatagramNetwork",
    "EventLoop",
    "TimerHandle",
    "CpuModel",
    "NodeStats",
    "StatsRegistry",
    "NodeSite",
    "Segment",
    "Topology",
    "build_switched_cluster",
]
