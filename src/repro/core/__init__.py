"""Raincore Distributed Session Service — the paper's core contribution.

Fault-tolerant token-ring group communication for clusters of networking
elements: group membership, reliable atomic multicast with consistent
ordering, and mutual exclusion, all carried by a single circulating TOKEN
over unicast transport (Fan & Bruck, IPPS 2001, §2).
"""

from repro.core.config import RaincoreConfig
from repro.core.events import (
    Delivery,
    RecordingListener,
    SessionListener,
    ViewChange,
)
from repro.core.resources import CriticalResource, ResourceMonitor
from repro.core.session import RaincoreNode
from repro.core.states import NodeState
from repro.core.token import Ordering, PiggybackedMessage, Rider, Token
from repro.core.wire import BodyOdor, NineOneOne, NineOneOneReply, ReplyVerdict

__all__ = [
    "RaincoreConfig",
    "Delivery",
    "RecordingListener",
    "SessionListener",
    "ViewChange",
    "CriticalResource",
    "ResourceMonitor",
    "RaincoreNode",
    "NodeState",
    "Ordering",
    "PiggybackedMessage",
    "Rider",
    "Token",
    "BodyOdor",
    "NineOneOne",
    "NineOneOneReply",
    "ReplyVerdict",
]
