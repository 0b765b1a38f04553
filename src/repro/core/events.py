"""Observer interfaces of the session service.

Applications (the paper's Virtual IP Manager, Rainwall) react to three kinds
of events: group view changes, multicast deliveries, and local lifecycle
changes.  :class:`SessionListener` is the callback bundle; the default
implementation ignores everything, so applications override only what they
need.  :class:`RecordingListener` is the instrumented variant used
throughout the tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.core.states import NodeState
from repro.core.token import Ordering

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.session import RaincoreNode

__all__ = [
    "SessionListener",
    "RecordingListener",
    "CompositeListener",
    "ensure_composite",
    "Delivery",
    "ViewChange",
]


@dataclass(frozen=True)
class ViewChange:
    """One observed membership view: id and ring-ordered members."""

    view_id: int
    members: tuple[str, ...]
    at: float


class Delivery(NamedTuple):
    """One delivered multicast message.

    A named tuple, not a frozen dataclass: one is built per message per
    member, and the tuple constructor is the cheap immutable one.
    """

    origin: str
    msg_no: int
    payload: object
    ordering: Ordering
    at: float


class SessionListener:
    """Override any subset of these callbacks; defaults do nothing.

    Callbacks run synchronously inside the protocol's wakeup, so they must
    be fast and must not re-enter the protocol other than through the public
    API (multicast / critical-section scheduling), which is queue-based and
    re-entrancy safe.
    """

    def on_view_change(self, view: ViewChange) -> None:
        """Group membership changed (node joined, left, failed, or merged)."""

    def on_deliver(self, delivery: Delivery) -> None:
        """A reliable multicast message was delivered to this node."""

    def on_state_change(self, old: NodeState, new: NodeState) -> None:
        """Local node state machine transition."""

    def on_shutdown(self, reason: str) -> None:
        """Node shut itself down (critical resource lost, or crash)."""


class CompositeListener(SessionListener):
    """Fans every event out to an ordered list of listeners.

    The session node holds a single listener; services stacked on top of it
    (lock manager, shared dictionary, VIP manager, the tests' recorder)
    each want the event stream.  ``ensure_composite`` upgrades a node's
    listener in place so services can subscribe without disturbing whoever
    was installed first.
    """

    def __init__(self, *listeners: SessionListener) -> None:
        self.listeners: list[SessionListener] = list(listeners)

    def add(self, listener: SessionListener) -> None:
        self.listeners.append(listener)

    def remove(self, listener: SessionListener) -> None:
        self.listeners.remove(listener)

    def on_view_change(self, view: ViewChange) -> None:
        for listener in self.listeners:
            listener.on_view_change(view)

    def on_deliver(self, delivery: Delivery) -> None:
        for listener in self.listeners:
            listener.on_deliver(delivery)

    def on_state_change(self, old: NodeState, new: NodeState) -> None:
        for listener in self.listeners:
            listener.on_state_change(old, new)

    def on_shutdown(self, reason: str) -> None:
        for listener in self.listeners:
            listener.on_shutdown(reason)


def ensure_composite(node: "RaincoreNode") -> CompositeListener:
    """Upgrade ``node.listener`` to a :class:`CompositeListener` in place."""
    if isinstance(node.listener, CompositeListener):
        return node.listener
    composite = CompositeListener(node.listener)
    node.listener = composite
    return composite


@dataclass
class RecordingListener(SessionListener):
    """Listener that records everything — the tests' observation point."""

    views: list[ViewChange] = field(default_factory=list)
    deliveries: list[Delivery] = field(default_factory=list)
    transitions: list[tuple[NodeState, NodeState]] = field(default_factory=list)
    shutdowns: list[str] = field(default_factory=list)

    def on_view_change(self, view: ViewChange) -> None:
        self.views.append(view)

    def on_deliver(self, delivery: Delivery) -> None:
        self.deliveries.append(delivery)

    def on_state_change(self, old: NodeState, new: NodeState) -> None:
        self.transitions.append((old, new))

    def on_shutdown(self, reason: str) -> None:
        self.shutdowns.append(reason)

    # Convenience accessors used heavily by tests -----------------------
    @property
    def delivered_payloads(self) -> list[object]:
        return [d.payload for d in self.deliveries]

    @property
    def delivery_keys(self) -> list[tuple[str, int]]:
        return [(d.origin, d.msg_no) for d in self.deliveries]

    @property
    def current_members(self) -> tuple[str, ...]:
        return self.views[-1].members if self.views else ()
