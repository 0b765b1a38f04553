"""Wire framing for the Raincore Transport Service.

The transport exchanges two frame types over the unreliable datagram layer:

* ``DATA`` — carries one upper-layer message (a session-layer object that
  reports its own modelled wire size via ``wire_size()``), tagged with a
  per-sender message id used for acknowledgement and duplicate suppression.
* ``ACK`` — acknowledges one DATA frame by id.

Sizes are modelled, not serialized: each frame adds the UDP/IP header cost
plus a small transport header, which is what the paper's §4.1 byte
arithmetic counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

__all__ = [
    "UDP_IP_HEADER",
    "TRANSPORT_HEADER",
    "WireSized",
    "DataFrame",
    "AckFrame",
    "BareFrame",
    "frame_size",
    "trace_context_of",
    "SESSION_MESSAGES",
    "STREAM_MESSAGES",
    "session_message",
    "stream_message",
    "session_message_kinds",
    "stream_message_kinds",
    "registered_kinds",
]

#: Registry of top-level session-layer message classes: everything the
#: transport may hand to a session ``_receive`` dispatcher.  Populated by
#: the :func:`session_message` decorator; audited statically by raincheck
#: rule RC201 (every registered class must have an ``isinstance`` arm in a
#: ``_receive`` handler) — see docs/DETERMINISM.md.
SESSION_MESSAGES: dict[str, type] = {}

#: Registry of stream-tier protocol messages: wire payloads that ride the
#: agreed-ordered multicast and are dispatched by a replica ``on_deliver``
#: isinstance chain (the PR 6 resync ladder lives here).  Kept separate
#: from :data:`SESSION_MESSAGES` because the transport never dispatches
#: them directly — their carrier (the token's piggyback) does — but they
#: are protocol surface all the same: rainspec's RC5xx conformance pass
#: and the ``repro spec`` drift gate audit both tiers.
STREAM_MESSAGES: dict[str, type] = {}


def session_message(cls: type) -> type:
    """Register ``cls`` as a dispatchable session-layer message.

    Nested payloads that only ride *inside* another message (e.g. the
    token's piggybacked multicasts) are deliberately not registered here:
    they are unpacked by their carrier, not dispatched by the transport.
    Protocol payloads dispatched off the agreed stream register with
    :func:`stream_message` instead.
    """
    SESSION_MESSAGES[cls.__name__] = cls
    return cls


def stream_message(cls: type) -> type:
    """Register ``cls`` as a stream-tier protocol message (see above)."""
    STREAM_MESSAGES[cls.__name__] = cls
    return cls


def session_message_kinds() -> tuple[str, ...]:
    """Sorted session-message kind names.

    Registration happens in import order, which is an accident of module
    topology; every consumer that renders or diffs the kind table
    (rainspec, RC2xx/RC5xx findings, ``repro spec render``) reads this
    sorted view so outputs stay byte-deterministic across import orders.
    """
    return tuple(sorted(SESSION_MESSAGES))


def stream_message_kinds() -> tuple[str, ...]:
    """Sorted stream-message kind names (same determinism contract)."""
    return tuple(sorted(STREAM_MESSAGES))


def registered_kinds() -> tuple[str, ...]:
    """Sorted union of both registry tiers."""
    return tuple(sorted(SESSION_MESSAGES | STREAM_MESSAGES))

#: Modelled overhead of one UDP/IPv4 datagram (20 IP + 8 UDP bytes).
UDP_IP_HEADER = 28
#: Modelled Raincore transport header (msg id, node ids, flags).
TRANSPORT_HEADER = 16


@runtime_checkable
class WireSized(Protocol):
    """Anything the transport can carry: must report a wire size in bytes."""

    def wire_size(self) -> int: ...  # pragma: no cover


def _payload_size(payload: Any) -> int:
    # Duck-typed on purpose: ``isinstance`` against a runtime_checkable
    # Protocol walks the whole method table per call, and payload_size sits
    # on the per-packet path of every transmission and retransmission.
    size = getattr(payload, "wire_size", None)
    if size is not None:
        return size()
    if isinstance(payload, (bytes, bytearray, str)):
        return len(payload)
    raise TypeError(f"payload {payload!r} has no wire_size() and is not bytes/str")


# DATA and ACK frames are built once per hop each.  They are not ``frozen``:
# a frozen ``__init__`` stores every field through ``object.__setattr__``,
# which costs more than the frame's whole life.  Nothing mutates a frame
# after construction, and ``unsafe_hash`` keeps the field-wise hash that
# ``frozen`` gave them.
@dataclass(slots=True, unsafe_hash=True)
class DataFrame:
    """A transport DATA frame: one atomic, acknowledged unicast payload."""

    src_node: str
    dst_node: str
    msg_id: int
    payload: Any

    def payload_size(self) -> int:
        return _payload_size(self.payload)


@dataclass(slots=True, unsafe_hash=True)
class AckFrame:
    """Acknowledges receipt of DATA frame ``msg_id`` from ``dst_node``."""

    src_node: str
    dst_node: str
    msg_id: int


@dataclass(frozen=True, slots=True)
class BareFrame:
    """An unacknowledged, fire-and-forget payload (discovery beacons).

    The BODYODOR beacon (paper §2.4) is "a small message sent with a
    regular, but low frequency"; it needs neither acknowledgement nor
    retransmission — the next beacon is its retry.
    """

    src_node: str
    dst_node: str
    payload: Any

    def payload_size(self) -> int:
        return _payload_size(self.payload)


def frame_size(frame: DataFrame | AckFrame | BareFrame) -> int:
    """Modelled on-the-wire size of a transport frame in bytes."""
    if type(frame) is AckFrame:
        return UDP_IP_HEADER + TRANSPORT_HEADER
    return UDP_IP_HEADER + TRANSPORT_HEADER + frame.payload_size()


def trace_context_of(payload: Any) -> tuple | None:
    """Wire-carried causal trace context of a payload, if it has one.

    Session-layer objects opt in by defining ``trace_context()`` (the token
    does — lineage id, seq, piggyback count).  The context is *modelled* as
    riding inside the fixed :data:`TRANSPORT_HEADER` / token-header byte
    allowances — identifiers this small fit the headers' slack — so
    enabling observability never changes modelled packet sizes.  Duck-typed
    for the same layering reason as :func:`_payload_size`: the transport
    cannot import session-layer types.
    """
    fn = getattr(payload, "trace_context", None)
    return fn() if fn is not None else None
