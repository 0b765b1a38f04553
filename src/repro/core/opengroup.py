"""Open group communication — paper §2.6, second half.

    "In addition, open group communication between a node outside the
    Raincore group and the Raincore group can be achieved.  A node can send
    a message to any member of the Raincore group, and that member then
    forwards the message to the entire group using Raincore."

:class:`OpenGroupClient` is the outside node: it owns a transport endpoint
but participates in no ring.  It unicasts an :class:`OpenGroupMessage` to a
contact member; the member's session layer recognizes the envelope and
multicasts the payload with the requested ordering.  The contact replies
with an acceptance so the client can fail over to another contact when its
entry point dies — the natural client-side analogue of the cluster's own
fail-over story.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable

from repro.net.datagram import DatagramNetwork
from repro.net.eventloop import EventLoop
from repro.transport.messages import session_message
from repro.transport.reliable import ReliableUnicast

__all__ = ["OpenGroupMessage", "OpenGroupAck", "OpenGroupClient"]


@session_message
@dataclass(frozen=True)
class OpenGroupMessage:
    """Envelope an outside node hands to a member for group multicast."""

    client: str
    client_msg_no: int
    payload: Any
    size: int
    safe: bool = False  #: request safe instead of agreed ordering

    def wire_size(self) -> int:
        return 24 + self.size


@session_message
@dataclass(frozen=True)
class OpenGroupAck:
    """The contact member accepted (and multicast) the client's message."""

    member: str
    client_msg_no: int

    def wire_size(self) -> int:
        return 16


class OpenGroupClient:
    """An outside node injecting messages into a Raincore group.

    Contacts are tried in order; a contact that fails (failure-on-delivery
    or no acceptance within ``ack_timeout``) is skipped and the send is
    retried at the next one.  ``on_result(accepted_by | None)`` reports the
    outcome.
    """

    def __init__(
        self,
        node_id: str,
        loop: EventLoop,
        network: DatagramNetwork,
        contacts: list[str],
        *,
        ack_timeout: float = 0.5,
        max_attempts: int | None = None,
    ) -> None:
        if not contacts:
            raise ValueError("need at least one contact member")
        self.node_id = node_id
        self.loop = loop
        self.contacts = list(contacts)
        self.ack_timeout = ack_timeout
        self.max_attempts = (
            max_attempts if max_attempts is not None else 2 * len(contacts)
        )
        self.transport = ReliableUnicast(node_id, loop, network)
        self.transport.set_receiver(self._receive)
        self.transport.start()
        self._msg_no = itertools.count(1)
        # client_msg_no -> (attempts so far, timer, callback)
        self._pending: dict[int, list] = {}
        self.accepted = 0

    def stop(self) -> None:
        self.transport.stop()
        for entry in self._pending.values():
            if entry[1] is not None:
                entry[1].cancel()
        self._pending.clear()

    # ------------------------------------------------------------------
    def send_to_group(
        self,
        payload: Any,
        size: int = 64,
        *,
        safe: bool = False,
        on_result: Callable[[str | None], None] | None = None,
    ) -> int:
        """Inject ``payload`` into the group via the first live contact."""
        msg_no = next(self._msg_no)
        self._pending[msg_no] = [0, None, on_result]
        self._attempt(msg_no, OpenGroupMessage(self.node_id, msg_no, payload, size, safe))
        return msg_no

    def _attempt(self, msg_no: int, msg: OpenGroupMessage) -> None:
        entry = self._pending.get(msg_no)
        if entry is None:
            return
        attempts, timer, on_result = entry
        if timer is not None:
            timer.cancel()
        if attempts >= self.max_attempts:
            del self._pending[msg_no]
            if on_result is not None:
                on_result(None)
            return
        contact = self.contacts[attempts % len(self.contacts)]
        entry[0] = attempts + 1
        self.transport.send(
            contact,
            msg,
            on_result=lambda ok: (None if ok else self._attempt(msg_no, msg)),
        )
        entry[1] = self.loop.call_later(self.ack_timeout, self._attempt, msg_no, msg)

    def _receive(self, src: str, payload: Any) -> None:
        if not isinstance(payload, OpenGroupAck):
            return
        entry = self._pending.pop(payload.client_msg_no, None)
        if entry is None:
            return
        if entry[1] is not None:
            entry[1].cancel()
        self.accepted += 1
        if entry[2] is not None:
            entry[2](payload.member)
