"""The parent's protocol timers, kept as the equivalence reference.

Before the lazy deadlines every token hop cancelled and re-armed two loop
timers that almost never fire:

* **HUNGRY** — ``_arm_hungry_timer`` cancelled the node's handle and armed a
  fresh ``call_later(hungry_timeout)``; accepting the token cancelled it;
* **retransmit** — every transmission armed its own ``call_later(retx_timeout)``
  naming ``_retransmit`` or ``_finish(msg_id, False)``, stored on the pending
  send; an ack, a cancel and ``stop()`` cancelled it.

:class:`ReferenceNode` runs that logic inside today's ``RaincoreNode``.  The
only seam it needs is ``_hungry_due``: production clears it exactly where
the parent cancelled the HUNGRY handle (token accepted, teardown), so here
it is a property whose ``None`` does the cancel.  :class:`ReferenceUnicast`
is the parent's sending half of ``ReliableUnicast``, verbatim but for the
timer living on a local pending type.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.session import RaincoreNode
from repro.core.states import NodeState
from repro.net.eventloop import TimerHandle
from repro.transport.messages import DataFrame, frame_size, trace_context_of
from repro.transport.multipath import AddressPlan, SendStrategy
from repro.transport.reliable import ReliableUnicast, ResultHandler

__all__ = ["ReferenceNode", "ReferenceUnicast"]


@dataclass(slots=True)
class _PendingSend:
    frame: DataFrame
    plan: AddressPlan
    on_result: ResultHandler | None
    size: int = 0
    route_index: int = 0
    attempts_on_route: int = 0
    rounds: int = 0
    sends: int = 0
    timer: TimerHandle | None = None
    done: bool = False


class ReferenceUnicast(ReliableUnicast):
    """``ReliableUnicast`` with one retransmit timer per send."""

    def stop(self) -> None:
        self._running = False
        for addr in self.topology.addresses_of(self.node_id):
            self.network.unbind(addr)
        for pending in self._pending.values():
            if pending.timer is not None:
                pending.timer.cancel()
            pending.done = True
        self._pending.clear()
        self._pending_bytes = 0

    def send(self, dst_node, payload, on_result=None) -> int:
        if not self._running:
            raise RuntimeError(f"transport on {self.node_id!r} is not started")
        if dst_node == self.node_id:
            raise ValueError("transport does not loop back to self")
        msg_id = next(self._msg_ids)
        frame = DataFrame(self.node_id, dst_node, msg_id, payload)
        plan = self._plan_for(dst_node)
        size = frame_size(frame)
        pending = _PendingSend(frame=frame, plan=plan, on_result=on_result, size=size)
        self._pending[msg_id] = pending
        if self._pending_bytes + size > self.config.max_pending_bytes:
            self.sheds += 1
            pending.size = 0
            self.loop.call_later(0.0, self._finish, msg_id, False)
            return msg_id
        self._pending_bytes += size
        if not plan:
            self.loop.call_later(0.0, self._finish, msg_id, False)
            return msg_id
        self._transmit(pending)
        return msg_id

    def cancel(self, msg_id: int) -> None:
        pending = self._pending.pop(msg_id, None)
        if pending is not None:
            pending.done = True
            self._pending_bytes -= pending.size
            if pending.timer is not None:
                pending.timer.cancel()

    def _transmit(self, pending, size=None) -> None:
        frame = pending.frame
        size = frame_size(frame)
        probe = self.probe
        if probe is not None:
            probe.emit(
                self.node_id,
                "transport.tx",
                frame.dst_node,
                frame.msg_id,
                pending.sends,
                type(frame.payload).__name__,
                trace_context_of(frame.payload),
            )
        pending.sends += 1
        cfg = self.config
        if cfg.strategy is SendStrategy.PARALLEL:
            for src_addr, dst_addr in pending.plan.pairs:
                self.network.send(src_addr, dst_addr, frame, size)
            pending.rounds += 1
            if pending.rounds >= cfg.attempts_per_route:
                pending.timer = self.loop.call_later(
                    cfg.retx_timeout, self._finish, frame.msg_id, False
                )
            else:
                pending.timer = self.loop.call_later(
                    cfg.retx_timeout, self._retransmit, frame.msg_id
                )
            return
        src_addr, dst_addr = pending.plan.pairs[pending.route_index]
        self.network.send(src_addr, dst_addr, frame, size)
        pending.attempts_on_route += 1
        exhausted_route = pending.attempts_on_route >= cfg.attempts_per_route
        last_route = pending.route_index >= len(pending.plan) - 1
        if exhausted_route and last_route:
            pending.timer = self.loop.call_later(
                cfg.retx_timeout, self._finish, frame.msg_id, False
            )
        else:
            pending.timer = self.loop.call_later(
                cfg.retx_timeout, self._retransmit, frame.msg_id
            )

    def _retransmit(self, msg_id: int) -> None:
        pending = self._pending.get(msg_id)
        if pending is None or pending.done:
            return
        if self.config.strategy is SendStrategy.SEQUENTIAL:
            if pending.attempts_on_route >= self.config.attempts_per_route:
                pending.route_index += 1
                pending.attempts_on_route = 0
        self._transmit(pending)

    def _finish(self, msg_id: int, success: bool) -> None:
        pending = self._pending.pop(msg_id, None)
        if pending is None or pending.done:
            return
        pending.done = True
        self._pending_bytes -= pending.size
        if pending.timer is not None:
            pending.timer.cancel()
        probe = self.probe
        if probe is not None and not success:
            probe.emit(self.node_id, "transport.fail", pending.frame.dst_node, msg_id)
        if pending.on_result is not None:
            pending.on_result(success)


class ReferenceNode(RaincoreNode):
    """``RaincoreNode`` with the cancel-and-re-arm HUNGRY timer and a
    :class:`ReferenceUnicast` transport."""

    def __init__(self, node_id, loop, network, config=None, listener=None) -> None:
        super().__init__(node_id, loop, network, config, listener)
        self.transport = ReferenceUnicast(node_id, loop, network, self.config.transport)
        self.transport.set_receiver(self._receive)

    @property
    def _hungry_due(self) -> None:
        return None

    @_hungry_due.setter
    def _hungry_due(self, value) -> None:
        # Production clears the deadline exactly where the parent cancelled.
        if value is None and getattr(self, "_hungry_timer", None) is not None:
            self._cancel_timer("_hungry_timer")

    def _arm_hungry_timer(self, timeout: float | None = None) -> None:
        timer = self._hungry_timer
        if timer is not None:
            timer.cancel()
        self._hungry_timer = self.loop.call_later(
            timeout if timeout is not None else self.config.hungry_timeout,
            self._on_hungry_timeout,
            self._epoch,
        )

    def _on_hungry_timeout(self, epoch: int) -> None:
        if epoch != self._epoch or self.state is not NodeState.HUNGRY:
            return
        self._gc_wakeup()
        self.recovery.on_hungry_timeout()
