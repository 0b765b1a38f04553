"""Fault injection for cluster scenarios.

Every failure mode the paper discusses, as one-line injections:

* node crash / recovery (fail-stop, rejoin via 911 — paper §2.3);
* cable unplug (the Rainwall fail-over experiment — paper §3.2);
* pairwise link cut (the ABCD → ACD → ACBD example — paper §2.3);
* partition / heal (split-brain and merge — paper §2.4);
* token loss (direct injection for 911 recovery studies — paper §2.3);
* failure-detector false alarm (wrongful removal — paper §2.3);

plus the adversarial extensions the chaos engine (:mod:`repro.chaos`)
schedules:

* surgical packet drops (:meth:`FaultInjector.drop_matching`), including
  the canned one-way ACK blackout that manufactures false alarms;
* flapping ("gray") NICs, per-segment packet duplication, Gilbert–Elliott
  burst loss and delay spikes (:mod:`repro.net.adversity`);
* forged duplicate tokens — a direct injection of the duplicate that the
  paper's sequence-number guard must kill.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.states import NodeState
from repro.net.datagram import Datagram
from repro.transport.messages import AckFrame

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.harness import RaincoreCluster

__all__ = ["FaultInjector"]


class FaultInjector:
    """Mutates a :class:`RaincoreCluster`'s topology and nodes mid-run."""

    def __init__(self, cluster: "RaincoreCluster") -> None:
        self.cluster = cluster

    # ------------------------------------------------------------------
    # node faults
    # ------------------------------------------------------------------
    def crash_node(self, node_id: str) -> None:
        """Fail-stop a node: protocol halts and its NICs go silent."""
        self.cluster.node(node_id).crash()
        self.cluster.topology.set_node_up(node_id, False)

    def recover_node(self, node_id: str, contacts: list[str] | None = None) -> None:
        """Restart a crashed node and have it rejoin via a 911."""
        self.cluster.topology.set_node_up(node_id, True)
        node = self.cluster.node(node_id)
        if contacts is None:
            contacts = [
                n.node_id
                for n in self.cluster.live_nodes()
                if n.node_id != node_id
            ]
        if contacts:
            node.start_joining(contacts)
        else:
            node.start_new_group()

    # ------------------------------------------------------------------
    # link faults
    # ------------------------------------------------------------------
    def unplug_cable(self, node_id: str, segment_index: int = 0) -> str:
        """Unplug one NIC of a node (paper §3.2's benchmark fault).

        Returns the affected address so the test can replug it.
        """
        addr = self.cluster.topology.addresses_of(node_id)[segment_index]
        self.cluster.topology.set_nic_up(addr, False)
        return addr

    def replug_cable(self, address: str) -> None:
        self.cluster.topology.set_nic_up(address, True)

    def cut_link(self, node_a: str, node_b: str) -> None:
        """Cut all paths between exactly two nodes (others unaffected)."""
        self.cluster.topology.block_node_pair(node_a, node_b)

    def restore_link(self, node_a: str, node_b: str) -> None:
        self.cluster.topology.unblock_node_pair(node_a, node_b)

    def flap_nic(
        self,
        node_id: str,
        segment_index: int = 0,
        period: float = 0.2,
        duration: float = 2.0,
    ) -> str:
        """A "gray" NIC: one interface flaps down/up every ``period/2``
        seconds for ``duration`` seconds, then is forced back up.

        The toggle schedule is laid out up front on the event loop, so a
        flap is a deterministic, replayable fault like any other.  Returns
        the flapping address.
        """
        if period <= 0.0 or duration <= 0.0:
            raise ValueError("period and duration must be positive")
        addr = self.cluster.topology.addresses_of(node_id)[segment_index]
        loop = self.cluster.loop
        half = period / 2.0
        t, up = 0.0, False
        while t < duration:
            loop.call_later(t, self.cluster.topology.set_nic_up, addr, up)
            up = not up
            t += half
        loop.call_later(duration, self.cluster.topology.set_nic_up, addr, True)
        return addr

    # ------------------------------------------------------------------
    # surgical packet filters
    # ------------------------------------------------------------------
    def drop_matching(self, pred: Callable[[Datagram], bool]) -> int:
        """Drop every packet ``pred`` matches, until :meth:`stop_dropping`.

        The first-class form of the network's send-filter hook: filters
        stack (several concurrent drop rules compose), and callers get a
        handle instead of reaching into the fabric.  Returns that handle.
        """
        return self.cluster.network.add_filter(lambda packet: not pred(packet))

    def stop_dropping(self, handle: int) -> None:
        """Remove one :meth:`drop_matching` rule (idempotent)."""
        self.cluster.network.remove_filter(handle)

    def clear_filters(self) -> None:
        """Remove every installed drop rule."""
        self.cluster.network.clear_filters()

    def ack_blackout(self, src_node: str, dst_node: str, duration: float) -> int:
        """Drop all transport ACKs ``src_node`` → ``dst_node`` for
        ``duration`` seconds.

        The canned scenario that manufactures failure-detector false
        alarms: data flows, acknowledgements do not, so the sender's
        failure-on-delivery fires against a live peer.  Returns the filter
        handle (already scheduled for removal).
        """
        topo = self.cluster.topology

        def one_way_acks(packet: Datagram) -> bool:
            if not isinstance(packet.payload, AckFrame):
                return False
            return (
                topo.owner_of(packet.src) == src_node
                and topo.owner_of(packet.dst) == dst_node
            )

        handle = self.drop_matching(one_way_acks)
        self.cluster.loop.call_later(duration, self.stop_dropping, handle)
        return handle

    # ------------------------------------------------------------------
    # network adversities (per-segment models, repro.net.adversity)
    # ------------------------------------------------------------------
    def _adversity_segments(self, segment: str | None):
        topo = self.cluster.topology
        return [topo.segment(segment)] if segment is not None else topo.segments()

    def set_duplication(self, prob: float, segment: str | None = None) -> None:
        """Deliver a fraction ``prob`` of packets twice (UDP permits it)."""
        for seg in self._adversity_segments(segment):
            seg.duplicate = prob

    def set_burst_loss(
        self,
        p_enter: float,
        p_exit: float,
        loss_bad: float = 1.0,
        loss_good: float = 0.0,
        segment: str | None = None,
    ) -> None:
        """Attach a Gilbert–Elliott burst-loss channel to segment(s)."""
        from repro.net.adversity import GilbertElliott

        for seg in self._adversity_segments(segment):
            seg.burst = GilbertElliott(p_enter, p_exit, loss_good, loss_bad)

    def clear_burst_loss(self, segment: str | None = None) -> None:
        """Detach the burst-loss channel, leaving other adversities alone."""
        for seg in self._adversity_segments(segment):
            seg.burst = None

    def set_delay_spikes(
        self, prob: float, extra: float, segment: str | None = None
    ) -> None:
        """A fraction ``prob`` of packets is delayed by ``extra`` seconds."""
        for seg in self._adversity_segments(segment):
            seg.spike_prob = prob
            seg.spike_extra = extra

    def clear_adversities(self, segment: str | None = None) -> None:
        """Reset duplication, burst loss and spikes to the benign model."""
        for seg in self._adversity_segments(segment):
            seg.clear_adversities()

    # ------------------------------------------------------------------
    # partitions
    # ------------------------------------------------------------------
    def partition(self, *groups: list[str]) -> None:
        """Split the cluster into isolated groups (split-brain injection)."""
        self.cluster.topology.partition(list(groups))

    def heal_partition(self) -> None:
        self.cluster.topology.heal_partition()

    # ------------------------------------------------------------------
    # protocol-level faults
    # ------------------------------------------------------------------
    def lose_token(self) -> bool:
        """Destroy the live token wherever it currently is.

        Emulates the holder dying at the worst moment without actually
        killing it: the holder silently forgets the token (its local copy
        survives, as the paper's protocol requires).  Returns True if a
        token was found and destroyed.  If the token is in flight (between
        holders), nothing happens and False is returned — use
        :meth:`lose_token_in_flight` to catch that window too.
        """
        for node in self.cluster.live_nodes():
            if node.has_token:
                token = node._live_token
                node._live_token = None
                # The holder believes it already forwarded: it waits HUNGRY
                # like everyone else, with its local copy intact.
                node._local_copy = token.snapshot()
                node._cancel_timer("_forward_timer")
                if node.state is NodeState.EATING:
                    node._transition(NodeState.HUNGRY)
                    node._arm_hungry_timer()
                return True
        return False

    def lose_token_in_flight(self, timeout: float = 1.0, poll: float = 0.0005) -> None:
        """Destroy the token even when it is currently between holders.

        :meth:`lose_token` has a blind spot: while the token datagram is in
        flight no node holds it, so the call silently does nothing.  This
        variant retries on the event loop every ``poll`` virtual seconds
        and kills the token the moment it lands, giving up after
        ``timeout`` seconds (e.g. when a 911 regeneration already replaced
        it).  Deterministic: retries are ordinary scheduled events.
        """
        if timeout <= 0.0 or poll <= 0.0:
            raise ValueError("timeout and poll must be positive")
        deadline = self.cluster.loop.now + timeout

        def attempt() -> None:
            if self.lose_token():
                return
            if self.cluster.loop.now + poll > deadline:
                return
            self.cluster.loop.call_later(poll, attempt)

        attempt()

    def forge_duplicate_token(self) -> bool:
        """Adversarial injection: clone the live token onto another member.

        Manufactures, in one step, the duplicate-token state that a false
        alarm (ack lost on a delivered forward) produces over several —
        two members of *one* group both believe they hold the token.  The
        clone enters through the normal acceptance path, so the protocol's
        seq guard is what must reap it; the strict
        :class:`~repro.cluster.invariants.InvariantMonitor` flags the
        window.  Returns True if a duplicate was planted.
        """
        holder = next(
            (n for n in self.cluster.live_nodes() if n.has_token), None
        )
        if holder is None:
            return False
        token = holder._live_token
        candidates = [
            n
            for n in self.cluster.live_nodes()
            if n is not holder
            and n.state is NodeState.HUNGRY
            and token.has_member(n.node_id)
            and n._last_seen_seq < token.seq
        ]
        if not candidates:
            return False
        victim = min(candidates, key=lambda n: n.node_id)
        victim._accept_token(token.snapshot())
        return True

    def false_alarm(self, accuser_id: str, victim_id: str) -> None:
        """Inject a failure-detector false alarm: ``accuser`` wrongly
        removes ``victim`` from its local copy of the ring next time it
        holds the token.

        Implemented as a transient link cut that heals immediately after
        one token pass attempt, so the transport's failure-on-delivery
        fires once — exactly a false alarm.
        """
        cluster = self.cluster
        cluster.topology.block_node_pair(accuser_id, victim_id)
        bound = cluster.config.transport.failure_detection_bound(
            len(cluster.topology.addresses_of(accuser_id))
        )
        ring = max(1, len(cluster.node(accuser_id).members))
        heal_after = bound + ring * cluster.config.hop_interval + 0.05
        cluster.loop.call_later(
            heal_after,
            cluster.topology.unblock_node_pair,
            accuser_id,
            victim_id,
        )
