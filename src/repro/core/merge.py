"""Split-brain discovery and group merge — paper §2.4.

When a partition heals, Raincore merges the surviving sub-groups:

* **Discovery** — every healthy member periodically sends a small BODYODOR
  beacon to each node that is in its configured *Eligible Membership* but
  not in its current group membership.  The beacon carries the sender's
  node id and group id (the lowest member id).
* **Tie-break** — a BODYODOR is treated as a join request iff the sender's
  group id is **lower** than the receiver's.  With k sub-groups this induces
  a total order on merges, so they complete without deadlock.
* **Merge handshake** — the receiver waits for its token, adds the BODYODOR
  sender to the membership, marks the **TBM** (To Be Merged) flag, and sends
  the TBM token to the sender.  The sender holds the TBM token until its own
  group's token arrives, then merges the two memberships and concatenates
  the two message queues into a single token (DESIGN.md §6.4).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.membership import merge_rings
from repro.core.token import Token, derive_ancestry
from repro.core.wire import BodyOdor

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.session import RaincoreNode

__all__ = ["MergeProtocol"]


class MergeProtocol:
    """Per-node discovery beaconing and TBM merge state."""

    def __init__(self, node: "RaincoreNode") -> None:
        self.node = node
        self.eligible: set[str] = set()
        self._pending_merge_joins: list[str] = []
        self._held_tbm: Token | None = None
        self._tbm_timer = None
        self._beacon_timer = None
        self._running = False
        # Counters for tests/benchmarks.
        self.beacons_sent = 0
        self.merges_completed = 0
        self.merges_initiated = 0

    # ------------------------------------------------------------------
    # configuration & lifecycle
    # ------------------------------------------------------------------
    def set_eligible(self, node_ids: set[str] | list[str] | tuple[str, ...]) -> None:
        """Update the Eligible Membership online (paper: "the configuration
        can be changed and updated online")."""
        self.eligible = set(node_ids)

    def start(self) -> None:
        self._running = True
        self._arm_beacon()

    def stop(self) -> None:
        self._running = False
        if self._beacon_timer is not None:
            self._beacon_timer.cancel()
            self._beacon_timer = None
        if self._tbm_timer is not None:
            self._tbm_timer.cancel()
            self._tbm_timer = None
        self._held_tbm = None
        self._pending_merge_joins.clear()

    def _arm_beacon(self) -> None:
        if not self._running:
            return
        self._beacon_timer = self.node.loop.call_later(
            self.node.config.bodyodor_interval, self._beacon
        )

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------
    def _beacon(self) -> None:
        node = self.node
        if not self._running or not node.is_member:
            self._arm_beacon()
            return
        targets = self.eligible - set(node.members) - {node.node_id}
        if targets:
            node._gc_wakeup()
            beacon = BodyOdor(node.node_id, node.group_id)
            for target in sorted(targets):
                node.transport.send_best_effort(target, beacon)
                self.beacons_sent += 1
        self._arm_beacon()

    def handle_bodyodor(self, msg: BodyOdor) -> None:
        node = self.node
        if not node.is_member:
            return
        if msg.sender in node.members:
            return  # already merged; stale beacon
        if msg.sender not in self.eligible:
            return  # not configured as an eligible member
        if msg.sender in node.quarantined:
            return  # resync ladder quarantined it; wait out the backoff
        if msg.group_id >= node.group_id:
            # The other side has the higher group id; *they* will treat our
            # beacons as the join request.  Doing nothing here is what
            # prevents merge deadlocks (paper: group ids as tie-breakers).
            return
        if msg.sender not in self._pending_merge_joins:
            self._pending_merge_joins.append(msg.sender)

    # ------------------------------------------------------------------
    # token-visit hook (initiating side — the higher group id)
    # ------------------------------------------------------------------
    def maybe_initiate(self, token: Token) -> str | None:
        """If a discovered sub-group awaits, start the merge on this visit.

        Adds the BODYODOR sender to the token's membership, sets the TBM
        flag, and returns the sender's id as the forwarding override so the
        TBM token goes straight to it.
        """
        while self._pending_merge_joins:
            target = self._pending_merge_joins.pop(0)
            if token.has_member(target):
                continue  # merged through another path meanwhile
            token.insert_after(self.node.node_id, target)
            token.tbm = True
            self.merges_initiated += 1
            return target
        return None

    # ------------------------------------------------------------------
    # TBM handling (joining side — the lower group id)
    # ------------------------------------------------------------------
    def handle_tbm(self, tbm_token: Token) -> bool:
        """A TBM token arrived: hold it until our own group's token comes.

        Returns False when a TBM is already held — the caller then refuses
        the newcomer so the second initiator's ring routes around us
        instead of losing its token.
        """
        node = self.node
        if self._held_tbm is not None:
            return False
        self._held_tbm = tbm_token
        if self._tbm_timer is not None:
            self._tbm_timer.cancel()
        # Safety valve: if our own token never shows up (it may be lost at
        # the same time), drop the held TBM after the hungry timeout — the
        # initiating group regenerates and discovery retries.
        self._tbm_timer = node.loop.call_later(
            node.config.hungry_timeout, self._drop_held_tbm
        )
        if node.is_eating:
            node._merge_now()
        return True

    def _drop_held_tbm(self) -> None:
        if self._held_tbm is not None:
            self.node._gc_wakeup()
            self._held_tbm = None

    @property
    def holding_tbm(self) -> bool:
        return self._held_tbm is not None

    def merge_with_own(self, own: Token) -> Token:
        """Combine the held TBM token with our own token (paper §2.4).

        The merged ring uses the TBM token's ring as the base (it already
        contains us) and splices our own ring's other members in after us;
        the message queues are concatenated with pending sets pruned to the
        merged membership (each message still completes only within its
        original attach view — DESIGN.md §6.4).
        """
        tbm = self._held_tbm
        if tbm is None:
            raise RuntimeError("no held TBM token to merge")
        self._held_tbm = None
        if self._tbm_timer is not None:
            self._tbm_timer.cancel()
            self._tbm_timer = None

        merged_ring = merge_rings(tbm.membership, self.node.node_id, own.membership)
        merged = Token(
            seq=max(tbm.seq, own.seq) + 1,
            membership=merged_ring,
            messages=list(tbm.messages) + list(own.messages),
            tbm=False,
            view_id=max(tbm.view_id, own.view_id) + 1,
            gen=self.node._next_gen(),
            # Both parent gens head the chain: members of either side must
            # recognize the merged token as their lineage's continuation.
            ancestry=derive_ancestry(tbm, own),
        )
        probe = self.node.probe
        if probe is not None:
            # Both parent lineages are recorded here (probe stream only);
            # bundles use them to follow spans across the merge.
            probe.emit(
                self.node.node_id,
                "token.merge",
                merged.gen,
                tbm.gen,
                own.gen,
                merged.seq,
            )
        alive = set(merged_ring)
        for pack in merged.messages:
            pack.pending &= alive
        self.merges_completed += 1
        return merged
