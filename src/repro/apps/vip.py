"""Virtual IP Manager — paper §3.1.

    "One way of distributing traffic to a group of networking elements is by
    maintaining a pool of highly available virtual IPs among the group
    members.  ...  The virtual IPs are mutually exclusively assigned to
    different nodes in the cluster by the Virtual IP manager.  In the
    presence of failures, Raincore ... promptly moves all the virtual IPs
    that was owned by the failed node to healthy ones."

Implementation
--------------
* The assignment table lives in a :class:`~repro.data.shared_dict.SharedDict`
  under ``vip:<address>`` keys, so every member sees the same table in the
  same order.
* Reassignment is performed by the group coordinator (lowest node id)
  **inside the master-lock** (``run_exclusive``), honouring the paper's
  "uses the master-lock to make sure that there is no conflict in the
  virtual IP address assignments".  The computation itself is stable: VIPs
  whose owner is still alive never move on fail-over; orphans go to the
  least-loaded survivors.
* When a node observes in the replicated table that it gained a VIP, it
  installs it and sends a **gratuitous ARP** on the subnet; MAC addresses
  never move (paper: "MAC addresses are never moved and remain unique").
  :class:`ArpSubnet` models the subnet's ARP caches with a fixed
  refresh latency, which is part of the measured fail-over time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.events import Delivery, SessionListener, ViewChange, ensure_composite
from repro.core.session import RaincoreNode
from repro.data.shared_dict import DictOp, SharedDict

__all__ = ["ArpSubnet", "VirtualIPManager", "compute_assignment"]

#: Seconds routers and hosts take to honour a gratuitous ARP (cache update
#: plus switch re-learning).
ARP_REFRESH_LATENCY = 0.010


@dataclass
class ArpSubnet:
    """The subnet's collective ARP view: which MAC answers for each VIP.

    A gratuitous ARP takes effect :data:`ARP_REFRESH_LATENCY` after it is
    announced.
    """

    table: dict[str, str] = field(default_factory=dict)  # vip -> node id
    history: list[tuple[float, str, str]] = field(default_factory=list)

    def gratuitous_arp(self, loop, vip: str, node_id: str) -> None:
        """Announce that ``vip`` now answers at ``node_id``'s MAC."""
        now = loop.now
        self.history.append((now, vip, node_id))

        def apply():
            self.table[vip] = node_id

        loop.call_later(ARP_REFRESH_LATENCY, apply)

    def resolve(self, vip: str) -> str | None:
        """Where the subnet currently believes ``vip`` lives."""
        return self.table.get(vip)


def compute_assignment(
    vips: list[str],
    current: dict[str, str],
    live: tuple[str, ...],
) -> dict[str, str]:
    """Stable, balanced VIP → owner assignment.

    A VIP keeps its live owner as long as that owner is not above its fair
    share (⌈V/N⌉) — so a member's failure never moves the *other* members'
    VIPs, while a join pulls excess VIPs onto the newcomer (the paper's
    load-balancing moves).  Orphaned and excess VIPs go to the members
    owning the fewest, ties broken by ring order.  Pure function — every
    node computes the identical table from the same inputs.
    """
    if not live:
        return {}
    cap = -(-len(vips) // len(live))  # ceil(V / N): fair share
    counts = {m: 0 for m in live}
    assignment: dict[str, str] = {}
    for vip in sorted(vips):
        owner = current.get(vip)
        if owner in counts and counts[owner] < cap:
            assignment[vip] = owner
            counts[owner] += 1
    for vip in sorted(vips):
        if vip in assignment:
            continue
        owner = min(live, key=lambda m: (counts[m], live.index(m)))
        assignment[vip] = owner
        counts[owner] += 1
    return assignment


class VirtualIPManager(SessionListener):
    """Per-node VIP manager over one Raincore group.

    All members construct one with the same ``vip_pool`` and a shared
    :class:`ArpSubnet`; attach before starting the node::

        shared = SharedDict(node)
        vipman = VirtualIPManager(node, shared, subnet, ["10.0.0.1", ...])
    """

    KEY_PREFIX = "vip:"

    def __init__(
        self,
        node: RaincoreNode,
        shared: SharedDict,
        subnet: ArpSubnet,
        vip_pool: list[str],
    ) -> None:
        if not vip_pool:
            raise ValueError("need at least one virtual IP")
        self.node = node
        self.shared = shared
        self.subnet = subnet
        self.vip_pool = list(vip_pool)
        self.installed: set[str] = set()  #: VIPs bound to this node's NIC
        self.moves = 0  #: table-change count observed locally
        ensure_composite(node).add(self)
        self._last_members: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def assignment(self) -> dict[str, str]:
        """The replicated VIP table as this node currently sees it."""
        return {
            key[len(self.KEY_PREFIX):]: owner
            for key, owner in self.shared.snapshot().items()
            if isinstance(key, str) and key.startswith(self.KEY_PREFIX)
        }

    def owner_of(self, vip: str) -> str | None:
        return self.shared.get(self.KEY_PREFIX + vip)  # type: ignore[return-value]

    def owned_vips(self) -> set[str]:
        return set(self.installed)

    # ------------------------------------------------------------------
    # coordinator: (re)assignment under the master lock
    # ------------------------------------------------------------------
    def on_view_change(self, view: ViewChange) -> None:
        self._last_members = view.members
        if not view.members or self.node.node_id != min(view.members):
            return
        members = view.members

        def reassign() -> None:
            # Inside the master lock: we hold the token, so no competing
            # coordinator can interleave its own assignment writes.
            if tuple(self.node.members) != members:
                return  # the view moved on; the newer change will handle it
            desired = compute_assignment(
                self.vip_pool, self.assignment(), members
            )
            for vip, owner in desired.items():
                if self.owner_of(vip) != owner:
                    self.shared.set(self.KEY_PREFIX + vip, owner)

        self.node.run_exclusive(reassign)

    def rebalance(self) -> None:
        """Evenly redistribute VIPs over current members (paper: "The
        Virtual IPs can also be moved for load balancing").

        Unlike fail-over reassignment this may move VIPs away from live
        nodes; only the coordinator should call it.
        """
        members = self.node.members

        def do() -> None:
            live = self.node.members
            if not live:
                return
            for i, vip in enumerate(sorted(self.vip_pool)):
                owner = live[i % len(live)]
                if self.owner_of(vip) != owner:
                    self.shared.set(self.KEY_PREFIX + vip, owner)

        self.node.run_exclusive(do)

    # ------------------------------------------------------------------
    # every node: claim / release on table changes
    # ------------------------------------------------------------------
    def on_deliver(self, delivery: Delivery) -> None:
        op = delivery.payload
        if not isinstance(op, DictOp) or not op.key.startswith(self.KEY_PREFIX):
            return
        vip = op.key[len(self.KEY_PREFIX):]
        if vip not in self.vip_pool:
            return
        self.moves += 1
        probe = self.node.probe
        if op.kind == "set" and op.value == self.node.node_id:
            if vip not in self.installed:
                self.installed.add(vip)
                if probe is not None:
                    probe.emit(self.node.node_id, "app.vip_install", vip)
                # Claim: refresh every ARP cache on the subnet so traffic
                # shifts to our (unchanged, unique) MAC address.
                self.subnet.gratuitous_arp(self.node.loop, vip, self.node.node_id)
        else:
            if vip in self.installed and probe is not None:
                probe.emit(self.node.node_id, "app.vip_release", vip)
            self.installed.discard(vip)

    def on_shutdown(self, reason: str) -> None:
        # A dead NIC answers no ARP; drop local installs (the survivors'
        # coordinator will move the VIPs and re-ARP them elsewhere).
        self.installed.clear()
