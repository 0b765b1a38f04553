"""Harness for the hierarchical Raincore deployment (paper §5 extension).

Builds K sub-group rings plus the leaders' top ring on one simulated
network.  Every machine hosts two potential protocol endpoints — its local
ring member and a pre-provisioned top-ring node (``"<id>^t"``) that is only
started while the machine leads its sub-group.  Crashing a *machine* takes
both endpoints down, so leadership fail-over exercises the full path:
local-ring detection → new leader → top-ring 911 join → relay resumes.
"""

from __future__ import annotations

from typing import Any

from repro.core.config import RaincoreConfig
from repro.core.session import RaincoreNode
from repro.core.states import NodeState
from repro.hierarchy.relay import HierarchicalMember
from repro.net.datagram import DatagramNetwork
from repro.net.eventloop import EventLoop
from repro.net.topology import Segment, Topology

__all__ = ["HierarchicalCluster"]

TOP_SUFFIX = "^t"


class HierarchicalCluster:
    """K sub-group rings bridged by a leaders' ring.

    Parameters
    ----------
    groups:
        List of member-id lists, one per sub-group.  Ids must be globally
        unique; group leadership goes to the lowest live id in each group.
    seed:
        Event-loop RNG seed; the network is one switched segment with
        :class:`~repro.net.topology.Segment`'s default latency and jitter
        and no loss.
    hop_interval:
        Token hold time, used for both planes.
    """

    def __init__(
        self,
        groups: list[list[str]],
        *,
        seed: int = 0,
        hop_interval: float = 0.010,
    ) -> None:
        if not groups or any(not g for g in groups):
            raise ValueError("need at least one non-empty group")
        flat = [nid for g in groups for nid in g]
        if len(set(flat)) != len(flat):
            raise ValueError("node ids must be globally unique")
        if any(TOP_SUFFIX in nid for nid in flat):
            raise ValueError(f"node ids may not contain {TOP_SUFFIX!r}")

        self.groups = [list(g) for g in groups]
        self.machine_ids = flat
        self.loop = EventLoop(seed=seed)
        self.topology = Topology()
        self.topology.add_segment(Segment("net0"))
        self.network = DatagramNetwork(self.loop, self.topology)

        top_ids = [nid + TOP_SUFFIX for nid in flat]
        for nid in flat:
            self.topology.add_node(nid)
            self.topology.attach(nid, f"{nid}@net0", "net0")
            tid = nid + TOP_SUFFIX
            self.topology.add_node(tid)
            self.topology.attach(tid, f"{tid}@net0", "net0")

        local_cfg = RaincoreConfig.tuned(
            ring_size=max(len(g) for g in groups), hop_interval=hop_interval
        )
        top_cfg = RaincoreConfig.tuned(
            ring_size=len(groups), hop_interval=hop_interval
        )

        self.members: dict[str, HierarchicalMember] = {}
        self.global_log: dict[str, list[tuple[str, Any]]] = {nid: [] for nid in flat}
        self.local_log: dict[str, list[tuple[str, Any]]] = {nid: [] for nid in flat}

        #: the globally-lowest machine bootstraps the top ring
        self._top_root = min(flat) + TOP_SUFFIX

        for group in self.groups:
            for nid in group:
                local = RaincoreNode(nid, self.loop, self.network, local_cfg)
                top = RaincoreNode(
                    nid + TOP_SUFFIX, self.loop, self.network, top_cfg
                )
                contacts = (
                    [] if nid + TOP_SUFFIX == self._top_root else
                    [t for t in top_ids if t != nid + TOP_SUFFIX]
                )
                member = HierarchicalMember(
                    local,
                    top,
                    contacts,
                    deliver=self._make_deliver(nid),
                )
                self.members[nid] = member

    def _make_deliver(self, nid: str):
        def deliver(origin: str, payload: Any, scope: str) -> None:
            log = self.global_log if scope == "global" else self.local_log
            log[nid].append((origin, payload))

        return deliver

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, budget: float | None = None) -> None:
        """Form every sub-group ring; leaders auto-activate the top ring."""
        for group in self.groups:
            first, *rest = group
            self.members[first].local.start_new_group()
            for nid in rest:
                self.members[nid].local.start_joining([first])
        budget = budget if budget is not None else 5.0 + len(self.machine_ids)
        deadline = self.loop.now + budget
        while self.loop.now < deadline:
            self.loop.run_for(0.05)
            if self.formed():
                return
        raise RuntimeError(
            f"hierarchy failed to form: locals={self.local_views()} "
            f"top={self.top_view()}"
        )

    def formed(self) -> bool:
        """Every sub-group converged and all leaders sit in the top ring."""
        for group in self.groups:
            live = [n for n in group if self.members[n].local.state is not NodeState.DOWN]
            if not live:
                continue
            views = {tuple(sorted(self.members[n].local.members)) for n in live}
            if views != {tuple(sorted(live))}:
                return False
        leaders = self.current_leaders()
        expect = {leader + TOP_SUFFIX for leader in leaders}
        for leader in leaders:
            top = self.members[leader].top
            if top.state is NodeState.DOWN or set(top.members) != expect:
                return False
        return True

    def run(self, duration: float) -> None:
        self.loop.run_for(duration)

    def run_until_formed(self, budget: float) -> bool:
        deadline = self.loop.now + budget
        while self.loop.now < deadline:
            self.loop.run_for(0.05)
            if self.formed():
                return True
        return self.formed()

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------
    def crash_machine(self, nid: str) -> None:
        """Kill a machine: both its protocol endpoints and its NICs."""
        member = self.members[nid]
        member.local.crash()
        member.top.crash()
        self.topology.set_node_up(nid, False)
        self.topology.set_node_up(nid + TOP_SUFFIX, False)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def group_of(self, nid: str) -> list[str]:
        for group in self.groups:
            if nid in group:
                return group
        raise KeyError(nid)

    def current_leaders(self) -> list[str]:
        leaders = []
        for group in self.groups:
            live = [
                n for n in group if self.members[n].local.state is not NodeState.DOWN
            ]
            if live:
                leaders.append(min(live))
        return leaders

    def local_views(self) -> dict[str, tuple[str, ...]]:
        return {
            nid: m.local.members
            for nid, m in self.members.items()
            if m.local.state is not NodeState.DOWN
        }

    def top_view(self) -> tuple[str, ...]:
        for leader in self.current_leaders():
            top = self.members[leader].top
            if top.state is not NodeState.DOWN and top.members:
                return top.members
        return ()

    def live_machines(self) -> list[str]:
        return [
            nid
            for nid, m in self.members.items()
            if m.local.state is not NodeState.DOWN
        ]
