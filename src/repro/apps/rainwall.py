"""Rainwall — the firewall-clustering application of paper §3.2.

    "Rainwall is a commercial application using Raincore Distributed
    Services to deliver a high-availability and load-balancing clustering
    solution for firewalls. ...  Rainwall also includes a kernel-level
    software packet engine that load-balances traffic connection by
    connection to all firewall nodes in the cluster.  The load and
    connection assignment information are shared among the cluster using
    the Raincore Distributed Session Service."

Composition (everything rides one simulated cluster):

* a :class:`~repro.cluster.harness.RaincoreCluster` of gateway nodes;
* per node: a :class:`~repro.data.shared_dict.SharedDict` replica, a
  :class:`~repro.apps.vip.VirtualIPManager`, a rule-based
  :class:`~repro.apps.firewall.Firewall`, and periodic load publication
  into the shared dictionary — the "load information shared using
  Raincore";
* one :class:`~repro.apps.traffic.TrafficEngine` carrying the HTTP
  workload, admitted and placed by the packet engine
  (:meth:`RainwallCluster._admit`): resolve the VIP through the subnet's
  ARP view, filter through the firewall policy, then place the connection
  on the least-loaded live gateway;
* a replicated :class:`~repro.apps.conntrack.ConnectionTable` — the
  paper's "connection assignment information ... shared among the cluster
  using the Raincore Distributed Session Service": placements are
  multicast asynchronously (the fast path never waits), and on a view
  change the survivors adopt the dead gateway's connections from their
  replica and resume them the moment their re-assignment op is delivered;
* critical-resource monitoring of each gateway's external NIC, so an
  unplugged cable shuts the node down and triggers fail-over (the paper's
  §3.2 experiment);
* a client-retry loop: connections whose SYN blackholed (stale ARP during
  a fail-over window) are re-admitted periodically, modelling TCP
  retransmission — the only simulator-side repair, because it models the
  *clients*, not the cluster.  Everything cluster-side is protocol-driven,
  so measured fail-over times are honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.conntrack import ConnectionTable
from repro.apps.firewall import ALLOW_WEB_POLICY, Firewall, Rule
from repro.apps.traffic import Flow, TrafficEngine
from repro.apps.vip import ArpSubnet, VirtualIPManager
from repro.cluster.harness import RaincoreCluster
from repro.core.events import SessionListener, ensure_composite
from repro.core.resources import CriticalResource
from repro.core.states import NodeState
from repro.data.shared_dict import SharedDict
from repro.net.stats import CpuModel

__all__ = ["RainwallConfig", "RainwallCluster", "RainwallNode"]

#: Seconds between a gateway's shared load-table refreshes.
LOAD_PUBLISH_INTERVAL = 0.100
#: Seconds between client-retry scans for blackholed connections.
REPAIR_INTERVAL = 0.025


@dataclass
class RainwallConfig:
    """Rainwall deployment knobs (defaults match the Fig. 3 testbed scale)."""

    vips: list[str] = field(default_factory=lambda: ["10.1.0.1", "10.1.0.2"])
    rules: list[Rule] = field(default_factory=lambda: list(ALLOW_WEB_POLICY))
    arrival_rate: float = 200.0  #: connections per second
    flow_size: float = 500_000.0  #: bytes per download


class RainwallNode(SessionListener):
    """Per-gateway Rainwall agent: load publication and health coupling."""

    def __init__(
        self,
        cluster: "RainwallCluster",
        node_id: str,
    ) -> None:
        self.cluster = cluster
        self.node_id = node_id
        self.node = cluster.raincore.node(node_id)
        self.firewall = Firewall(list(cluster.config.rules))
        ensure_composite(self.node).add(self)
        self._publish_timer = None

    # ------------------------------------------------------------------
    def start_publishing(self) -> None:
        self._arm()

    def _arm(self) -> None:
        self._publish_timer = self.node.loop.call_later(
            LOAD_PUBLISH_INTERVAL, self._publish
        )

    def _publish(self) -> None:
        """Share this gateway's load through Raincore (paper §3.2)."""
        if self.node.state is NodeState.DOWN:
            return
        port = self.cluster.engine.gateways[self.node_id]
        self.cluster.shared[self.node_id].set(f"load:{self.node_id}", len(port.flows))
        self._arm()

    # ------------------------------------------------------------------
    def on_state_change(self, old, new) -> None:
        if new is NodeState.DOWN:
            # The forwarding plane dies with the node: its flows blackhole
            # until the cluster detects the failure and repairs them.
            self.cluster.engine.set_gateway_up(self.node_id, False)

    def on_shutdown(self, reason: str) -> None:
        if self._publish_timer is not None:
            self._publish_timer.cancel()


class RainwallCluster:
    """A complete simulated Rainwall deployment.

    Typical benchmark use::

        rw = RainwallCluster(["g1", "g2"], seed=1)
        rw.start()
        rw.run(10.0)
        print(rw.throughput_mbps(since=2.0))
    """

    def __init__(
        self,
        node_ids: list[str],
        *,
        seed: int = 0,
        config: RainwallConfig | None = None,
    ) -> None:
        self.config = config if config is not None else RainwallConfig()
        self.raincore = RaincoreCluster(node_ids, seed=seed)
        self.loop = self.raincore.loop
        self.subnet = ArpSubnet()
        self.shared: dict[str, SharedDict] = {}
        self.vip_managers: dict[str, VirtualIPManager] = {}
        self.conntrack: dict[str, ConnectionTable] = {}
        self.agents: dict[str, RainwallNode] = {}
        self.engine = TrafficEngine(
            self.loop,
            self._admit,
            self.config.vips,
            arrival_rate=self.config.arrival_rate,
            flow_size=self.config.flow_size,
        )
        self.engine.on_complete = self._on_flow_complete
        for node_id in node_ids:
            node = self.raincore.node(node_id)
            shared = SharedDict(node)
            self.shared[node_id] = shared
            self.vip_managers[node_id] = VirtualIPManager(
                node, shared, self.subnet, self.config.vips
            )
            self.conntrack[node_id] = ConnectionTable(
                node, on_assignment=self._apply_assignment
            )
            self.agents[node_id] = RainwallNode(self, node_id)
            self.engine.add_gateway(node_id)
            addr = self.raincore.topology.addresses_of(node_id)[0]
            node.monitor.add(
                CriticalResource(
                    "external-nic",
                    lambda a=addr: self.raincore.topology.nic_up(a),
                    poll_interval=0.050,
                )
            )
        self._repair_timer = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, form_time: float | None = None) -> None:
        """Form the group, bind VIPs, start traffic and repair loops."""
        self.raincore.start_all(form_time)
        # Let the coordinator's initial VIP assignment propagate and ARP.
        self.loop.run_for(0.5)
        for agent in self.agents.values():
            agent.start_publishing()
        self.engine.start()
        self._arm_repair()

    def run(self, duration: float) -> None:
        self.loop.run_for(duration)

    # ------------------------------------------------------------------
    # the packet engine
    # ------------------------------------------------------------------
    def _live_view(self) -> tuple[str, ...]:
        """The membership as the surviving cluster currently agrees it."""
        live = self.raincore.live_nodes()
        if not live:
            return ()
        leader = min(live, key=lambda n: n.node_id)
        return leader.members

    def _least_loaded(self, candidates: tuple[str, ...]) -> str | None:
        """Pick by the Raincore-shared load table (paper §3.2).

        Deliberately consults only cluster-visible state (the membership
        view and the shared load table), never the simulator's ground truth
        about which gateways are physically up: a connection placed on a
        gateway the cluster has not yet learned is dead simply stalls until
        the 911/membership machinery catches up — that is the fail-over
        latency the paper measures.
        """
        live = self.raincore.live_nodes()
        if not live or not candidates:
            return None
        leader = min(live, key=lambda n: n.node_id)
        table = self.shared[leader.node_id]
        usable = [c for c in candidates if c in self.engine.gateways]
        if not usable:
            return None
        return min(usable, key=lambda c: (table.get(f"load:{c}", 0), c))

    def _admit(self, flow: Flow) -> str | None:
        """Admission + placement of one new connection.

        Returns the chosen gateway, or None for a policy deny.  A flow whose
        VIP is currently unresolvable (owner just died, ARP not yet
        refreshed) is admitted but unplaced: the traffic engine stalls it
        and the repair loop places it once fail-over completes — that stall
        is the client-visible hiccup of paper §3.2.
        """
        entry = self.subnet.resolve(flow.vip)
        if entry is None or not self.engine.gateways.get(entry, None) or not self.engine.gateways[entry].up:
            # Blackholed SYN: admitted, waits for VIP fail-over + retry.
            members = self._live_view()
            if not members:
                return None
            # Policy still applies (any gateway enforces the same policy).
            any_fw = next(iter(self.agents.values())).firewall
            if not any_fw.permits(flow):
                return None
            return "\0stall"  # sentinel: engine keeps the flow unplaced
        if not self.agents[entry].firewall.permits(flow):
            return None
        target = self._least_loaded(self._live_view())
        if target is None:
            return "\0stall"
        # Fast path forwards immediately; the assignment replicates
        # asynchronously through the entry gateway's connection table.
        self.conntrack[entry].record(flow.flow_id, target)
        return target

    def _apply_assignment(self, flow_id: int, gateway: str) -> None:
        """A ConnAssign op naming *this cluster's* ``gateway`` was delivered
        at that gateway: if the flow is stalled (orphan adoption), resume
        it there.  Fresh placements are already forwarding — no-op."""
        flow = self.engine.flows.get(flow_id)
        if flow is None or flow.done or flow.gateway is not None:
            return
        self.engine.reassign_flows([flow_id], lambda f: gateway)

    def _on_flow_complete(self, flow: Flow) -> None:
        """Connection teardown: the handling gateway retires the table entry."""
        gw = flow.gateway
        if gw in self.conntrack and self.raincore.node(gw).is_member:
            self.conntrack[gw].close(flow.flow_id)

    # ------------------------------------------------------------------
    # client retry loop (models TCP SYN retransmission, not the cluster)
    # ------------------------------------------------------------------
    def _arm_repair(self) -> None:
        self._repair_timer = self.loop.call_later(REPAIR_INTERVAL, self._retry_clients)

    def _retry_clients(self) -> None:
        live = self.raincore.live_nodes()
        if live:
            leader = min(live, key=lambda n: n.node_id)
            table = self.conntrack[leader.node_id]
            for fid in self.engine.stalled_flow_ids():
                home = table.home_of(fid)
                if home is not None:
                    continue  # known to the cluster: adoption will resume it
                # Unknown connection: the client retransmits its SYN, which
                # goes through ordinary admission again.
                flow = self.engine.flows[fid]
                target = self._admit(flow)
                if target and target != "\0stall":
                    self.engine.reassign_flows([fid], lambda f, t=target: t)
        self._arm_repair()

    # ------------------------------------------------------------------
    # fault injection & reporting
    # ------------------------------------------------------------------
    def unplug_gateway(self, node_id: str) -> str:
        """The paper's fail-over experiment: yank one gateway's cable."""
        return self.raincore.faults.unplug_cable(node_id)

    def crash_gateway(self, node_id: str) -> None:
        self.raincore.faults.crash_node(node_id)
        self.engine.set_gateway_up(node_id, False)

    def throughput_mbps(self, since: float = 0.0, until: float | None = None) -> float:
        return self.engine.throughput_bps(since, until) / 1e6

    def failover_gap(self) -> float:
        """Longest client-visible traffic hiccup in seconds (paper: <2 s)."""
        return self.engine.longest_gap()

    def rainwall_cpu_percent(self, duration: float, model: CpuModel | None = None) -> dict[str, float]:
        """Per-gateway CPU share spent on Raincore/Rainwall coordination.

        The paper reports "Rainwall CPU usage is below 1%" throughout the
        Fig. 3 benchmark; this derives the same figure from the task-switch
        and packet accounting instead of asserting it.
        """
        model = model if model is not None else CpuModel()
        return {
            node_id: 100.0 * model.gc_cpu_seconds(
                self.raincore.stats.for_node(node_id)
            ) / duration
            for node_id in self.agents
        }
