#!/usr/bin/env python3
"""The same protocol stack on real UDP sockets (asyncio runtime).

Every other example runs in simulated time; this one forms a Raincore
group over actual UDP datagrams on 127.0.0.1, driven by wall-clock timers —
the protocol code is byte-for-byte identical (paper §2.1: "In typical
implementations, it uses UDP").

Run:  python examples/asyncio_udp_demo.py
"""

import asyncio

from repro.core.config import RaincoreConfig
from repro.core.events import RecordingListener
from repro.core.session import RaincoreNode
from repro.runtime import AsyncioScheduler, UdpFabric

NODE_IDS = ["alpha", "beta", "gamma"]
BASE_PORT = 40000


async def main() -> None:
    fabric = UdpFabric({nid: BASE_PORT + i for i, nid in enumerate(NODE_IDS)})
    scheduler = AsyncioScheduler(asyncio.get_running_loop(), seed=7)
    config = RaincoreConfig.tuned(ring_size=len(NODE_IDS), hop_interval=0.02)

    nodes, listeners = {}, {}
    for nid in NODE_IDS:
        listeners[nid] = RecordingListener()
        nodes[nid] = RaincoreNode(nid, scheduler, fabric, config, listeners[nid])
    await fabric.open_all()

    first, *rest = NODE_IDS
    nodes[first].start_new_group()
    for nid in rest:
        nodes[nid].start_joining([first])

    # Wait (in real time!) for the group to form.
    for _ in range(100):
        await asyncio.sleep(0.05)
        if all(set(n.members) == set(NODE_IDS) for n in nodes.values()):
            break
    print(f"group formed over real UDP: {nodes[first].members}")

    nodes["beta"].multicast(b"hello from beta, via an actual datagram")
    for _ in range(100):
        await asyncio.sleep(0.05)
        if all(listeners[nid].deliveries for nid in NODE_IDS):
            break
    for nid in NODE_IDS:
        d = listeners[nid].deliveries[0]
        print(f"  {nid} delivered {d.payload!r} from {d.origin}")

    print("\nkilling gamma (socket closed, process state dropped) ...")
    nodes["gamma"].crash()
    fabric.close("gamma")
    for _ in range(200):
        await asyncio.sleep(0.05)
        if all(set(nodes[nid].members) == {"alpha", "beta"} for nid in ("alpha", "beta")):
            break
    print(f"survivors converged: {nodes['alpha'].members}")

    stats = {nid: fabric.stats.for_node(nid).packets_sent for nid in NODE_IDS}
    print(f"real datagrams sent per node: {stats}")

    for n in nodes.values():
        n.crash()
    fabric.close_all()


if __name__ == "__main__":
    asyncio.run(main())
