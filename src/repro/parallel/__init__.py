"""Lockstep-epoch determinism harness for multi-ring topologies.

Partitions a topology into natural shard groups (connected components
once deterministic *trunk* segments are cut), runs them on one event loop
in lockstep epochs bounded by the minimum trunk latency, and exchanges
trunk packets as canonically-ordered batches at epoch boundaries — so one
seed yields identical trace bytes.  See docs/PARALLEL.md for the model,
the determinism contract, and why there is no multi-process engine.
"""

from repro.parallel.coordinator import (
    ParallelRunResult,
    ParallelSimulator,
    epoch_boundaries,
)
from repro.parallel.exchange import SerialExchange
from repro.parallel.partition import (
    CutEdge,
    ShardGroup,
    ShardPlan,
    partition_topology,
)
from repro.parallel.workloads import WORKLOADS, build_workload

__all__ = [
    "CutEdge",
    "ParallelRunResult",
    "ParallelSimulator",
    "SerialExchange",
    "ShardGroup",
    "ShardPlan",
    "WORKLOADS",
    "build_workload",
    "epoch_boundaries",
    "partition_topology",
]
