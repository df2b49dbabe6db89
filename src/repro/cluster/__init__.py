"""Fault-tolerant sharded cluster: scatter-gather grouping over N
line-protocol shards.

The paper's identifier-only GROUPBY is what makes this distribution
sound: a shard can group its contiguous slice of a document and report
grouping bases plus partial aggregates, and the coordinator's
slice-major union restores exactly the single-node answer (asserted
structurally in the identity tests).  See :mod:`repro.cluster.merge`
for the algebra, :mod:`repro.cluster.coordinator` for the robustness
core (deadline budgets, hedged retries, quarantine, typed partial
degradation), and :mod:`repro.cluster.launcher` for in-process
bring-up.
"""

from .client import ShardClient
from .coordinator import (
    ClusterConfig,
    ClusterCoordinator,
    ClusterHealth,
    ClusterLoadReport,
    ClusterResult,
    ClusterStatistics,
    SliceLoad,
)
from .launcher import LocalCluster, LocalClusterConfig, ShardStack
from .merge import MergePlan, compile_merge, merge_rows
from .shardmap import (
    DocumentPlacement,
    ShardMap,
    SlicePlacement,
    replica_alias,
    stable_hash,
)

__all__ = [
    "ClusterConfig",
    "ClusterCoordinator",
    "ClusterHealth",
    "ClusterLoadReport",
    "ClusterResult",
    "ClusterStatistics",
    "DocumentPlacement",
    "LocalCluster",
    "LocalClusterConfig",
    "MergePlan",
    "ShardClient",
    "ShardMap",
    "ShardStack",
    "SliceLoad",
    "SlicePlacement",
    "compile_merge",
    "merge_rows",
    "replica_alias",
    "stable_hash",
]
