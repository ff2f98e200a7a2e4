"""Data-parallel cluster serving: replica groups and request routing.

Scales the serving layer *out* where :class:`~repro.systems.cost.ParallelismSpec`
scales it *up*: a :class:`ReplicaGroup` runs several independent sharded
:class:`~repro.serving.engine.ContinuousBatchingEngine` replicas, a
:class:`Router` load-balances the arrival trace across them (round-robin,
join-shortest-queue by KV footprint, or least-loaded by estimated
completion time), and a :class:`ClusterTrace`, fed every replica's records
as they are produced, reports cluster-level latency/goodput metrics while
each replica's light :class:`ReplicaTrace` view keeps its breakdown.
:class:`ClusterLayout` parses the compact axis labels (``"tp-4"``,
``"2x(tp-2)"``) the serving sweep's ``cluster`` axis accepts.
"""

from repro.cluster.group import ReplicaGroup, SimulatorFactory
from repro.cluster.layout import ClusterLayout
from repro.cluster.router import ROUTING_POLICIES, Router
from repro.cluster.trace import ClusterTrace, ReplicaTrace, StreamingClusterTrace
from repro.hardware.presets import (
    ClusterSpec,
    cluster_of,
    validate_equal_gpu_count,
)

__all__ = [
    "ROUTING_POLICIES",
    "ClusterLayout",
    "ClusterSpec",
    "ClusterTrace",
    "ReplicaGroup",
    "ReplicaTrace",
    "Router",
    "SimulatorFactory",
    "StreamingClusterTrace",
    "cluster_of",
    "validate_equal_gpu_count",
]
