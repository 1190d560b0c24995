"""Distributed process control (simulated in-process).

ADEPT supports partitioning a process schema over several process servers
and migrating the control between them as execution proceeds; the paper
states that dynamic changes remain feasible "also in case of distributed
process control".  This package simulates that setting inside one Python
process: a partitioning assigns activities to servers, a coordinator
executes instances while accounting for control hand-overs and the
messages required to propagate ad-hoc changes and migrations to all
affected servers.

The counters this package *models* (handover, change_propagation,
migration, data_transfer) are *measured* by the real multi-process
service tier in :mod:`repro.service`: shard servers count actual
hand-overs, broadcast messages and bytes on the wire, reported under
the same names (``repro.service.ShardTelemetry``).
"""

from repro.paper.distributed.partitioning import SchemaPartitioning
from repro.paper.distributed.servers import ProcessServer
from repro.paper.distributed.costs import CommunicationCosts
from repro.paper.distributed.coordinator import DistributedCoordinator

__all__ = [
    "SchemaPartitioning",
    "ProcessServer",
    "CommunicationCosts",
    "DistributedCoordinator",
]
