"""The sharded multi-process service tier.

The ADEPT2 paper describes a process *management system* — a server
serving many clients — and the :mod:`repro.paper.distributed`
simulation models multi-server control in-process.  This package makes that real: it puts
a network API in front of :class:`~repro.system.AdeptSystem` and runs
one system *per OS process*, so aggregate throughput scales past the
GIL that bounds the thread-based worker pool.

* :class:`HashRing` — a sha256 consistent-hash ring mapping instance
  ids onto shards; adding or removing a shard remaps only ~K/N of K
  keys, and the mapping is deterministic across processes
  (``PYTHONHASHSEED``-independent).
* :class:`ShardServer` — one process owning one durable
  ``AdeptSystem`` partition (its own store directory, optional worker
  pool and rollout sweeper) behind a length-prefixed JSON socket
  protocol.  Runnable in a thread (tests, doctests) or as a process
  (``python -m repro.service.shard_server``) with SIGTERM/SIGINT
  handlers that flush and checkpoint before exiting.
* :class:`ShardClient` / :class:`ShardRouter` — the client side: the
  router consistent-hashes instance ids onto the shards, fans
  ``step_many`` / ``start`` / ``complete`` batches out per shard in
  parallel and merges the results in input order; ``evolve`` runs a
  two-phase versioned schema broadcast (publish everywhere, then
  activate), worklist offers are aggregated and claims are routed to
  the single owning shard (a single-shard CAS).
* :class:`ShardSupervisor` — spawns and babysits the shard processes
  (per-shard store naming, endpoint discovery, graceful drain,
  kill/restart for the failure drills).
* :class:`ShardTelemetry` — the :mod:`repro.paper.distributed` simulation
  counters (handover, change_propagation, migration, data_transfer)
  promoted to *measured* telemetry emitted by the shard processes.

See the "Service tier" section of ``docs/architecture.md`` for shard
ownership, the schema broadcast protocol, the cross-shard worklist and
the failure model.
"""

from repro.service.errors import (
    RemoteError,
    ServiceError,
    ShardProtocolError,
    ShardUnavailableError,
)
from repro.service.hashring import HashRing
from repro.service.router import ShardClient, ShardRouter
from repro.service.shard_server import ShardServer, run_shard_server
from repro.service.supervisor import ShardSupervisor
from repro.service.telemetry import ShardTelemetry

__all__ = [
    "HashRing",
    "ShardServer",
    "ShardClient",
    "ShardRouter",
    "ShardSupervisor",
    "ShardTelemetry",
    "ServiceError",
    "ShardProtocolError",
    "ShardUnavailableError",
    "RemoteError",
    "run_shard_server",
]
