"""The service façade layer — one system, one interface.

This package composes the repro's loose components (schema repository,
instance store, execution engine, worklist manager, ad-hoc changer,
migration manager, organisational model, monitoring) into a single
:class:`AdeptSystem` service with:

* **handle-based sessions** — :class:`TypeHandle` / :class:`InstanceHandle`
  address everything by ID instead of passing live objects around;
* **transactional ChangeSets** — :class:`ChangeSet` batches change
  operations fluently and applies them all-or-nothing as one changelog
  entry;
* **a pluggable EventBus** — :class:`EventBus` delivers every engine,
  change, schema and migration event to subscribers in order
  (:class:`repro.monitoring.EventFeed` is the first subscriber);
* **structured results** — :class:`StepResult`, :class:`RunResult`,
  :class:`ChangeResult`, :class:`DeployResult`;
* **durability** — :meth:`AdeptSystem.open` attaches a
  :class:`PersistentBackend` (typed write-ahead log + atomic snapshots)
  so the system survives restarts and crashes, with an LRU-bounded live
  cache hydrating cases from the instance store on access;
* **a multi-worker runtime** — every public method is thread-safe: each
  runs as one operation under the system's single execution lock, with
  group-committed journaling flushed outside it; ``system.serve(workers=N)``
  runs a :class:`WorkerPool` whose workers claim and complete work items
  from one shared queue, running each activity's worker function outside
  the lock.

See ``docs/api.md``, ``docs/persistence.md`` and the concurrency section
of ``docs/architecture.md`` for the full tour.
"""

from repro.system.changes import ChangeSet
from repro.system.concurrency import (
    LockTable,
    PoolStats,
    RolloutSweeper,
    WorkerPool,
    simulated_latency_worker,
)
from repro.system.events import ALL_CATEGORIES, EventBus, SystemEvent
from repro.system.evolution import (
    MIGRATE_COMPLIANT,
    MIGRATE_NONE,
    MIGRATE_ROLLBACK,
    MIGRATE_STRICT,
)
from repro.system.facade import AdeptSystem
from repro.system.handles import InstanceHandle, TypeHandle
from repro.system.persistence import (
    PersistenceError,
    PersistentBackend,
    RecoveryError,
    RecoveryReport,
)
from repro.system.results import ChangeResult, DeployResult, RunResult, StepResult
from repro.system.rollout import (
    POLICY_PIN,
    POLICY_REVERT,
    ROLLOUT_CANARY,
    ROLLOUT_EAGER,
    ROLLOUT_LAZY,
    Rollout,
)

__all__ = [
    "AdeptSystem",
    "ChangeSet",
    "EventBus",
    "SystemEvent",
    "ALL_CATEGORIES",
    "TypeHandle",
    "InstanceHandle",
    "StepResult",
    "RunResult",
    "ChangeResult",
    "DeployResult",
    "MIGRATE_COMPLIANT",
    "MIGRATE_NONE",
    "MIGRATE_ROLLBACK",
    "MIGRATE_STRICT",
    "PersistentBackend",
    "PersistenceError",
    "RecoveryError",
    "RecoveryReport",
    "WorkerPool",
    "PoolStats",
    "LockTable",
    "simulated_latency_worker",
    "Rollout",
    "RolloutSweeper",
    "ROLLOUT_EAGER",
    "ROLLOUT_LAZY",
    "ROLLOUT_CANARY",
    "POLICY_REVERT",
    "POLICY_PIN",
]
