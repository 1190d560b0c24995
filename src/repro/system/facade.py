"""The :class:`AdeptSystem` service façade.

The ADEPT2 paper describes one process-management *system* that owns
schema versioning, instance execution, ad-hoc change and compliance-
checked migration behind a single service interface.  This module is
that interface for the reproduction: one object composing the schema
repository, the instance store, the execution engine, the worklist
manager, the ad-hoc changer, the migration manager, the organisational
model and the monitoring feed — wired once, correctly, with every state
change flowing through one :class:`~repro.system.events.EventBus`.

Typical use::

    from repro import AdeptSystem

    system = AdeptSystem()
    orders = system.deploy(schema)                  # -> TypeHandle
    case = orders.start(customer="jane")            # -> InstanceHandle
    case.complete("get_order")
    case.change(comment="rush order") \
        .serial_insert("call_customer", pred="confirm_order", succ="compose_order") \
        .apply()                                    # transactional ChangeSet
    report = orders.evolve(change_set, migrate="compliant")

Everything is addressed by ID — handles are thin references that stay
valid across save/load cycles and migrations.

**Concurrency.**  One system may be driven from many threads; every
public method is thread-safe because the system has one writer at a
time.  Each public operation holds the system's one execution lock
(:class:`~repro.system.concurrency.LockTable`) from start to end, so
operations are serialised whole: the registry, the store, the worklists,
the rollouts and the journal are only ever changed by the thread that
holds it.  Two waits happen outside the lock: the group-commit flush of
the WAL records an operation journaled, and the worker function of a
pool worker (see ``docs/architecture.md``).

Whoever works on a case synchronises *that case's* work items before it
lets go of the case (the exits of :meth:`AdeptSystem._case_execution`
and :meth:`AdeptSystem._batch_execution`) — no request ever rescans the
population.

:meth:`serve` / :meth:`drain` run a :class:`~repro.system.concurrency.
WorkerPool` over the worklist — the multi-worker runtime that actually
exploits this.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from typing import (
    Any,
    ContextManager,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Union,
)

from repro import json_codec
from repro.core.adhoc import AdHocChanger
from repro.core.changelog import ChangeLog
from repro.core.evolution import ProcessType, TypeChange
from repro.core.migration import (
    InstanceMigrationResult,
    MigrationManager,
    MigrationOutcome,
    MigrationReport,
)
from repro.core.migration_plan import ClassVerdict, FingerprintCache, MigrationPlan
from repro.core.operations import ChangeOperation
from repro.errors import MigrationError
from repro.monitoring.feed import EventFeed
from repro.monitoring.monitor import InstanceMonitor
from repro.monitoring.statistics import PopulationStatistics
from repro.runtime.engine import EngineError, ProcessEngine, Worker
from repro.runtime.events import EventLog
from repro.runtime.instance import ProcessInstance
from repro.runtime.states import ACTIVE_STATUS_VALUES, InstanceStatus
from repro.runtime.worklist import WorkItem, WorklistManager
from repro.schema.graph import ProcessSchema, SchemaError
from repro.storage.instance_store import InstanceStore, StorageError, StoredInstance
from repro.storage.repository import SchemaRepository
from repro.storage.serialization import instance_from_dict, instance_to_dict
from repro.system.concurrency import LockTable, PoolStats, WorkerPool
from repro.system.persistence import (
    KIND_ADHOC_CHANGE,
    KIND_EVOLUTION,
    KIND_INSTANCE_ABORTED,
    KIND_INSTANCE_ADOPTED,
    KIND_INSTANCE_DELETED,
    KIND_INSTANCE_SAVED,
    KIND_INSTANCE_STARTED,
    KIND_ROLLOUT_COMPLETED,
    KIND_ROLLOUT_CONFLICTED,
    KIND_ROLLOUT_MIGRATED,
    KIND_ROLLOUT_PROMOTED,
    KIND_ROLLOUT_ROLLED_BACK,
    KIND_ROLLOUT_STARTED,
    KIND_STEP,
    KIND_TYPE_ADOPTED,
    KIND_TYPE_DEPLOYED,
    PersistentBackend,
    RecoveryReport,
)
from repro.system.rollout import (
    POLICY_PIN,
    POLICY_REVERT,
    ROLLOUT_CANARY,
    ROLLOUT_EAGER,
    ROLLOUT_LAZY,
    STATE_MIGRATING,
    STATE_OBSERVING,
    Rollout,
)
from repro.system.changes import ChangeSet
from repro.system.events import (
    CATEGORY_CHANGE,
    CATEGORY_MIGRATION,
    CATEGORY_SCHEMA,
    CATEGORY_SYSTEM,
    EventBus,
)
from repro.system.handles import InstanceHandle, TypeHandle
from repro.system.results import ChangeResult, DeployResult, RunResult, StepResult
from repro.verification.verifier import SchemaVerifier

#: Migration policies accepted by :meth:`AdeptSystem.evolve`.
MIGRATE_COMPLIANT = "compliant"
MIGRATE_NONE = "none"
MIGRATE_STRICT = "strict"
MIGRATE_ROLLBACK = "rollback"

#: Upper bound on cases executed under one :meth:`AdeptSystem.step_many`
#: batch scope.  Large enough to amortise the per-chunk kernel dispatch;
#: with a bounded live cache the chunk never exceeds the cache, so
#: hydrating a chunk never evicts a case of the same chunk.
_BATCH_CHUNK = 16

#: The scope of "no suspension": stateless, so shared.
_NULL_SCOPE: ContextManager[None] = nullcontext()

_CONFLICT_OUTCOMES = (
    MigrationOutcome.STATE_CONFLICT,
    MigrationOutcome.STRUCTURAL_CONFLICT,
    MigrationOutcome.SEMANTIC_CONFLICT,
    MigrationOutcome.DATA_CONFLICT,
)

ChangeLike = Union[TypeChange, ChangeSet, ChangeLog, Sequence[ChangeOperation]]

#: What the default monitoring feed shows: the effects of changes and of
#: the system's own lifecycle, not the per-step ``engine`` stream.
FEED_CATEGORIES = (CATEGORY_CHANGE, CATEGORY_MIGRATION, CATEGORY_SCHEMA, CATEGORY_SYSTEM)


def _json_serialisable(outputs: Mapping[str, Any]) -> None:
    """Fail-fast check installed as the engine's step-outputs validator."""
    json_codec.dumps(outputs)


def _operation(method: Any) -> Any:
    """Run a façade method as one operation of the system.

    The outermost call holds the execution lock for the whole method; a
    call made inside another operation runs within the caller's.  On a
    durable system the call also opens the backend's commit scope
    *outside* the lock: its records — ``step`` records included — are
    enqueued under the lock and written and flushed once, after the lock
    is released, and the call returns only after that (also when the
    method raises) — the durability wait holds up no other operation.
    """

    @functools.wraps(method)
    def operation(self: "AdeptSystem", *args: Any, **kwargs: Any) -> Any:
        lock = self._lock
        if lock.held():
            return method(self, *args, **kwargs)
        backend = self._backend
        if backend is None:
            with lock.holding():
                return method(self, *args, **kwargs)
        with backend.commit_scope(), lock.holding():
            return method(self, *args, **kwargs)

    return operation


class AdeptSystem:
    """One process-management service composing all components of the repro.

    Args:
        org_model: Optional organisational model for worklist resolution.
        bus: A pluggable :class:`EventBus`; a fresh one is created when
            omitted.  All engine, change, schema and migration events are
            published on it; it builds those of the categories its
            subscribers want.
        monitor: When True (default), a :class:`repro.monitoring.EventFeed`
            is attached as the first bus subscriber, to
            :data:`FEED_CATEGORIES` (everything but ``engine``), and
            exposed as :attr:`feed`.
        cache_instances: Optional cap on the number of *live* (in-memory)
            instances.  With a cap, cases hydrate from the instance store
            on access and the least-recently-used clean cases are evicted
            (dirty ones are saved first) — populations larger than memory
            stay addressable.  ``None`` (default) keeps every case live.

    Migration has one configuration: compliance is decided by the
    per-operation compliance conditions, and the instance store keeps the
    hybrid substitution representation of the paper's Fig. 2.  What a
    migration does with a state-conflicting case is a policy of each
    :meth:`evolve` call (``migrate=``), journaled with the evolution, so
    recovery replays it whatever the reopened system was constructed with.
    """

    def __init__(
        self,
        org_model: Optional[Any] = None,
        bus: Optional[EventBus] = None,
        monitor: bool = True,
        cache_instances: Optional[int] = None,
    ) -> None:
        # an empty EventBus is falsy (it has __len__), so test for None explicitly
        self.bus = bus if bus is not None else EventBus()
        self.feed: Optional[EventFeed] = None
        if monitor:
            # the monitoring package is the first subscriber on the bus
            self.feed = EventFeed()
            self.bus.subscribe(self.feed, categories=FEED_CATEGORIES)
        self.event_log = EventLog()
        self.event_log.subscribe(self.bus.publish_engine_event)

        self.org_model = org_model
        self.engine = ProcessEngine(event_log=self.event_log)
        self.repository = SchemaRepository()
        self.store = InstanceStore(self.repository)
        self.worklists = WorklistManager(self.engine, org_model=org_model)
        self.verifier = SchemaVerifier()
        self._changer = AdHocChanger(self.engine, event_log=self.event_log)
        self._migrator = MigrationManager(self.engine, event_log=self.event_log)
        #: Live-instance cache in LRU order (most recently used last).
        self._instances: "OrderedDict[str, ProcessInstance]" = OrderedDict()
        #: Live cases mutated since their last store save (never evicted silently).
        self._dirty: Set[str] = set()
        self._case_counters: Dict[str, int] = {}
        self.cache_instances = cache_instances
        self._backend: Optional[PersistentBackend] = None
        self._closed = False
        #: Report of the recovery performed by :meth:`open` (``None`` otherwise).
        self.last_recovery: Optional[RecoveryReport] = None

        #: The execution lock: every operation holds it from start to end.
        #: Its outermost exit runs the canary decisions the operation took.
        self._lock = LockTable(on_release=self._run_rollout_decisions)
        self._pool: Optional[WorkerPool] = None
        # serve()/drain() are check-then-act on _pool; racing callers
        # must resolve to one pool, not two (one of which would leak).
        # Not the execution lock: drain waits for workers that need it
        self._pool_guard = threading.Lock()

        # ---- progressive rollout state (see repro.system.rollout) ----
        #: In-flight progressive rollouts, one per type id.
        self._rollouts: Dict[str, Rollout] = {}
        #: Finished rollouts (completed / rolled back), for status queries.
        self._rollout_history: Dict[str, Rollout] = {}
        #: Versions retired by a "pin"-policy canary rollback — never
        #: picked for new cases, though pinned cases keep running on them.
        self._retired_versions: Dict[str, Set[int]] = {}
        #: Canary decisions taken by a touch or a sweep; they run when the
        #: operation that took them ends (:meth:`_run_rollout_decisions`).
        self._rollout_decisions: List[tuple] = []

        # journaling + dirty tracking for every committed activity transition
        self.engine.step_listener = self._on_engine_step
        # lazy on-touch migration: every engine transition checks the
        # case against an in-flight rollout of its type first
        self.engine.touch_listener = self._touch_for_rollout
        # claiming a work item of an evicted case re-hydrates it transparently
        self.worklists.instance_resolver = self.get_instance
        # worklist engine calls run under the same locks as direct calls
        self.worklists.execution_guard = self._case_execution

    # ------------------------------------------------------------------ #
    # execution scopes
    # ------------------------------------------------------------------ #

    @contextmanager
    def _case_execution(self, instance_id: str) -> Iterator[ProcessInstance]:
        """The canonical execution scope for one case.

        Yields the live instance — adopting an in-flight rollout's version
        first — and, on the way out, synchronises its work items: the one
        place a stepped, changed, claimed or aborted case meets the
        worklist.  Runs inside the calling operation; an engine call of
        the worklist manager made outside any operation (its execution
        guard is this scope) takes the lock itself — no commit scope is
        open then, so its ``step`` record is committed at the step.
        """
        if not self._lock.held():
            with self._lock.holding(), self._case_execution(instance_id) as instance:
                yield instance
            return
        instance = self._live(instance_id)
        try:
            if self._rollouts:
                # lazy on-touch migration: the case adopts an in-flight
                # rollout's version before it is worked on (claim, step,
                # change, save — every path through this scope)
                self._touch_for_rollout(instance)
            yield instance
        finally:
            self.worklists.sync_instance(instance)

    @contextmanager
    def _batch_execution(self, instance_ids: List[str]) -> Iterator[List[ProcessInstance]]:
        """Execution scope for a same-type batch of cases (inside an operation).

        The batch twin of :meth:`_case_execution`: yields the hydrated
        live instances in batch order and synchronises the work items of
        exactly those cases on the way out.
        """
        instances: List[ProcessInstance] = []
        try:
            for instance_id in instance_ids:
                instance = self._live(instance_id)
                instances.append(instance)
                if self._rollouts:
                    self._touch_for_rollout(instance)
            yield instances
        finally:
            for instance in instances:
                self.worklists.sync_instance(instance)

    # ------------------------------------------------------------------ #
    # durability: open / journaling / checkpoint / close
    # ------------------------------------------------------------------ #

    @classmethod
    def open(
        cls,
        path: str,
        cache_instances: Optional[int] = None,
        **kwargs: Any,
    ) -> "AdeptSystem":
        """Open (or create) a durable system backed by ``path``.

        Attaches a :class:`~repro.system.persistence.PersistentBackend`
        to a freshly constructed system, loads the latest snapshot and
        replays the write-ahead-log suffix — after a crash or a clean
        :meth:`close` this reproduces the exact committed state (types,
        versions, instance markings, histories, biases).  All further
        mutations are journaled.  Keyword arguments are forwarded to the
        constructor; the :class:`RecoveryReport` is exposed as
        :attr:`last_recovery` and published on the bus as a
        ``recovery_completed`` event.
        """
        backend = PersistentBackend(path)
        system = cls(cache_instances=cache_instances, **kwargs)
        system._attach_backend(backend)
        with system._lock.holding():
            report = backend.recover(system)
        system.last_recovery = report
        system.bus.publish(
            CATEGORY_SYSTEM,
            "recovery_completed",
            snapshot_loaded=report.snapshot_loaded,
            snapshot_instances=report.snapshot_instances,
            replayed_records=report.replayed_records,
        )
        return system

    @property
    def backend(self) -> Optional[PersistentBackend]:
        """The attached durability backend (``None`` for in-memory systems)."""
        return self._backend

    def _attach_backend(self, backend: PersistentBackend) -> None:
        self._backend = backend
        # outputs the WAL cannot record must reject the step before any
        # state is mutated — otherwise the journal and the committed
        # in-memory transition would silently diverge
        self.engine.step_outputs_validator = _json_serialisable

    def close(self, checkpoint: bool = True) -> None:
        """Checkpoint (by default) and release the durability backend.

        Stops a still-serving worker pool first.  A no-op for purely
        in-memory systems (apart from the pool stop).  The system object
        remains usable afterwards, but further mutations are journaled to
        a WAL whose handle reopens transparently — call :meth:`close`
        again before discarding it.

        Idempotent: a second :meth:`close` with no mutation in between
        returns immediately.  Signal handlers (the shard server flushes
        and checkpoints on SIGTERM) and ``finally`` blocks can therefore
        both call it without double-checkpointing or reopening the WAL
        handle just to close it again.
        """
        with self._pool_guard:
            pool = self._pool
            self._pool = None
        if pool is not None and pool.active:
            pool.stop()
        if self._backend is None or self._closed:
            return
        if checkpoint:
            self.checkpoint()
        self._backend.close()
        self._closed = True

    def __enter__(self) -> "AdeptSystem":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    def _journal(self, kind: str, **fields: Any) -> None:
        if self._backend is not None:
            # a mutation after close() reopens the WAL transparently —
            # the system is live again and must be closed again
            self._closed = False
            self._backend.journal(kind, **fields)

    def _journal_suspended(self) -> ContextManager[None]:
        """Suppress WAL journaling (compound mutations journal one typed record)."""
        if self._backend is None:
            return _NULL_SCOPE
        return self._backend.suspended()

    def _on_engine_step(
        self,
        action: str,
        instance: ProcessInstance,
        activity_id: str,
        outputs: Optional[Mapping[str, Any]],
        user: Optional[str],
    ) -> None:
        """Mark the case dirty and journal the operation as one ``step`` record.

        The engine notifies once per acknowledged operation — an explicit
        start, or a completion (which covers its implicit start) — so a
        completed activity is one record, enqueued here, at its step.  It
        is committed with the rest of the operation's records when the
        operation ends (one write + flush per call, however many steps it
        took); an engine call made outside any operation has no commit
        scope open, so its record is committed at once.
        """
        instance_id = instance.instance_id
        if instance_id not in self._instances:
            return  # scratch/clone instance driven through the shared engine
        self._dirty.add(instance_id)
        self._journal(
            KIND_STEP,
            instance_id=instance_id,
            action=action,
            activity=activity_id,
            outputs=dict(outputs) if outputs else None,
            user=user,
        )

    # ------------------------------------------------------------------ #
    # lazy hydration: the LRU-bounded live-instance cache
    # ------------------------------------------------------------------ #

    def _enforce_cache_cap(self) -> None:
        """Evict least-recently-used cases down to the cap (inside an operation).

        The most recently touched case always stays live, and so does
        every case of a :meth:`step_many` chunk (a chunk never exceeds
        the cap).  From the LRU head, no further than the excess
        requires: the cost of an eviction must not grow with the cache
        it trims.
        """
        cap = self.cache_instances
        if cap is None:
            return
        for _ in range(len(self._instances) - max(cap, 1)):
            instance_id = next(iter(self._instances))
            instance = self._instances.pop(instance_id)
            if instance_id in self._dirty:
                self._dirty.discard(instance_id)
                # the logical WAL records already cover this state —
                # the save is a cache write-back, not a durability point
                self.store.write_back(instance)
            self.worklists.unregister_instance(instance_id)
            self.bus.publish(CATEGORY_SYSTEM, "instance_evicted", instance_id=instance_id)

    def _type_of(self, instance_id: str) -> str:
        """Process type of a live or stored case ('' when unknown).

        A read of leaf-guarded maps: pool workers call it outside any
        operation.
        """
        instance = self._instances.get(instance_id)
        if instance is not None:
            return instance.process_type
        return self.store.process_type_of(instance_id)

    # ------------------------------------------------------------------ #
    # schema deployment and type access
    # ------------------------------------------------------------------ #

    @_operation
    def deploy(self, schema: ProcessSchema, verify: bool = True) -> TypeHandle:
        """Register ``schema`` as a new process type (version 1).

        Raises :class:`SchemaError` when buildtime verification rejects the
        schema, :class:`repro.core.EvolutionError` when the type name is
        already taken.
        """
        if verify:
            report = self.verifier.verify(schema)
            if not report.is_correct:
                raise SchemaError(
                    f"schema {schema.name!r} fails buildtime verification:\n" + report.summary()
                )
        self.repository.register_type(schema)
        self._journal(KIND_TYPE_DEPLOYED, type_id=schema.name, schema=schema.to_dict())
        self.bus.publish(
            CATEGORY_SCHEMA,
            "type_deployed",
            type_id=schema.name,
            version=schema.version,
            activities=len(schema.activity_ids()),
        )
        return TypeHandle(self, schema.name)

    @_operation
    def adopt(self, process_type: ProcessType) -> TypeHandle:
        """Adopt an externally built :class:`ProcessType` (all versions)."""
        self.repository.adopt_type(process_type)
        self._journal(
            KIND_TYPE_ADOPTED,
            type_id=process_type.name,
            schemas=[
                process_type.schema_for(version).to_dict()
                for version in process_type.versions
            ],
        )
        self.bus.publish(
            CATEGORY_SCHEMA,
            "type_deployed",
            type_id=process_type.name,
            version=process_type.latest_version,
        )
        return TypeHandle(self, process_type.name)

    def deploy_result(self, handle: TypeHandle) -> DeployResult:
        """Structured summary of a deployed type (CLI ``--json`` helper)."""
        schema = handle.schema()
        return DeployResult(
            type_id=handle.type_id,
            version=schema.version,
            activities=len(schema.activity_ids()),
        )

    def type(self, type_id: str) -> TypeHandle:
        """Handle of a deployed process type (raises for unknown names)."""
        self.repository.process_type(type_id)  # raises EvolutionError when unknown
        return TypeHandle(self, type_id)

    #: Alias for :meth:`type` for callers that shy away from the name.
    type_handle = type

    def types(self) -> List[TypeHandle]:
        """Handles of all deployed process types."""
        return [TypeHandle(self, name) for name in self.repository.type_names()]

    # ------------------------------------------------------------------ #
    # instance lifecycle
    # ------------------------------------------------------------------ #

    @_operation
    def start(
        self,
        type_id: str,
        case_id: Optional[str] = None,
        version: Optional[int] = None,
        **data: Any,
    ) -> InstanceHandle:
        """Start a new case of ``type_id`` and return its handle.

        ``case_id`` is generated (``<type>-00001``-style) when omitted;
        ``version`` selects a released schema version (default: latest);
        keyword arguments become initial data-element values.
        """
        process_type = self.repository.process_type(type_id)
        schema = (
            self._startable_schema(process_type)
            if version is None
            else process_type.schema_for(version)
        )
        if case_id is None:
            case_id = self._next_case_id(type_id)
        elif self._in_use(case_id):
            raise EngineError(f"instance id {case_id!r} is already in use")
        instance = self.engine.create_instance(schema, case_id, initial_data=data or None)
        self._instances[case_id] = instance
        self._dirty.add(case_id)
        self._journal(
            KIND_INSTANCE_STARTED,
            instance_id=case_id,
            type_id=type_id,
            version=schema.version,
            data=dict(data),
        )
        self.worklists.register_instance(instance)
        self._notify_pool(case_id)
        self._enforce_cache_cap()
        return InstanceHandle(self, case_id)

    def _in_use(self, case_id: str) -> bool:
        return case_id in self._instances or self.store.contains(case_id)

    def _next_case_id(self, type_id: str) -> str:
        """Allocate the next free generated id."""
        while True:
            self._case_counters[type_id] = self._case_counters.get(type_id, 0) + 1
            case_id = f"{type_id}-{self._case_counters[type_id]:05d}"
            if not self._in_use(case_id):
                return case_id

    def _startable_schema(self, process_type: ProcessType) -> ProcessSchema:
        """The version new cases start on when none is requested.

        Normally the latest released version, with two exceptions: while
        a canary rollout is still *observing*, new cases keep starting on
        the stable (from) version — the canary version may yet be rolled
        back, and a rolled-back version must never be a case's only home.
        Versions retired by a "pin"-policy rollback are skipped likewise.
        """
        rollout = self._rollouts.get(process_type.name)
        if rollout is not None and rollout.state == STATE_OBSERVING:
            return process_type.schema_for(rollout.from_version)
        retired = self._retired_versions.get(process_type.name)
        if retired:
            startable = [v for v in process_type.versions if v not in retired]
            if startable:
                return process_type.schema_for(max(startable))
        return process_type.latest_schema

    def instance(self, instance_id: str) -> InstanceHandle:
        """Handle of a live or stored case (raises for unknown ids)."""
        self.get_instance(instance_id)
        return InstanceHandle(self, instance_id)

    @_operation
    def adopt_instance(self, instance: ProcessInstance) -> InstanceHandle:
        """Track an externally created :class:`ProcessInstance`.

        The instance's process type must already be deployed.  Workload
        generators use this to hand their populations to the system.
        """
        self.repository.process_type(instance.process_type)  # raises when unknown
        instance_id = instance.instance_id
        if instance_id in self._instances:
            raise EngineError(f"instance id {instance_id!r} is already in use")
        self._instances[instance_id] = instance
        self._dirty.add(instance_id)
        self._journal(
            KIND_INSTANCE_ADOPTED,
            instance_id=instance_id,
            record=self.store.encode_record(instance),
        )
        self.worklists.register_instance(instance)
        self._notify_pool(instance_id)
        self._enforce_cache_cap()
        return InstanceHandle(self, instance_id)

    @_operation
    def get_instance(self, instance_id: str) -> ProcessInstance:
        """The live :class:`ProcessInstance` behind an id.

        Cases known only to the instance store are loaded (and registered
        with the worklist manager) transparently.
        """
        return self._live(instance_id)

    def _live(self, instance_id: str) -> ProcessInstance:
        """:meth:`get_instance` inside an operation."""
        instance = self._instances.get(instance_id)
        if instance is not None:
            self._instances.move_to_end(instance_id)
            return instance
        try:
            instance = self.store.load(instance_id)
        except StorageError:
            # one lookup on the hit-or-load path; only a missing record is
            # an unknown id — a stored one that does not decode says why
            if self.store.contains(instance_id):
                raise
            raise EngineError(f"unknown instance {instance_id!r}") from None
        self._instances[instance_id] = instance
        # a record this cache wrote back left the case's work items as the
        # scope that last changed it synchronised them; any other record
        # (migrated, saved, replayed, loaded) may offer something else
        self.worklists.register_instance(
            instance, sync=not self.store.written_back(instance_id)
        )
        self.bus.publish(CATEGORY_SYSTEM, "instance_loaded", instance_id=instance_id)
        self._enforce_cache_cap()
        return instance

    @_operation
    def instances_of(
        self, type_id: str, version: Optional[int] = None
    ) -> List[InstanceHandle]:
        """Handles of all known instances of one type (optionally one version).

        Covers live cases *and* cases currently resident only in the
        instance store (evicted or loaded from disk); no hydration happens
        — handles are resolved lazily on first use.  For ids that are both
        live and stored the live state decides the version filter.
        """
        ids = {
            instance.instance_id
            for instance in self._instances.values()
            if instance.process_type == type_id
            and (version is None or instance.schema_version == version)
        }
        stored = (
            self.store.instances_of_type(type_id)
            if version is None
            else self.store.instances_of_type(type_id, version)
        )
        for instance_id in stored:
            if instance_id not in self._instances:
                ids.add(instance_id)
        return [InstanceHandle(self, instance_id) for instance_id in sorted(ids)]

    @_operation
    def live_instance_ids(self) -> List[str]:
        return sorted(self._instances)

    # ------------------------------------------------------------------ #
    # execution (addressed by id)
    # ------------------------------------------------------------------ #

    @_operation
    def activated(self, instance_id: str) -> List[str]:
        """Activity ids of a case that could be started right now."""
        with self._case_execution(instance_id) as instance:
            return instance.activated_activities()

    @_operation
    def start_activity(
        self, instance_id: str, activity_id: str, user: Optional[str] = None
    ) -> StepResult:
        with self._case_execution(instance_id) as instance:
            self.engine.start_activity(instance, activity_id, user=user)
            return StepResult(
                instance_id=instance_id,
                activity_id=activity_id,
                status=instance.status,
                activated=instance.activated_activities(),
            )

    @_operation
    def complete(
        self,
        instance_id: str,
        activity_id: str,
        outputs: Optional[Mapping[str, Any]] = None,
        user: Optional[str] = None,
    ) -> StepResult:
        """Complete one activity of a case and return the resulting state."""
        with self._case_execution(instance_id) as instance:
            self.engine.complete_activity(instance, activity_id, outputs=outputs, user=user)
            return StepResult(
                instance_id=instance_id,
                activity_id=activity_id,
                status=instance.status,
                activated=instance.activated_activities(),
            )

    @_operation
    def run(
        self, instance_id: str, worker: Optional[Worker] = None, max_steps: int = 10000
    ) -> RunResult:
        """Drive a case until it completes (or no activity is activated)."""
        with self._case_execution(instance_id) as instance:
            steps = self.engine.run_to_completion(instance, worker=worker, max_steps=max_steps)
            return RunResult(instance_id=instance_id, steps=steps, status=instance.status)

    @_operation
    def step_many(
        self,
        instance_ids: Iterable[str],
        steps: int = 1,
        worker: Optional[Worker] = None,
    ) -> List[RunResult]:
        """Advance many cases by up to ``steps`` activities each, as one batch.

        The batch form amortises the per-step overhead that
        :meth:`complete` pays per call: the compiled
        :class:`~repro.schema.index.SchemaIndex` of each type schema is
        reused across all instances of the type, and each case's work
        items are synchronised once per batch instead of once per
        activity.  This is the intended API for high-throughput stepping
        (simulation, load generation, bulk progression).

        With a bounded live cache the batch is processed grouped by process
        type (stable within each type): instances of one type hydrate and
        execute together, so the type schema's compiled index stays hot and
        evictions don't thrash between types.  Results are still returned
        in input order.

        Returns one :class:`RunResult` per instance id, in input order;
        ``result.steps`` is the number of activities actually executed
        (0 when the case had nothing activated).  An id given more than
        once is stepped at each position, and each position's ``steps`` is
        its own, but ``result.status`` is read when the id's chunk has
        finished: every position of the id reports the same, final status
        (``step_many([a, b, a])`` with ``a`` one activity from its end
        gives steps ``[1, 1, 0]`` and ``completed`` at both of ``a``'s
        positions).
        """
        ids = list(instance_ids)
        # one type lookup per id (a store read for an evicted one) serves
        # both the sort and the grouping
        types = [self._type_of(instance_id) for instance_id in ids]
        order = list(range(len(ids)))
        if self.cache_instances is not None:
            order.sort(key=types.__getitem__)
        results: List[Optional[RunResult]] = [None] * len(ids)
        # maximal runs of consecutive same-type positions execute as one
        # batch: one engine call for the whole run.  With a bounded live
        # cache a chunk never holds more cases than the cache.
        chunk_cap = _BATCH_CHUNK
        if self.cache_instances is not None:
            chunk_cap = max(1, min(chunk_cap, self.cache_instances))
        cursor = 0
        while cursor < len(order):
            type_id = types[order[cursor]]
            upper = cursor + 1
            while (
                upper < len(order)
                and upper - cursor < chunk_cap
                and types[order[upper]] == type_id
            ):
                upper += 1
            chunk = order[cursor:upper]
            cursor = upper
            # chunks that ran before a mid-batch failure (e.g. an unknown
            # id) synchronised their cases on the way out of their scope
            with self._batch_execution([ids[position] for position in chunk]) as instances:
                active_flags = [instance.status.is_active for instance in instances]
                active = [
                    instance
                    for instance, flag in zip(instances, active_flags)
                    if flag
                ]
                counts = iter(self.engine.step_many_compiled(active, steps, worker=worker))
                for position, instance, flag in zip(chunk, instances, active_flags):
                    results[position] = RunResult(
                        instance_id=instance.instance_id,
                        steps=next(counts) if flag else 0,
                        status=instance.status,
                    )
        return [result for result in results if result is not None]

    @_operation
    def abort(self, instance_id: str) -> None:
        """Abort a case (the baseline policy of non-adaptive systems)."""
        with self._case_execution(instance_id) as instance:
            self.engine.abort_instance(instance)
            self._dirty.add(instance_id)
            self._journal(KIND_INSTANCE_ABORTED, instance_id=instance_id)

    # ------------------------------------------------------------------ #
    # the multi-worker runtime
    # ------------------------------------------------------------------ #

    def serve(
        self,
        workers: int = 4,
        worker: Optional[Worker] = None,
    ) -> WorkerPool:
        """Start ``workers`` threads claiming and completing work items.

        The returned :class:`~repro.system.concurrency.WorkerPool` is
        already running: it seeds its per-type queues from the currently
        offered work items and steps cases concurrently (stealing across
        types when a queue runs dry).  ``worker`` maps an activity node
        and the case data to its outputs, exactly like
        :meth:`step_many` — omit it for the engine's plausible defaults.

        Each item is two operations — the claim and the completion — and
        ``worker`` runs between them without the execution lock, so other
        operations (an :meth:`evolve`, a :meth:`checkpoint`) proceed while
        activities do their work.  Call :meth:`drain` to complete all
        outstanding work and stop the pool.
        """
        with self._pool_guard:
            if self._pool is not None and not self._pool.finished:
                raise EngineError("a worker pool is already serving this system")
            pool = WorkerPool(self, workers=workers, worker=worker)
            self._pool = pool
        return pool.start()

    def drain(self, timeout: Optional[float] = None) -> PoolStats:
        """Complete all outstanding work items, stop the pool, return stats."""
        with self._pool_guard:
            pool = self._pool
            if pool is None:
                raise EngineError("serve() was not called on this system")
            self._pool = None
        try:
            return pool.drain(timeout=timeout)
        except BaseException:
            # a failed drain (timeout) leaves the pool re-drainable
            with self._pool_guard:
                if self._pool is None:
                    self._pool = pool
            raise

    def _notify_pool(self, instance_id: Optional[str] = None) -> None:
        """Feed work created outside the pool's own completions to the pool."""
        pool = self._pool
        if pool is None or not pool.active:
            return
        if instance_id is None:
            pool.resync()
            return
        type_id = self._type_of(instance_id)
        for item in self.worklists.offered_items_for_instance(instance_id):
            pool.submit(item.item_id, type_id or "")

    # ------------------------------------------------------------------ #
    # worklists
    # ------------------------------------------------------------------ #

    def worklist(self, user: str) -> List[WorkItem]:
        """Offered work items ``user`` is authorised to perform (a pure read)."""
        return self.worklists.worklist_for(user)

    @_operation
    def claim(self, item_id: str, user: str) -> WorkItem:
        """Claim an offered work item (starts the activity).

        The claim is atomic: under contention exactly one caller wins;
        the losers receive an :class:`EngineError`.
        """
        return self.worklists.claim(item_id, user)

    @_operation
    def complete_item(
        self, item_id: str, outputs: Optional[Mapping[str, Any]] = None
    ) -> WorkItem:
        """Complete a claimed work item through the engine."""
        return self.worklists.complete(item_id, outputs=outputs)

    @_operation
    def _claim_work(self, item_id: str, user: str) -> Any:
        """A pool worker's claim: the item's activity node and case data.

        The pool executes items as the system scheduler, not as a named
        human — org-model roles gate *human* worklists; enforcing them
        here would livelock ``drain()`` on any role-restricted item.
        """
        self.worklists.claim(item_id, user, enforce_roles=False)
        return self.worklists.inputs_of(item_id)

    @_operation
    def _complete_work(self, item_id: str, worker: Optional[Worker]) -> WorkItem:
        """A pool worker's completion, with what its worker function produced."""
        return self.worklists.complete(item_id, auto_outputs=True, worker=worker)

    # ------------------------------------------------------------------ #
    # ad-hoc change (transactional ChangeSets)
    # ------------------------------------------------------------------ #

    def change(self, instance_id: str, comment: str = "") -> ChangeSet:
        """A fluent, transactional :class:`ChangeSet` bound to one case."""
        self.get_instance(instance_id)  # fail fast for unknown ids
        return ChangeSet(self, instance_id, comment=comment)

    @_operation
    def apply_changeset(self, changeset: ChangeSet, user: Optional[str] = None) -> ChangeResult:
        """Validate and commit a change set atomically.

        All operations are checked together; on success they are committed
        as one change-log entry with a single adapted marking.  On failure
        a :class:`repro.core.AdHocChangeError` is raised and the instance
        is untouched.
        """
        change_log = changeset.to_change_log()
        with self._case_execution(changeset.instance_id) as instance:
            with self._journal_suspended():
                result = self._changer.apply(
                    instance, change_log, comment=change_log.comment, user=user
                )
            self._dirty.add(instance.instance_id)
            self._journal(
                KIND_ADHOC_CHANGE,
                instance_id=instance.instance_id,
                change=change_log.to_dict(),
                user=user,
            )
        return ChangeResult(
            ok=True,
            instance_id=changeset.instance_id,
            operations=result.operation_count,
            comment=change_log.comment,
        )

    def try_apply_changeset(
        self, changeset: ChangeSet, user: Optional[str] = None
    ) -> ChangeResult:
        """Like :meth:`apply_changeset` but returns a failed result instead of raising."""
        from repro.core.adhoc import AdHocChangeError

        try:
            return self.apply_changeset(changeset, user=user)
        except AdHocChangeError as exc:
            return ChangeResult(
                ok=False,
                instance_id=changeset.instance_id or "",
                operations=len(changeset),
                comment=changeset.to_change_log().comment,
                conflicts=list(exc.conflicts),
                error=str(exc),
            )

    # ------------------------------------------------------------------ #
    # schema evolution and migration
    # ------------------------------------------------------------------ #

    @_operation
    def evolve(
        self,
        type_id: str,
        change: ChangeLike,
        migrate: str = MIGRATE_COMPLIANT,
        collect_results: bool = True,
        rollout: str = ROLLOUT_EAGER,
        fraction: float = 0.1,
        conflict_threshold: float = 0.5,
        min_observations: int = 20,
        canary_policy: str = POLICY_REVERT,
        canary_decide: str = "auto",
    ) -> Any:
        """Release a new schema version and migrate running instances.

        ``rollout`` selects *when* cases migrate:

        * ``"eager"`` (default) — the whole population migrates before
          :meth:`evolve` returns (the behaviour documented below);
        * ``"lazy"`` — the new version and its compiled migration plan
          are published without migrating anyone; each case adopts the new
          version the next time it is touched (claimed, stepped,
          changed, saved).  Returns the live :class:`Rollout` instead of
          a report;
        * ``"canary"`` — like lazy, but only ``fraction`` of the case
          population (a stable hash cohort) adopts while the rollout is
          *observing*; once ``min_observations`` adoption attempts are
          in, the rollout auto-promotes — or auto-rolls-back when the
          observed conflict rate exceeds ``conflict_threshold``
          (``canary_policy``: ``"revert"`` restores adopted cases and
          withdraws the version, ``"pin"`` keeps them on it but retires
          it for new cases).

        Progressive rollouts support the ``"compliant"`` policy only.

        ``migrate`` selects the policy:

        * ``"compliant"`` (default) — migrate every compliant instance,
          leave conflicting ones running on their old version (the
          paper's behaviour);
        * ``"none"`` — release the version only, migrate nobody;
        * ``"strict"`` — all-or-nothing: a dry run on cloned instances
          checks that *every* active instance can migrate; if any cannot,
          :class:`MigrationError` is raised and neither the repository nor
          any instance is modified.  After the pre-check the cases
          migrate exactly as under ``"compliant"``;
        * ``"rollback"`` — like ``"compliant"``, but a case in a state
          conflict has its blocking activities compensated (the planner
          of :mod:`repro.core.rollback`) and migrates when that made it
          compliant (``migrated_with_rollback``).

        The policy is journaled with the evolution: recovery replays the
        same policy, compensations included.

        A case never skips a delta: a running case on another version
        than the change's ``from_version`` (an earlier change refused it)
        is reported ``state_conflict`` and stays where it is.

        ``collect_results=False`` returns a counters-only report (plus a
        bounded conflict sample) — for very large populations the report
        then does not hold one result object per case.

        The evolution is one operation: no other operation runs until
        the migration is done, so the candidate set is an exact snapshot
        — no step can slip between compliance check and migration.

        The candidates meet the change one at a time
        (:meth:`_migrate_case`): the change is compiled once into a
        :class:`~repro.core.migration_plan.MigrationPlan`, unbiased
        store-resident candidates are classified by compliance
        fingerprint straight from their stored records, and only one
        representative per execution-state class (plus the biased /
        rollback residue) is ever materialised — as a scratch copy
        outside the live cache, or hydrated under the ``"rollback"``
        policy — so memory stays bounded by ``cache_instances`` + 1 no matter
        how large the population is.
        """
        if migrate not in (MIGRATE_COMPLIANT, MIGRATE_NONE, MIGRATE_STRICT, MIGRATE_ROLLBACK):
            raise ValueError(
                f"unknown migration policy {migrate!r}; "
                f"expected one of 'compliant', 'none', 'strict', 'rollback'"
            )
        if rollout != ROLLOUT_EAGER:
            if rollout not in (ROLLOUT_LAZY, ROLLOUT_CANARY):
                raise ValueError(
                    f"unknown rollout mode {rollout!r}; "
                    f"expected one of 'eager', 'lazy', 'canary'"
                )
            if migrate != MIGRATE_COMPLIANT:
                raise ValueError(
                    "progressive rollouts support the 'compliant' migration policy only"
                )
            if canary_decide not in ("auto", "external"):
                raise ValueError(
                    f"unknown canary_decide {canary_decide!r}; "
                    f"expected 'auto' or 'external'"
                )
            return self._evolve_progressive(
                type_id,
                change,
                rollout,
                fraction=fraction,
                conflict_threshold=conflict_threshold,
                min_observations=min_observations,
                policy=canary_policy,
                decide_externally=canary_decide == "external",
            )
        report = self._evolve_eagerly(type_id, change, migrate, collect_results)
        self._notify_pool()
        if migrate != MIGRATE_NONE:
            self.bus.publish(
                CATEGORY_MIGRATION,
                "migration_completed",
                type_id=type_id,
                from_version=report.from_version,
                to_version=report.to_version,
                migrated=report.migrated_count,
                total=report.total,
            )
        return report

    def _evolve_eagerly(
        self, type_id: str, change: ChangeLike, migrate: str, collect_results: bool = True
    ) -> MigrationReport:
        """Release the version and migrate every candidate now."""
        if type_id in self._rollouts:
            raise MigrationError(
                f"a progressive rollout of {type_id!r} is still in flight"
            )
        process_type = self.repository.process_type(type_id)
        type_change = self._as_type_change(process_type, change)
        candidate_ids = [] if migrate == MIGRATE_NONE else self._evolution_candidates(type_id)
        if migrate == MIGRATE_STRICT:
            self._require_all_compliant(process_type, type_change, candidate_ids)
        new_schema = self.repository.release_version(type_id, type_change)
        # published in causal order (before the instance_migrated engine
        # events the migration emits).
        self.bus.publish(
            CATEGORY_SCHEMA,
            "schema_version_released",
            type_id=type_id,
            version=new_schema.version,
        )
        if migrate == MIGRATE_NONE:
            report = MigrationReport(
                process_type=type_id,
                from_version=type_change.from_version,
                to_version=new_schema.version,
            )
        else:
            with self._journal_suspended():
                # the single typed evolution record below covers the whole
                # mutation — rollback compensations inside the migration
                # must not journal separate step records
                report = self._migrate_candidates(
                    process_type,
                    type_change,
                    candidate_ids,
                    collect_results,
                    rollback=migrate == MIGRATE_ROLLBACK,
                )
        self._journal(
            KIND_EVOLUTION,
            type_id=type_id,
            change=type_change.to_dict(),
            policy=migrate,
            to_version=new_schema.version,
            candidates=candidate_ids,
        )
        self._drop_unoccupied_versions(process_type)
        return report

    def _drop_unoccupied_versions(self, process_type: ProcessType) -> None:
        """Drop the compiled index of every superseded version no case runs on.

        Runs after each release (and its eager migration).  Occupancy is recomputed, not maintained: the
        version of every live case of the type, of any status, plus every
        version holding an active stored record — O(live + versions) per
        release and nothing per step, so no WAL replay, migration, ad-hoc
        change, delete or revert has to keep a count exact.  A stale stored
        record only over-counts, which keeps a version compiled.
        """
        type_id = process_type.name
        occupied = {
            instance.schema_version
            for instance in self._instances.values()
            if instance.process_type == type_id
        }
        occupied.update(self.store.active_versions_of_type(type_id))
        process_type.drop_unoccupied(occupied)

    def _evolution_candidates(self, type_id: str) -> List[str]:
        """Every live case of the type plus the *running* store-resident ones.

        Finished stored cases can never migrate, so touching them would
        only defeat the bounded live cache.
        """
        candidates = {
            instance.instance_id
            for instance in self._instances.values()
            if instance.process_type == type_id
        }
        candidates.update(self.store.running_instances_of_type(type_id))
        return sorted(candidates)

    def _require_all_compliant(
        self, process_type: ProcessType, type_change: TypeChange, candidate_ids: Sequence[str]
    ) -> None:
        """``migrate="strict"``: dry-run ΔT on clones, refuse it if any case would stay behind.

        Runs before the version is released, against a scratch copy of
        the type — neither the repository nor any case is modified.
        """
        scratch_type = ProcessType(process_type.name)
        for version in process_type.versions:
            scratch_type.add_version(process_type.schema_for(version))
        scratch_migrator = MigrationManager(ProcessEngine())
        # clones only: the cases themselves pass through the bounded live cache
        clones = [
            instance_from_dict(
                instance_to_dict(self._live(instance_id)), self.repository.resolve
            )
            for instance_id in candidate_ids
        ]
        dry_report = scratch_migrator.migrate_type(scratch_type, type_change, clones)
        blocked = [
            result for result in dry_report.results if result.outcome in _CONFLICT_OUTCOMES
        ]
        if blocked:
            raise MigrationError(
                f"strict migration of {process_type.name!r} refused: "
                f"{len(blocked)} of {dry_report.total} instance(s) cannot migrate "
                f"({', '.join(sorted(r.instance_id for r in blocked))})",
                report=dry_report,
            )

    def _migrate_candidates(
        self,
        process_type: ProcessType,
        type_change: TypeChange,
        candidate_ids: Sequence[str],
        collect_results: bool = True,
        rollback: bool = False,
    ) -> MigrationReport:
        """The eager driver: every candidate meets ΔT, one at a time, in order.

        The new schema version must already be released (evolve, or
        recovery replaying one).  Memory stays bounded by ``cache_instances`` + 1 whatever the
        population: :meth:`_migrate_case` decides store-resident cases
        from their records and materialises only what it must, on a
        scratch copy outside the live cache.  ``rollback`` is the
        ``"rollback"`` policy of the call: a migration manager of its own
        compensates the state-conflicting cases on the shared engine.
        """
        compensating = None
        if rollback:
            # the third argument switches the manager's compensation on (A6)
            compensating = MigrationManager(self.engine, self.event_log, True)
        plan = self._migrator.compile_plan(
            process_type.schema_for(type_change.from_version),
            process_type.schema_for(type_change.to_version),
            type_change,
        )
        cache = FingerprintCache()
        report = MigrationReport(
            process_type=process_type.name,
            from_version=type_change.from_version,
            to_version=type_change.to_version,
            collect_results=collect_results,
        )
        started = time.perf_counter()
        # biased classes (state fingerprint + canonical bias) decided so
        # far: fingerprint -> what the class's representative came to
        bias_classes: Dict[str, Dict[str, Any]] = {}
        for instance_id in candidate_ids:
            result = self._migrate_case(
                instance_id,
                type_change,
                plan,
                cache,
                bias_classes=bias_classes,
                compensating=compensating,
            )
            report.add(result)
            self._migrator._emit(result)
        self._enforce_cache_cap()
        report.duration_seconds = time.perf_counter() - started
        self.bus.publish(
            CATEGORY_SYSTEM,
            "bulk_migration_classes",
            type_id=process_type.name,
            classes=cache.classes,
            hits=cache.hits,
            misses=cache.misses,
            candidates=len(candidate_ids),
        )
        return report

    def _migrate_case(
        self,
        instance_id: str,
        type_change: TypeChange,
        plan: MigrationPlan,
        cache: FingerprintCache,
        instance: Optional[ProcessInstance] = None,
        bias_classes: Optional[Dict[str, Dict[str, Any]]] = None,
        compensating: Optional[MigrationManager] = None,
    ) -> InstanceMigrationResult:
        """One case meets ΔT — for eager evolve, sweep, touch and recovery alike.

        A live case (``instance`` when the caller already holds it) goes
        to :meth:`MigrationManager.migrate_instance`.  A store-resident
        one is decided from its record as far as that goes
        (:meth:`MigrationManager.decide_record`): reported as it is,
        rewritten in place with its class's marking template, or — the
        first of its class, a biased case, a biased-class representative
        — decided by the same ``migrate_instance`` on a scratch copy
        loaded from the store, written back if it migrated and offered
        what its new marking activates.  The scratch copy never enters
        the live cache, so deciding a stored case evicts no other.  With
        ``bias_classes`` (eager only) store-resident biased cases in the
        same state with the same bias share one representative's
        outcome, adapted marking and re-encoded representation.

        ``compensating`` is the call's migration manager under the
        ``"rollback"`` policy (``None``: the system's own, which never
        compensates).  It is the one exception that hydrates: it
        compensates a state-conflicting case by driving the shared engine
        on it, whose listeners act on live cases only — so under that
        policy a stored case that needs a look is hydrated as before.

        Relied upon: a case that is not live has a current store record —
        eviction writes dirty cases back before dropping them.  Runs
        inside an operation, so no hydration can come between the
        liveness check and the rewrite.
        """
        migrator = compensating or self._migrator
        bias_class = record = None
        if instance is None and instance_id not in self._instances:
            # an unknown id has no record: hydration raises the canonical EngineError
            record = dict(self.store.records_for([instance_id])).get(instance_id)
        if record is not None:
            action, found = migrator.decide_record(
                record, type_change, plan, cache, share_bias=bias_classes is not None
            )
            if action == "report":
                return found
            if action == "rewrite":
                self._migrate_stored(instance_id, plan.new_schema, found)
                return InstanceMigrationResult(instance_id, MigrationOutcome.MIGRATED)
            bias_class = found
            if bias_class is not None and bias_class in bias_classes:
                return self._apply_biased_class(
                    instance_id, bias_classes[bias_class], plan.new_schema.version
                )
        scratch = record is not None and compensating is None
        if scratch:
            instance = self.store.load(instance_id)
        elif instance is None:
            instance = self._live(instance_id)
        result = migrator.migrate_instance(
            instance, plan.old_schema, plan.new_schema, type_change, plan, cache, emit=False
        )
        if result.migrated:
            if scratch:
                self.store.write_back(instance)
            else:
                # covers rollback migrations, which compensate activities
                # and therefore also change the instance state
                self._dirty.add(instance_id)
            self.worklists.sync_instance(instance)
        if bias_class is not None:
            # the class's stored fields are encoded only if a second member comes
            bias_classes[bias_class] = {"representative": instance_id, "result": result}
            if result.migrated:
                bias_classes[bias_class]["offers"], _ = self.worklists.work_of(
                    instance.execution_schema, instance.marking
                )
        return result

    def _apply_biased_class(
        self, instance_id: str, biased_class: Dict[str, Any], new_version: int
    ) -> InstanceMigrationResult:
        """Apply a biased class's shared verdict to one stored member.

        Everything the class members need is a pure function of (bias,
        state fingerprint): the representative's outcome, conflicts and
        offers and — encoded once, at the first further member, from the
        live representative or the record its eviction wrote back, less
        that write-back's ``"fix"`` hint — its stored ``marking``,
        ``status``, ``bias`` / ``biased`` / ``representation`` (bias
        absorption may have changed them).  The hybrid representation's
        substitution block depends on the schemas only, never on the case,
        so one encoding serves every member.
        """
        result = biased_class["result"]
        if result.migrated:
            if "marking" not in biased_class:
                representative = biased_class["representative"]
                live = self._instances.get(representative)
                if live is not None:
                    encoded = self.store.encode_record(live)
                else:
                    encoded = self.store.record(representative)
                marking = dict(encoded["marking"])
                marking.pop("fix", None)
                biased_class["marking"] = marking
                biased_class["updates"] = {
                    "status": encoded["status"],
                    "biased": encoded.get("biased", False),
                    "bias": encoded.get("bias"),
                    "representation": encoded.get("representation"),
                }
            updates = biased_class["updates"]
            self.store.migrate_record(
                instance_id, new_version, biased_class["marking"], updates=updates
            )
            finished = updates["status"] not in ACTIVE_STATUS_VALUES
            self.worklists.sync_offers(
                instance_id, biased_class["offers"], () if finished else None
            )
        return InstanceMigrationResult(
            instance_id=instance_id,
            outcome=result.outcome,
            conflicts=list(result.conflicts),
            was_biased=True,
        )

    def _migrate_stored(
        self, instance_id: str, schema: ProcessSchema, verdict: ClassVerdict
    ) -> None:
        """Apply a compliant class verdict to one evicted, unbiased member.

        Record-level: the stored record moves onto ``schema`` with the
        class's adapted marking, and the case is offered what that
        marking activates — all without materialising it.  A marking
        that reached the end finishes the case, which then keeps no work
        item open.  The class computes that effect once; a member pays
        the record rewrite and its offer sync.
        """
        effect = verdict.stored_effect(schema)
        self.store.migrate_record(
            instance_id,
            schema.version,
            effect.marking,
            updates={"status": InstanceStatus.COMPLETED.value} if effect.finished else None,
        )
        self.worklists.sync_offers(instance_id, effect.offers, () if effect.finished else None)

    def _as_type_change(self, process_type: ProcessType, change: ChangeLike) -> TypeChange:
        """Normalise the accepted change flavours onto a :class:`TypeChange`."""
        if isinstance(change, TypeChange):
            return change
        if isinstance(change, ChangeSet):
            return TypeChange(
                from_version=process_type.latest_version,
                operations=change.to_change_log(),
                comment=change.to_change_log().comment,
            )
        if isinstance(change, ChangeLog):
            return TypeChange(
                from_version=process_type.latest_version,
                operations=change,
                comment=change.comment,
            )
        return TypeChange.of(process_type.latest_version, list(change))

    # ------------------------------------------------------------------ #
    # progressive (zero-downtime) rollouts
    # ------------------------------------------------------------------ #

    def _evolve_progressive(
        self,
        type_id: str,
        change: ChangeLike,
        mode: str,
        *,
        fraction: float,
        conflict_threshold: float,
        min_observations: int,
        policy: str,
        decide_externally: bool = False,
    ) -> Rollout:
        """Publish a new version without migrating the population.

        O(schema), independent of population size: the version is
        released and its plan compiled.  From then on running cases adopt
        the new version lazily on their next touch (see
        :meth:`_touch_for_rollout`) while a sweeper can drain untouched
        residue in the background (:meth:`sweep_rollout`).
        """
        if type_id in self._rollouts:
            raise MigrationError(f"a progressive rollout of {type_id!r} is still in flight")
        process_type = self.repository.process_type(type_id)
        type_change = self._as_type_change(process_type, change)
        # validate the rollout parameters *before* the version is
        # released — a bad fraction must not leave a half evolution
        rollout = Rollout(
            type_id,
            type_change,
            mode,
            fraction=fraction,
            conflict_threshold=conflict_threshold,
            min_observations=min_observations,
            policy=policy,
            decide_externally=decide_externally,
        )
        new_schema = self.repository.release_version(type_id, type_change)
        self._attach_plan(rollout)
        self._drop_unoccupied_versions(process_type)
        self._journal(
            KIND_ROLLOUT_STARTED,
            type_id=type_id,
            change=type_change.to_dict(),
            to_version=new_schema.version,
            mode=mode,
            fraction=fraction,
            conflict_threshold=conflict_threshold,
            min_observations=min_observations,
            policy=policy,
            decide_externally=decide_externally,
        )
        self._rollouts[type_id] = rollout
        self.bus.publish(
            CATEGORY_SCHEMA,
            "schema_version_released",
            type_id=type_id,
            version=new_schema.version,
        )
        self.bus.publish(
            CATEGORY_MIGRATION,
            "rollout_started",
            type_id=type_id,
            to_version=new_schema.version,
            mode=mode,
        )
        return rollout

    def _attach_plan(self, rollout: Rollout) -> None:
        """Compile the rollout's migration plan and fresh verdict cache."""
        process_type = self.repository.process_type(rollout.type_id)
        rollout.plan = self._migrator.compile_plan(
            process_type.schema_for(rollout.from_version),
            process_type.schema_for(rollout.to_version),
            rollout.type_change,
        )
        rollout.cache = FingerprintCache()

    def rollout_of(self, type_id: str) -> Optional[Rollout]:
        """The in-flight rollout of ``type_id`` (None when there is none)."""
        return self._rollouts.get(type_id)

    @_operation
    def rollout_status(self, type_id: str) -> Optional[Dict[str, Any]]:
        """Progress of the active (or, failing that, last) rollout."""
        rollout = self._rollouts.get(type_id) or self._rollout_history.get(type_id)
        return rollout.progress() if rollout is not None else None

    # ---- the on-touch adoption path ----------------------------------- #

    def _touch_for_rollout(self, instance: ProcessInstance) -> None:
        """O(1) per-touch check: adopt an in-flight rollout's version.

        Called inside an operation on a case it is about to work on
        (every touch path goes through :meth:`_case_execution` or an
        engine call inside it).  A canary decision the adoption tips over
        is queued and runs when the operation ends
        (:meth:`_run_rollout_decisions`).
        """
        rollout = self._rollouts.get(instance.process_type)
        if rollout is None or not rollout.active:
            return
        if self._backend is not None and not self._backend.active:
            # WAL replay / compound mutation: rollout records drive
            # adoption, not the engine's replayed touches
            return
        if instance.schema_version != rollout.from_version:
            return
        if not instance.status.is_active:
            return
        instance_id = instance.instance_id
        if instance_id in rollout.conflicted:
            # conflicting cases stay on their old version (the paper's
            # eager semantics); never re-attempted within one rollout
            return
        if rollout.state == STATE_OBSERVING and not rollout.in_cohort(instance_id):
            return
        rollout.touches += 1
        decision = self._adopt(rollout, instance.instance_id, instance)
        if decision is not None:
            self._rollout_decisions.append((rollout.type_id, decision))

    def _adopt(
        self, rollout: Rollout, instance_id: str, instance: Optional[ProcessInstance] = None
    ) -> Optional[str]:
        """Migrate one case onto the rollout's version and keep the books.

        The touch path passes the live ``instance`` it holds; the sweep
        passes only the id, so a store-resident case can adopt without
        being hydrated.  Returns the canary decision the attempt
        triggered ("promote" / "rollback"), if any — the *caller* queues
        it.
        """
        pre_state = None
        if (
            instance is not None
            and rollout.state == STATE_OBSERVING
            and rollout.policy == POLICY_REVERT
        ):
            # captured *before* the migration so a rollback can restore
            # the case byte-identically (observing rollouts adopt on
            # touch only — the sweep waits for the promotion)
            pre_state = instance_to_dict(instance)
        with self._journal_suspended():
            result = self._migrate_case(
                instance_id, rollout.type_change, rollout.plan, rollout.cache, instance
            )
        if result.outcome is MigrationOutcome.FINISHED:
            return None
        # a store-resident case adopts silently, as it always has:
        # ``rollout_swept`` carries its count
        announce = instance_id in self._instances
        if result.migrated:
            self._journal(
                KIND_ROLLOUT_MIGRATED,
                type_id=rollout.type_id,
                instance_id=instance_id,
                to_version=rollout.to_version,
            )
            decision = rollout.note_adoption(instance_id, pre_state)
            if announce:
                self.bus.publish(
                    CATEGORY_MIGRATION,
                    "rollout_case_adopted",
                    type_id=rollout.type_id,
                    instance_id=instance_id,
                    to_version=rollout.to_version,
                )
        else:
            if rollout.state == STATE_OBSERVING:
                # a canary's verdict rests on its conflicts: a crash keeps them
                self._journal(
                    KIND_ROLLOUT_CONFLICTED,
                    type_id=rollout.type_id,
                    instance_id=instance_id,
                    to_version=rollout.to_version,
                )
            decision = rollout.note_conflict(instance_id)
            if announce:
                self.bus.publish(
                    CATEGORY_MIGRATION,
                    "rollout_case_conflict",
                    type_id=rollout.type_id,
                    instance_id=instance_id,
                    outcome=result.outcome.value,
                )
        return decision

    def _run_rollout_decisions(self) -> None:
        """Run the canary decisions queued by the operation that is ending.

        The execution lock's release hook: it runs when the outermost
        operation scope exits, still under the lock — the one place a
        decision runs.  Not inline at the touch: a revert replaces live
        case objects that the deciding operation may still be stepping
        (a ``step_many`` chunk).
        """
        decisions = self._rollout_decisions
        while decisions:
            type_id, decision = decisions.pop(0)
            if decision == "rollback":
                self._rollback_rollout(type_id)
            else:
                self._promote_rollout(type_id)

    @_operation
    def _promote_rollout(self, type_id: str) -> bool:
        """Open an observing canary to the whole population; False if none was left."""
        rollout = self._rollouts.get(type_id)
        if rollout is None or not rollout.promote():
            return False
        self._journal(KIND_ROLLOUT_PROMOTED, type_id=type_id, to_version=rollout.to_version)
        self.bus.publish(
            CATEGORY_MIGRATION,
            "rollout_promoted",
            type_id=type_id,
            to_version=rollout.to_version,
            observed_conflict_rate=rollout.observed_conflict_rate,
        )
        return True

    @_operation
    def _rollback_rollout(self, type_id: str) -> Optional[List[str]]:
        """Canary observation failed: abandon the new version.

        Under the ``"revert"`` policy every adopted case is restored from
        its pre-adoption snapshot and the version is withdrawn from the
        repository; under ``"pin"`` adopted cases keep running on it but
        the version is retired — no new case will ever start on it.
        Returns the restored ids (None: no observing rollout was left).
        """
        rollout = self._rollouts.get(type_id)
        if rollout is None or not rollout.roll_back():
            return None
        reverted: List[str] = []
        if rollout.policy == POLICY_REVERT:
            reverted = self._revert_canary_cohort(rollout)
        self._journal(
            KIND_ROLLOUT_ROLLED_BACK,
            type_id=type_id,
            to_version=rollout.to_version,
            policy=rollout.policy,
            reverted=reverted,
        )
        if rollout.policy == POLICY_REVERT:
            self.repository.withdraw_version(type_id, rollout.to_version)
        else:
            self._retired_versions.setdefault(type_id, set()).add(rollout.to_version)
        self._rollouts.pop(type_id, None)
        self._rollout_history[type_id] = rollout
        self._notify_pool()
        self.bus.publish(
            CATEGORY_MIGRATION,
            "rollout_rolled_back",
            type_id=type_id,
            to_version=rollout.to_version,
            policy=rollout.policy,
            reverted=len(reverted),
            observed_conflict_rate=rollout.observed_conflict_rate,
        )
        return reverted

    def _revert_canary_cohort(self, rollout: Rollout) -> List[str]:
        """Restore the adopted canary cases from their pre-adoption snapshots.

        Steps a case took on the canary version are discarded with it —
        the deterministic policy (replay re-derives the same ids and
        checks them against the ``reverted`` list of the journaled
        record).
        """
        reverted: List[str] = []
        with self._journal_suspended():
            for instance_id in sorted(rollout.adopted):
                pre_state = rollout.pre_states.get(instance_id)
                if pre_state is None:
                    continue  # adopted without a snapshot (defensive)
                restored = instance_from_dict(dict(pre_state), self.repository.resolve)
                if instance_id in self._instances:
                    self._instances[instance_id] = restored
                    self._dirty.add(instance_id)
                    # tracks the restored object and re-offers its work
                    self.worklists.register_instance(restored)
                else:
                    self.store.write_back(restored)
                    self.worklists.sync_instance(restored)
                reverted.append(instance_id)
        return reverted

    # ---- the background sweeper --------------------------------------- #

    @_operation
    def sweep_rollout(self, type_id: str, max_cases: int = 256) -> int:
        """Drain up to ``max_cases`` of a migrating rollout's residue.

        Cases the touch path has not reached adopt here instead: stored
        unbiased records of a known class take the record-level fast
        path (shared verdict, in-place rewrite); live, biased or
        first-of-class cases go through the same adoption as a touch —
        a stored one decided on a scratch copy that never enters the
        live cache (:meth:`_migrate_case`).  When no residue remains
        outside the conflicted set, the rollout completes.  Returns the
        number of cases processed this round.

        The call is one operation: it holds the execution lock for at
        most ``max_cases`` cases, which bounds how long any other
        operation waits for it.  Its ``rollout_migrated`` records (one
        per adopted case, as always) reach the WAL in one write + flush,
        committed before the call returns.
        """
        rollout = self._rollouts.get(type_id)
        if rollout is None or rollout.state != STATE_MIGRATING:
            return 0
        residue = self._rollout_residue(rollout)
        swept = 0
        for instance_id in residue[:max_cases]:
            decision = self._adopt(rollout, instance_id)
            if decision is not None:
                self._rollout_decisions.append((type_id, decision))
            swept += 1
        if swept:
            rollout.swept += swept
            self.bus.publish(
                CATEGORY_MIGRATION,
                "rollout_swept",
                type_id=type_id,
                swept=swept,
            )
            self._enforce_cache_cap()
        # cases left in the list are still undecided: only a sweep that
        # got through it can have finished the rollout
        if len(residue) <= max_cases and not self._rollout_residue(rollout):
            self._complete_rollout(rollout)
        return swept

    def _rollout_residue(self, rollout: Rollout) -> List[str]:
        """Active cases still on the rollout's from-version, less the decided ones."""
        type_id = rollout.type_id
        live = {
            instance.instance_id
            for instance in self._instances.values()
            if instance.process_type == type_id
            and instance.schema_version == rollout.from_version
            and instance.status.is_active
        }
        stored = {
            instance_id
            for instance_id in self.store.running_instances_on_version(
                type_id, rollout.from_version
            )
            # the live copy governs — a store record of a live case may
            # be stale (dirty cases write back lazily)
            if instance_id not in self._instances
        }
        return sorted((live | stored) - rollout.adopted - rollout.conflicted)

    def _complete_rollout(self, rollout: Rollout) -> bool:
        """Every case adopted (or conflicted): retire the rollout; False unless migrating."""
        if not rollout.complete():
            return False
        self._journal(
            KIND_ROLLOUT_COMPLETED, type_id=rollout.type_id, to_version=rollout.to_version
        )
        self._rollouts.pop(rollout.type_id, None)
        self._rollout_history[rollout.type_id] = rollout
        self.bus.publish(
            CATEGORY_MIGRATION,
            "rollout_completed",
            type_id=rollout.type_id,
            to_version=rollout.to_version,
            adopted=len(rollout.adopted),
            conflicted=len(rollout.conflicted),
        )
        return True

    # ---- recovery (snapshot restore) ---------------------------------- #

    def _restore_rollout(self, payload: Mapping[str, Any]) -> None:
        """Re-arm a rollout serialised into a snapshot."""
        rollout = Rollout.from_dict(dict(payload))
        self._attach_plan(rollout)
        if rollout.active:
            self._rollouts[rollout.type_id] = rollout
        else:
            self._rollout_history[rollout.type_id] = rollout

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    @_operation
    def save(self, instance_id: str) -> StoredInstance:
        """Persist one case through the instance store."""
        with self._case_execution(instance_id) as instance:
            stored = self.store.save(instance)
            self._dirty.discard(instance_id)
            self._journal(
                KIND_INSTANCE_SAVED,
                instance_id=instance_id,
                record=self.store.record(instance_id),
            )
        self.bus.publish(CATEGORY_SYSTEM, "instance_saved", instance_id=instance_id)
        return stored

    @_operation
    def save_all(self) -> List[StoredInstance]:
        """Persist every live case."""
        return [self.save(instance_id) for instance_id in self.live_instance_ids()]

    def load(self, instance_id: str) -> InstanceHandle:
        """Load a stored case into the live set and return its handle."""
        return self.instance(instance_id)

    @_operation
    def delete_instance(self, instance_id: str) -> bool:
        """Remove a case from the live set and the instance store.

        Returns True when the case existed anywhere.  Only then is the
        deletion journaled (so it survives recovery) and published: an
        unknown id leaves no trace.
        """
        existed_live = self._instances.pop(instance_id, None) is not None
        self._dirty.discard(instance_id)
        existed = self.store.delete(instance_id) or existed_live
        if existed:
            self._journal(KIND_INSTANCE_DELETED, instance_id=instance_id)
        self.worklists.discard_instance(instance_id)
        if existed:
            self.bus.publish(CATEGORY_SYSTEM, "instance_deleted", instance_id=instance_id)
        return existed

    def stored_instance_ids(self) -> List[str]:
        return self.store.instance_ids()

    @_operation
    def checkpoint(self) -> None:
        """Make the current state the durable baseline.

        Writes every dirty live case back to the instance store, captures
        one atomic snapshot (schemas, instance records, case counters) and
        truncates the write-ahead log — after this, recovery loads the
        snapshot and replays nothing.  The checkpoint is one operation, so
        the snapshot is a consistent cut.  Records other operations
        enqueued before it and have not flushed yet are committed first
        (:meth:`PersistentBackend.write_snapshot`); their callers return
        normally.  A no-op on an in-memory system (one not created by
        :meth:`open`), as :meth:`close` is: there is nothing to make durable.
        """
        if self._backend is None:
            return
        for instance_id in sorted(self._dirty):
            instance = self._instances.get(instance_id)
            if instance is not None:
                self.store.write_back(instance)
        self._dirty.clear()
        self._backend.write_snapshot(self)
        self.bus.publish(
            CATEGORY_SYSTEM,
            "checkpoint_completed",
            instances=len(self.store),
            types=len(self.repository),
        )

    # ------------------------------------------------------------------ #
    # monitoring
    # ------------------------------------------------------------------ #

    @_operation
    def monitor(self, instance_id: str) -> InstanceMonitor:
        """A monitoring view of one case."""
        return InstanceMonitor(self.get_instance(instance_id))

    @_operation
    def statistics(self, type_id: Optional[str] = None) -> PopulationStatistics:
        """Population statistics over the live cases (optionally one type)."""
        instances: Iterable[ProcessInstance] = list(self._instances.values())
        if type_id is not None:
            instances = [i for i in instances if i.process_type == type_id]
        return PopulationStatistics.collect(instances)

    def __repr__(self) -> str:
        return (
            f"AdeptSystem(types={len(self.repository)}, "
            f"live_instances={len(self._instances)}, stored={len(self.store)})"
        )
