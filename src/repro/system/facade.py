"""The :class:`AdeptSystem` service façade.

The ADEPT2 paper describes one process-management *system* that owns
schema versioning, instance execution, ad-hoc change and compliance-
checked migration behind a single service interface.  This module is
that interface for the reproduction: one object composing the schema
repository, the instance store, the execution engine, the worklist
manager, the ad-hoc changer, schema evolution (the
:class:`~repro.system.evolution.Evolution` collaborator, ``self.evolution``),
the organisational model and the monitoring feed — wired once, correctly,
with every state change flowing through one
:class:`~repro.system.events.EventBus`.

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

import logging
import threading
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
    Set,
)

from repro import json_codec
from repro.core.adhoc import AdHocChanger
from repro.core.evolution import ProcessType
from repro.monitoring.feed import EventFeed
from repro.monitoring.monitor import InstanceMonitor
from repro.monitoring.statistics import PopulationStatistics
from repro.runtime.engine import EngineError, InstanceIdInUseError, ProcessEngine, Worker
from repro.runtime.instance import ProcessInstance
from repro.runtime.worklist import WorkItem, WorklistManager
from repro.schema.graph import ProcessSchema, SchemaError
from repro.storage.instance_store import InstanceStore, StorageError, StoredInstance
from repro.storage.repository import SchemaRepository
from repro.system.concurrency import LockTable, PoolStats, WorkerPool, operation as _operation
from repro.system.evolution import MIGRATE_COMPLIANT, ChangeLike, Evolution
from repro.system.persistence import (
    KIND_ADHOC_CHANGE,
    KIND_INSTANCE_ABORTED,
    KIND_INSTANCE_ADOPTED,
    KIND_INSTANCE_DELETED,
    KIND_INSTANCE_SAVED,
    KIND_INSTANCE_STARTED,
    KIND_STEP,
    KIND_TYPE_ADOPTED,
    KIND_TYPE_DEPLOYED,
    PersistentBackend,
    RecoveryReport,
)
from repro.system.rollout import POLICY_REVERT, ROLLOUT_EAGER, Rollout
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

logger = logging.getLogger(__name__)

#: Upper bound on cases executed under one :meth:`AdeptSystem.step_many`
#: batch scope.  Large enough to amortise the per-chunk kernel dispatch;
#: with a bounded live cache the chunk never exceeds the cache, so
#: hydrating a chunk never evicts a case of the same chunk.
_BATCH_CHUNK = 16

#: The scope of "no suspension": stateless, so shared.
_NULL_SCOPE: ContextManager[None] = nullcontext()

#: What the default monitoring feed counts: the effects of changes and of
#: the system's own lifecycle, not the per-step ``engine`` stream.
FEED_CATEGORIES = (CATEGORY_CHANGE, CATEGORY_MIGRATION, CATEGORY_SCHEMA, CATEGORY_SYSTEM)


def _json_serialisable(outputs: Mapping[str, Any]) -> None:
    """Fail-fast check installed as the engine's step-outputs validator."""
    json_codec.dumps(outputs)


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
        self.bus = bus if bus is not None else EventBus()
        self.feed: Optional[EventFeed] = None
        if monitor:
            # the monitoring package is the first subscriber on the bus
            self.feed = EventFeed()
            self.bus.subscribe(self.feed, categories=FEED_CATEGORIES)

        self.org_model = org_model
        self.engine = ProcessEngine()
        self.engine.event_listener = self.bus.publish_engine_event
        self.repository = SchemaRepository()
        self.store = InstanceStore(self.repository)
        self.worklists = WorklistManager(self.engine, org_model=org_model)
        self.verifier = SchemaVerifier()
        self._changer = AdHocChanger(self.engine)
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

        #: Schema evolution: releases, eager migration, progressive rollouts.
        self.evolution = Evolution(self)
        #: The execution lock: every operation holds it from start to end.
        #: Its outermost exit runs the canary decisions the operation took.
        self._lock = LockTable(on_release=self.evolution.run_decisions)
        self._pool: Optional[WorkerPool] = None
        # serve()/drain() are check-then-act on _pool; racing callers
        # must resolve to one pool, not two (one of which would leak).
        # Not the execution lock: drain waits for workers that need it
        self._pool_guard = threading.Lock()

        # journaling + dirty tracking for every committed activity transition
        self.engine.step_listener = self._on_engine_step
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
            if self.evolution.rollouts:
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
        rollouts = self.evolution.rollouts
        try:
            for instance_id in instance_ids:
                instance = self._live(instance_id)
                instances.append(instance)
                if rollouts:
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
        # the engine hands over a fresh outputs dict, and the WAL encodes
        # the record before this returns: no copy is needed
        self._journal(
            KIND_STEP,
            instance_id=instance_id,
            action=action,
            activity=activity_id,
            outputs=outputs or None,
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
        it trims.  Each eviction is one DEBUG log line.
        """
        cap = self.cache_instances
        if cap is None:
            return
        for _ in range(len(self._instances) - max(cap, 1)):
            instance_id = next(iter(self._instances))
            instance = self._instances.pop(instance_id)
            dirty = instance_id in self._dirty
            if dirty:
                self._dirty.discard(instance_id)
                # the logical WAL records already cover this state —
                # the save is a cache write-back, not a durability point
                self.store.write_back(instance)
            logger.debug("evicted %s (%s)", instance_id, "written back" if dirty else "clean")
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
            self.evolution.startable_schema(process_type)
            if version is None
            else process_type.schema_for(version)
        )
        if case_id is None:
            case_id = self._next_case_id(type_id)
        elif self._in_use(case_id):
            raise InstanceIdInUseError(f"instance id {case_id!r} is already in use")
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

    def instance(self, instance_id: str) -> InstanceHandle:
        """Handle of a live or stored case (raises for unknown ids)."""
        self.get_instance(instance_id)
        return InstanceHandle(self, instance_id)

    @_operation
    def adopt_instance(self, instance: ProcessInstance) -> InstanceHandle:
        """Track an externally created :class:`ProcessInstance`.

        The instance's process type must already be deployed.  Workload
        generators use this to hand their populations to the system.  An
        id that names a live or a stored case is refused, as :meth:`start`
        refuses it.
        """
        self.repository.process_type(instance.process_type)  # raises when unknown
        if self._in_use(instance.instance_id):
            raise InstanceIdInUseError(
                f"instance id {instance.instance_id!r} is already in use"
            )
        return self._admit(instance)

    def _admit(self, instance: ProcessInstance) -> InstanceHandle:
        """:meth:`adopt_instance` past its checks: the case joins the live set."""
        instance_id = instance.instance_id
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
    # schema evolution and migration (system/evolution.py)
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
        (:meth:`Evolution._migrate_case`): the change is compiled once into a
        :class:`~repro.core.migration_plan.MigrationPlan`, unbiased
        store-resident candidates are classified by compliance
        fingerprint straight from their stored records, and only one
        representative per execution-state class (plus the biased /
        rollback residue) is ever materialised — as a scratch copy
        outside the live cache, or hydrated under the ``"rollback"``
        policy — so memory stays bounded by ``cache_instances`` + 1 no matter
        how large the population is.
        """
        return self.evolution.evolve(
            type_id,
            change,
            migrate,
            collect_results,
            rollout,
            canary_policy,
            canary_decide,
            fraction=fraction,
            conflict_threshold=conflict_threshold,
            min_observations=min_observations,
        )

    def rollout_of(self, type_id: str) -> Optional[Rollout]:
        """The in-flight rollout of ``type_id`` (None when there is none)."""
        return self.evolution.rollouts.get(type_id)

    @_operation
    def rollout_status(self, type_id: str) -> Optional[Dict[str, Any]]:
        """Progress of the active (or, failing that, last) rollout."""
        return self.evolution.status(type_id)

    @_operation
    def sweep_rollout(self, type_id: str, max_cases: int = 256) -> int:
        """Drain up to ``max_cases`` of a migrating rollout's residue.

        Returns the number of cases processed this round; when no residue
        is left the rollout completes (:meth:`Evolution.sweep`).  The call
        is one operation: it holds the execution lock for at most
        ``max_cases`` cases, which bounds how long any other operation
        waits for it.  Its ``rollout_migrated`` records (one per adopted
        case) reach the WAL in one write + flush, committed before the
        call returns.
        """
        return self.evolution.sweep(type_id, max_cases)

    def _touch_for_rollout(self, instance: ProcessInstance) -> None:
        """A touch of a case: adopt an in-flight rollout's version (:meth:`Evolution.touch`)."""
        self.evolution.touch(instance)

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
