"""Schema evolution and migration behind the :class:`~repro.system.AdeptSystem` façade.

ADEPT2's headline feature: a process type changes and its compliant
running cases migrate.  :class:`Evolution`, held by the façade as
``system.evolution``, is the one owner of it — the release step every
evolution shares (eager, progressive, a replayed ``evolution`` record),
the eager driver, the per-case routine :meth:`Evolution._migrate_case`,
and progressive rollouts: a case adopts on its next touch (a façade
operation on the case), a sweep drains the residue, and a canary verdict
runs when the operation that tipped it ends.

Every method runs inside an operation of the system; :meth:`Evolution.promote`
and :meth:`Evolution.roll_back` take one themselves, because the shard
server applies a fleet's canary verdict through them.  Recovery replays a
record by calling the method that journaled it.
"""

from __future__ import annotations

import logging
import time
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set
from typing import Tuple, Union

from repro.core.changelog import ChangeLog
from repro.core.evolution import ProcessType, TypeChange
from repro.core.migration import (
    InstanceMigrationResult,
    MigrationManager,
    MigrationOutcome,
    MigrationReport,
)
from repro.core.migration_plan import FingerprintCache, MigrationPlan
from repro.core.operations import ChangeOperation
from repro.errors import MigrationError
from repro.runtime.engine import ProcessEngine
from repro.runtime.instance import ProcessInstance
from repro.runtime.states import ACTIVE_STATUS_VALUES, InstanceStatus
from repro.schema.graph import ProcessSchema
from repro.storage.serialization import instance_from_dict, instance_to_dict
from repro.system.changes import ChangeSet
from repro.system.concurrency import operation
from repro.system.events import CATEGORY_MIGRATION, CATEGORY_SCHEMA, CATEGORY_SYSTEM
from repro.system.persistence import (
    KIND_EVOLUTION,
    KIND_ROLLOUT_COMPLETED,
    KIND_ROLLOUT_CONFLICTED,
    KIND_ROLLOUT_MIGRATED,
    KIND_ROLLOUT_PROMOTED,
    KIND_ROLLOUT_ROLLED_BACK,
    KIND_ROLLOUT_STARTED,
)
from repro.system.rollout import (
    POLICY_REVERT,
    ROLLOUT_CANARY,
    ROLLOUT_EAGER,
    ROLLOUT_LAZY,
    STATE_MIGRATING,
    STATE_OBSERVING,
    Rollout,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.facade import AdeptSystem

logger = logging.getLogger(__name__)

#: Migration policies accepted by :meth:`AdeptSystem.evolve`.
MIGRATE_COMPLIANT = "compliant"
MIGRATE_NONE = "none"
MIGRATE_STRICT = "strict"
MIGRATE_ROLLBACK = "rollback"

ChangeLike = Union[TypeChange, ChangeSet, ChangeLog, Sequence[ChangeOperation]]


class Evolution:
    """Releases, eager migration and progressive rollouts of one system."""

    def __init__(self, system: "AdeptSystem") -> None:
        self.system = system
        self._migrator = MigrationManager(system.engine)
        #: In-flight progressive rollouts, one per type id.
        self.rollouts: Dict[str, Rollout] = {}
        #: Finished rollouts (completed / rolled back), for status queries.
        self.history: Dict[str, Rollout] = {}
        #: Versions retired by a "pin"-policy canary rollback — never
        #: picked for new cases, though pinned cases keep running on them.
        self.retired: Dict[str, Set[int]] = {}
        #: Canary decisions taken by a touch or a sweep, run when the
        #: operation that took them ends (:meth:`run_decisions`).
        self._decisions: List[Tuple[str, str]] = []

    # the system's lock and backend, for :func:`~repro.system.concurrency.operation`
    _lock = property(lambda self: self.system._lock)
    _backend = property(lambda self: self.system._backend)

    # ------------------------------------------------------------------ #
    # evolve: the release step and the eager driver
    # ------------------------------------------------------------------ #

    def evolve(
        self,
        type_id: str,
        change: ChangeLike,
        migrate: str,
        collect_results: bool,
        rollout: str,
        canary_policy: str,
        canary_decide: str,
        **options: Any,
    ) -> Any:
        """:meth:`AdeptSystem.evolve`, whose docstring is the contract.

        ``options`` are a progressive rollout's ``fraction``,
        ``conflict_threshold`` and ``min_observations``.
        """
        if migrate not in (MIGRATE_COMPLIANT, MIGRATE_NONE, MIGRATE_STRICT, MIGRATE_ROLLBACK):
            raise ValueError(
                f"unknown migration policy {migrate!r}; "
                f"expected one of 'compliant', 'none', 'strict', 'rollback'"
            )
        if rollout == ROLLOUT_EAGER:
            return self.release_and_migrate(type_id, change, migrate, collect_results)
        if rollout not in (ROLLOUT_LAZY, ROLLOUT_CANARY):
            raise ValueError(
                f"unknown rollout mode {rollout!r}; expected one of 'eager', 'lazy', 'canary'"
            )
        if migrate != MIGRATE_COMPLIANT:
            raise ValueError("progressive rollouts support the 'compliant' migration policy only")
        if canary_decide not in ("auto", "external"):
            raise ValueError(
                f"unknown canary_decide {canary_decide!r}; expected 'auto' or 'external'"
            )
        return self.start_rollout(
            type_id,
            change,
            rollout,
            policy=canary_policy,
            decide_externally=canary_decide == "external",
            **options,
        )

    def _change_of(self, type_id: str, change: ChangeLike) -> Tuple[ProcessType, TypeChange]:
        """The first half of the release step: the type and its ΔT.

        Refused while a progressive rollout of the type is in flight.
        What must pass before anything is released (a strict dry run, a
        rollout's parameters) runs between the two halves.
        """
        if type_id in self.rollouts:
            raise MigrationError(f"a progressive rollout of {type_id!r} is still in flight")
        process_type = self.system.repository.process_type(type_id)
        if isinstance(change, ChangeSet):
            change = change.to_change_log()
        if isinstance(change, ChangeLog):
            change = TypeChange(process_type.latest_version, change, comment=change.comment)
        elif not isinstance(change, TypeChange):
            change = TypeChange.of(process_type.latest_version, list(change))
        return process_type, change

    def _release(self, process_type: ProcessType, type_change: TypeChange) -> ProcessSchema:
        """The second half of the release step: release, drop, announce.

        ΔT starts from the latest version, which stays compiled as
        latest − 1, so migrating its cases changes nothing the drop reads.
        The event precedes the migration's ``instance_migrated`` events.
        """
        system = self.system
        type_id = process_type.name
        new_schema = system.repository.release_version(type_id, type_change)
        self._drop_unoccupied_versions(process_type)
        system.bus.publish(
            CATEGORY_SCHEMA, "schema_version_released", type_id=type_id, version=new_schema.version
        )
        return new_schema

    def release_and_migrate(
        self,
        type_id: str,
        change: ChangeLike,
        policy: str,
        collect_results: bool = True,
        candidates: Optional[List[str]] = None,
    ) -> MigrationReport:
        """The eager driver: release the version, every candidate meets ΔT now.

        The candidates meet ΔT one at a time, in order, through
        :meth:`_migrate_case`, so memory stays bounded by
        ``cache_instances`` + 1 whatever the population.  ``candidates``
        are the journaled ones of a replayed ``evolution`` record — the
        live set depends on what the cache holds — and then the strict
        dry run is skipped: the record proves it passed.  A live evolve
        and its replay publish the same events.
        """
        system = self.system
        process_type, type_change = self._change_of(type_id, change)
        if candidates is None:
            candidates = [] if policy == MIGRATE_NONE else self._evolution_candidates(type_id)
            if policy == MIGRATE_STRICT:
                self._require_all_compliant(process_type, type_change, candidates)
        new_schema = self._release(process_type, type_change)
        report = MigrationReport(
            type_id, type_change.from_version, new_schema.version, collect_results=collect_results
        )
        if policy != MIGRATE_NONE:
            compensating = None
            if policy == MIGRATE_ROLLBACK:
                compensating = MigrationManager(system.engine, rollback_on_state_conflict=True)
            plan = self._migrator.compile_plan(
                process_type.schema_for(type_change.from_version), new_schema, type_change
            )
            cache = FingerprintCache()
            # biased classes (state fingerprint + canonical bias) decided so
            # far: fingerprint -> what the class's representative came to
            bias_classes: Dict[str, Dict[str, Any]] = {}
            started = time.perf_counter()
            # the one evolution record below covers the whole mutation —
            # compensations inside the migration journal no step records
            with system._journal_suspended():
                for instance_id in candidates:
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
                system._enforce_cache_cap()
            report.duration_seconds = time.perf_counter() - started
            system.bus.publish(
                CATEGORY_SYSTEM,
                "bulk_migration_classes",
                type_id=type_id,
                classes=cache.classes,
                hits=cache.hits,
                misses=cache.misses,
                candidates=len(candidates),
            )
        system._journal(
            KIND_EVOLUTION,
            type_id=type_id,
            change=type_change.to_dict(),
            policy=policy,
            to_version=new_schema.version,
            candidates=candidates,
        )
        system._notify_pool()
        if policy != MIGRATE_NONE:
            system.bus.publish(
                CATEGORY_MIGRATION,
                "migration_completed",
                type_id=type_id,
                from_version=report.from_version,
                to_version=report.to_version,
                migrated=report.migrated_count,
                total=report.total,
            )
        logger.info(
            "evolved %s v%d -> v%d (%s): %d of %d case(s) migrated",
            type_id,
            report.from_version,
            report.to_version,
            policy,
            report.migrated_count,
            report.total,
        )
        return report

    def _cases_of(
        self, type_id: str, stored: Iterable[str]
    ) -> Tuple[List[ProcessInstance], List[str]]:
        """A type's live cases, and the ids in ``stored`` that are not live.

        The one read of a type's live ∪ stored population.  The live copy
        governs: the record of a live case may be stale (dirty cases write
        back lazily).
        """
        live = self.system._instances
        return (
            [instance for instance in live.values() if instance.process_type == type_id],
            [instance_id for instance_id in stored if instance_id not in live],
        )

    def _drop_unoccupied_versions(self, process_type: ProcessType) -> None:
        """Drop the compiled index of every superseded version no case runs on.

        Occupancy is recomputed per release, not maintained per step: the
        versions of the type's live cases, of any status, and of its
        active stored records.  A stale record only over-counts, which
        keeps a version compiled.
        """
        type_id = process_type.name
        live, _ = self._cases_of(type_id, ())
        occupied = {instance.schema_version for instance in live}
        occupied.update(self.system.store.active_versions_of_type(type_id))
        process_type.drop_unoccupied(occupied)

    def _evolution_candidates(self, type_id: str) -> List[str]:
        """Every live case of the type plus the *running* store-resident ones.

        Finished stored cases can never migrate, so touching them would
        only defeat the bounded live cache.
        """
        store = self.system.store
        live, stored = self._cases_of(type_id, store.running_instances_of_type(type_id))
        return sorted([instance.instance_id for instance in live] + stored)

    def _require_all_compliant(
        self, process_type: ProcessType, type_change: TypeChange, candidate_ids: List[str]
    ) -> None:
        """``migrate="strict"``: dry-run ΔT on clones, refuse it if any case would stay behind.

        Runs before the release, against a scratch copy of the type.  The
        clones are made one at a time and hydrate nothing: a live case is
        copied, a stored one loaded as a scratch copy outside the cache.
        """
        scratch_type = ProcessType(process_type.name)
        for version in process_type.versions:
            scratch_type.add_version(process_type.schema_for(version))
        live, store = self.system._instances, self.system.store
        resolve = self.system.repository.resolve
        clones = (
            instance_from_dict(instance_to_dict(live[i]), resolve) if i in live else store.load(i)
            for i in candidate_ids
        )
        dry_report = MigrationManager(ProcessEngine()).migrate_type(
            scratch_type, type_change, clones
        )
        blocked = sorted(dry_report.non_compliant_instances)
        if blocked:
            raise MigrationError(
                f"strict migration of {process_type.name!r} refused: "
                f"{len(blocked)} of {dry_report.total} instance(s) cannot migrate "
                f"({', '.join(blocked)})",
                report=dry_report,
            )

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

        A live case (``instance`` when the caller holds it) goes to
        :meth:`MigrationManager.migrate_instance`.  A store-resident one
        is decided from its record as far as that goes
        (:meth:`MigrationManager.decide_record`): reported as it is,
        rewritten in place with its class's marking template, or — the
        first of its class, a biased case, a biased-class representative
        — decided by the same ``migrate_instance`` on a scratch copy
        loaded from the store, written back if it migrated and offered
        what its new marking activates.  The scratch copy never enters
        the live cache, so deciding a stored case evicts no other.  With
        ``bias_classes`` (eager only) stored biased cases in the same
        state with the same bias share one representative's outcome,
        adapted marking and re-encoded representation.

        ``compensating`` is the ``"rollback"`` policy's manager.  It
        compensates a conflicting case by driving the shared engine on
        it, whose listeners act on live cases only, so under that policy
        a stored case that needs a look is hydrated.

        Relied upon: a case that is not live has a current store record —
        eviction writes dirty cases back before dropping them.
        """
        system = self.system
        store = system.store
        migrator = compensating or self._migrator
        bias_class = record = None
        if instance is None and instance_id not in system._instances:
            # an unknown id has no record: hydration raises the canonical EngineError
            record = dict(store.records_for([instance_id])).get(instance_id)
        if record is not None:
            action, found = migrator.decide_record(
                record, type_change, plan, cache, share_bias=bias_classes is not None
            )
            if action == "report":
                return found
            if action == "rewrite":
                # a compliant class verdict: the record moves onto the new
                # schema with the class's adapted marking and the case is
                # offered what it activates, unmaterialised (the class
                # computes that effect once); a marking at the end finishes it
                effect = found.stored_effect(plan.new_schema)
                updates = {"status": InstanceStatus.COMPLETED.value} if effect.finished else None
                store.migrate_record(
                    instance_id, plan.new_schema.version, effect.marking, updates=updates
                )
                system.worklists.sync_offers(
                    instance_id, effect.offers, () if effect.finished else None
                )
                return InstanceMigrationResult(instance_id, MigrationOutcome.MIGRATED)
            bias_class = found
            if bias_class is not None and bias_class in bias_classes:
                return self._apply_biased_class(
                    instance_id, bias_classes[bias_class], plan.new_schema.version
                )
        scratch = record is not None and compensating is None
        if scratch:
            instance = store.load(instance_id)
        elif instance is None:
            instance = system._live(instance_id)
        result = migrator.migrate_instance(
            instance, plan.old_schema, plan.new_schema, type_change, plan, cache, emit=False
        )
        if result.migrated:
            if scratch:
                store.write_back(instance)
            else:
                # covers rollback migrations, which compensate activities
                # and therefore also change the instance state
                system._dirty.add(instance_id)
            system.worklists.sync_instance(instance)
        if bias_class is not None:
            # the class's stored fields are encoded only if a second member comes
            bias_classes[bias_class] = {"representative": instance_id, "result": result}
            if result.migrated:
                bias_classes[bias_class]["offers"], _ = system.worklists.work_of(
                    instance.execution_schema, instance.marking
                )
        return result

    def _apply_biased_class(
        self, instance_id: str, biased_class: Dict[str, Any], new_version: int
    ) -> InstanceMigrationResult:
        """Apply a biased class's shared verdict to one stored member.

        Everything the members need is a pure function of (bias, state
        fingerprint): the representative's outcome, conflicts and offers
        and — encoded once, at the first further member, from the live
        representative or the record its eviction wrote back, less the
        ``"fix"`` hint — its stored ``marking``, ``status``, ``bias`` /
        ``biased`` / ``representation``.  The substitution block depends
        on the schemas only, so one encoding serves every member.
        """
        system = self.system
        result = biased_class["result"]
        if result.migrated:
            if "marking" not in biased_class:
                representative = biased_class["representative"]
                live = system._instances.get(representative)
                if live is not None:
                    encoded = system.store.encode_record(live)
                else:
                    encoded = system.store.record(representative)
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
            system.store.migrate_record(
                instance_id, new_version, biased_class["marking"], updates=updates
            )
            finished = updates["status"] not in ACTIVE_STATUS_VALUES
            system.worklists.sync_offers(
                instance_id, biased_class["offers"], () if finished else None
            )
        return InstanceMigrationResult(
            instance_id, result.outcome, list(result.conflicts), was_biased=True
        )

    # ------------------------------------------------------------------ #
    # progressive (zero-downtime) rollouts
    # ------------------------------------------------------------------ #

    def start_rollout(self, type_id: str, change: ChangeLike, mode: str, **options: Any) -> Rollout:
        """Publish a new version without migrating the population.

        ``options`` are :class:`Rollout`'s keyword options, journaled with
        the ``rollout_started`` record.  O(schema), independent of the
        population: running cases adopt the new version on their next
        touch (:meth:`touch`), a sweep drains the rest (:meth:`sweep`).
        """
        process_type, type_change = self._change_of(type_id, change)
        # validate the rollout parameters *before* the version is
        # released — a bad fraction must not leave a half evolution
        rollout = Rollout(type_id, type_change, mode, **options)
        self._release(process_type, type_change)
        self._attach_plan(rollout)
        self.rollouts[type_id] = rollout
        record = {"change": type_change.to_dict(), "mode": mode, **options}
        self._announce(rollout, KIND_ROLLOUT_STARTED, record, mode=mode)
        return rollout

    def _attach_plan(self, rollout: Rollout) -> None:
        """Compile the rollout's migration plan and fresh verdict cache."""
        process_type = self.system.repository.process_type(rollout.type_id)
        rollout.plan = self._migrator.compile_plan(
            process_type.schema_for(rollout.from_version),
            process_type.schema_for(rollout.to_version),
            rollout.type_change,
        )
        rollout.cache = FingerprintCache()

    def status(self, type_id: str) -> Optional[Dict[str, Any]]:
        """Progress of the active (or, failing that, last) rollout."""
        rollout = self.rollouts.get(type_id) or self.history.get(type_id)
        return rollout.progress() if rollout is not None else None

    def startable_schema(self, process_type: ProcessType) -> ProcessSchema:
        """The version new cases start on when none is requested.

        The latest released one, except while a canary is *observing* —
        its version may yet be rolled back, and a rolled-back version must
        never be a case's only home, so new cases start on the from
        version — and versions retired by a "pin"-policy rollback.
        """
        rollout = self.rollouts.get(process_type.name)
        if rollout is not None and rollout.state == STATE_OBSERVING:
            return process_type.schema_for(rollout.from_version)
        retired = self.retired.get(process_type.name)
        if retired:
            startable = [v for v in process_type.versions if v not in retired]
            if startable:
                return process_type.schema_for(max(startable))
        return process_type.latest_schema

    def touch(self, instance: ProcessInstance) -> None:
        """O(1) per-touch check: adopt an in-flight rollout's version.

        A touch is a façade operation on the case — a step, a claim, a
        change, a ``save`` — whose execution scope calls this before it
        works on the case.  A canary decision the adoption tips over is
        queued for the end of the operation (:meth:`run_decisions`).
        """
        rollout = self.rollouts.get(instance.process_type)
        if rollout is None or not rollout.active:
            return
        backend = self.system._backend
        if backend is not None and not backend.active:
            # WAL replay / compound mutation: rollout records drive
            # adoption, not the replayed operations' touches
            return
        if instance.schema_version != rollout.from_version or not instance.status.is_active:
            return
        instance_id = instance.instance_id
        if instance_id in rollout.conflicted:
            # conflicting cases stay on their old version (the paper's
            # eager semantics); never re-attempted within one rollout
            return
        if rollout.state == STATE_OBSERVING and not rollout.in_cohort(instance_id):
            return
        rollout.touches += 1
        decision = self.adopt(rollout, instance_id, instance)
        if decision is not None:
            self._decisions.append((rollout.type_id, decision))

    def adopt(
        self, rollout: Rollout, instance_id: str, instance: Optional[ProcessInstance] = None
    ) -> Optional[str]:
        """Migrate one case onto the rollout's version and keep the books.

        The touch passes the live ``instance`` it holds; the sweep only
        the id, so a stored case adopts without being hydrated.  Returns
        the canary decision the attempt triggered ("promote" /
        "rollback"), if any — the *caller* queues it.
        """
        system = self.system
        pre_state = None
        if instance is not None and rollout.state == STATE_OBSERVING:
            if rollout.policy == POLICY_REVERT:
                # captured *before* the migration so a rollback can restore
                # the case byte-identically (observing rollouts adopt on
                # touch only — the sweep waits for the promotion)
                pre_state = instance_to_dict(instance)
        with system._journal_suspended():
            result = self._migrate_case(
                instance_id, rollout.type_change, rollout.plan, rollout.cache, instance
            )
        if result.outcome is MigrationOutcome.FINISHED:
            return None
        fields = {"type_id": rollout.type_id, "instance_id": instance_id}
        if result.migrated:
            system._journal(KIND_ROLLOUT_MIGRATED, to_version=rollout.to_version, **fields)
            decision = rollout.note_adoption(instance_id, pre_state)
            event, detail = "rollout_case_adopted", {"to_version": rollout.to_version}
        else:
            if rollout.state == STATE_OBSERVING:
                # a canary's verdict rests on its conflicts: a crash keeps them
                system._journal(KIND_ROLLOUT_CONFLICTED, to_version=rollout.to_version, **fields)
            decision = rollout.note_conflict(instance_id)
            event, detail = "rollout_case_conflict", {"outcome": result.outcome.value}
        if instance_id in system._instances:
            # a store-resident case adopts silently: ``rollout_swept`` counts it
            system.bus.publish(CATEGORY_MIGRATION, event, **fields, **detail)
        return decision

    # ---- canary decisions and the end of a rollout -------------------- #

    def run_decisions(self) -> None:
        """Run the canary decisions queued by the operation that is ending.

        The execution lock's release hook, so it runs when the outermost
        operation scope exits, still under the lock.  Not inline at the
        touch: a revert replaces live case objects that the deciding
        operation may still be stepping (a ``step_many`` chunk).
        """
        decisions = self._decisions
        while decisions:
            type_id, decision = decisions.pop(0)
            if decision == "rollback":
                self.roll_back(type_id)
            else:
                self.promote(type_id)

    @operation
    def promote(self, type_id: str) -> bool:
        """Open an observing canary to the whole population; False if none was left."""
        rollout = self.rollouts.get(type_id)
        if rollout is None or not rollout.promote():
            return False
        rate = rollout.observed_conflict_rate
        self._announce(rollout, KIND_ROLLOUT_PROMOTED, {}, observed_conflict_rate=rate)
        return True

    @operation
    def roll_back(self, type_id: str) -> Optional[List[str]]:
        """Canary observation failed: abandon the new version.

        Under ``"revert"`` every adopted case is restored from its
        pre-adoption snapshot and the version withdrawn; under ``"pin"``
        adopted cases keep running on it but it is retired — no new case
        starts on it.  Returns the restored ids (None: no observing
        rollout was left).
        """
        rollout = self.rollouts.get(type_id)
        if rollout is None or not rollout.roll_back():
            return None
        reverted: List[str] = []
        if rollout.policy == POLICY_REVERT:
            reverted = self._revert_canary_cohort(rollout)
            self.system.repository.withdraw_version(type_id, rollout.to_version)
        else:
            self.retired.setdefault(type_id, set()).add(rollout.to_version)
        self._retire(
            rollout,
            KIND_ROLLOUT_ROLLED_BACK,
            {"policy": rollout.policy, "reverted": reverted},
            policy=rollout.policy,
            reverted=len(reverted),
            observed_conflict_rate=rollout.observed_conflict_rate,
        )
        self.system._notify_pool()
        return reverted

    def _revert_canary_cohort(self, rollout: Rollout) -> List[str]:
        """Restore the adopted canary cases from their pre-adoption snapshots.

        Steps a case took on the canary version are discarded with it —
        deterministically, so a replay re-derives the journaled
        ``reverted`` ids.
        """
        system = self.system
        reverted: List[str] = []
        with system._journal_suspended():
            for instance_id in sorted(rollout.adopted):
                pre_state = rollout.pre_states.get(instance_id)
                if pre_state is None:
                    continue  # adopted without a snapshot (defensive)
                restored = instance_from_dict(dict(pre_state), system.repository.resolve)
                if instance_id in system._instances:
                    system._instances[instance_id] = restored
                    system._dirty.add(instance_id)
                    # tracks the restored object and re-offers its work
                    system.worklists.register_instance(restored)
                else:
                    system.store.write_back(restored)
                    system.worklists.sync_instance(restored)
                reverted.append(instance_id)
        return reverted

    def complete(self, rollout: Rollout) -> bool:
        """Every case adopted (or conflicted): retire the rollout; False unless migrating."""
        if not rollout.complete():
            return False
        self._retire(
            rollout,
            KIND_ROLLOUT_COMPLETED,
            {},
            adopted=len(rollout.adopted),
            conflicted=len(rollout.conflicted),
        )
        return True

    def _retire(
        self, rollout: Rollout, kind: str, record: Mapping[str, Any], **announced: Any
    ) -> None:
        """The end of a rollout, completed or rolled back: file it, announce it."""
        self.rollouts.pop(rollout.type_id, None)
        self.history[rollout.type_id] = rollout
        self._announce(rollout, kind, record, **announced)

    def _announce(
        self, rollout: Rollout, kind: str, record: Mapping[str, Any], **announced: Any
    ) -> None:
        """Journal a rollout transition, publish it and log it.

        ``kind`` names the WAL record and the event alike; ``record`` and
        ``announced`` are what each carries besides the type and version.
        """
        fields = {"type_id": rollout.type_id, "to_version": rollout.to_version}
        self.system._journal(kind, **fields, **record)
        self.system.bus.publish(CATEGORY_MIGRATION, kind, **fields, **announced)
        logger.info(
            "rollout of %s %s: v%d%s",
            rollout.type_id,
            kind[len("rollout_") :].replace("_", " "),
            rollout.to_version,
            "".join(f", {name} {value}" for name, value in announced.items()),
        )

    # ---- the background sweeper --------------------------------------- #

    def sweep(self, type_id: str, max_cases: int) -> int:
        """:meth:`AdeptSystem.sweep_rollout`: drain up to ``max_cases`` of the residue.

        Each residue case goes through the same adoption as a touch; a
        stored one is decided from its record or on a scratch copy
        (:meth:`_migrate_case`).  A sweep that finds no residue left
        completes the rollout.
        """
        rollout = self.rollouts.get(type_id)
        if rollout is None or rollout.state != STATE_MIGRATING:
            return 0
        residue = self.residue(rollout)
        swept = 0
        for instance_id in residue[:max_cases]:
            decision = self.adopt(rollout, instance_id)
            if decision is not None:
                self._decisions.append((type_id, decision))
            swept += 1
        if swept:
            rollout.swept += swept
            self.system.bus.publish(
                CATEGORY_MIGRATION, "rollout_swept", type_id=type_id, swept=swept
            )
            self.system._enforce_cache_cap()
        # cases left in the list are still undecided: only a sweep that
        # got through it can have finished the rollout
        if len(residue) <= max_cases and not self.residue(rollout):
            self.complete(rollout)
        return swept

    def residue(self, rollout: Rollout) -> List[str]:
        """Active cases still on the rollout's from-version, less the decided ones."""
        type_id, from_version = rollout.type_id, rollout.from_version
        store = self.system.store
        live, stored = self._cases_of(
            type_id, store.running_instances_on_version(type_id, from_version)
        )
        pending = {
            instance.instance_id
            for instance in live
            if instance.schema_version == from_version and instance.status.is_active
        }
        pending.update(stored)
        return sorted(pending - rollout.adopted - rollout.conflicted)

    # ---- snapshots ---------------------------------------------------- #

    def snapshot(self) -> Dict[str, Any]:
        """The snapshot's evolution keys: in-flight rollouts and retired versions."""
        payload: Dict[str, Any] = {}
        if self.rollouts:
            payload["rollouts"] = [rollout.to_dict() for rollout in self.rollouts.values()]
        retired = {
            type_id: sorted(versions) for type_id, versions in self.retired.items() if versions
        }
        if retired:
            payload["retired_versions"] = retired
        return payload

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Re-arm what :meth:`snapshot` wrote (after the snapshot's schemas are adopted)."""
        for payload in snapshot.get("rollouts", []):
            rollout = Rollout.from_dict(dict(payload))
            self._attach_plan(rollout)
            (self.rollouts if rollout.active else self.history)[rollout.type_id] = rollout
        for type_id, versions in snapshot.get("retired_versions", {}).items():
            self.retired[type_id] = set(versions)
