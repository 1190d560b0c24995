"""Instance migration: propagating type changes to running instances.

This module implements the paper's migration process (Figs. 1 and 3):
after a type change ΔT has been released as a new schema version, every
running instance of the type is checked and — if possible — migrated
on-the-fly:

* **unbiased** instances are checked against the per-operation compliance
  conditions (or the replay criterion); compliant ones get their marking
  adapted and are re-linked to the new version, non-compliant ones remain
  on the old version and simply keep running (state-related conflict,
  instance I3 in Fig. 1);
* **biased** instances (with ad-hoc modifications) additionally undergo
  semantic-overlap and structural checks: if applying ΔT to their
  instance-specific schema would produce an incorrect schema (e.g. a
  deadlock-causing cycle, instance I2 in Fig. 1) they stay on the old
  version with a structural conflict; otherwise bias and type change are
  combined and the instance migrates while keeping its bias.

The outcome of a migration run is a :class:`MigrationReport` that mirrors
the report of the paper's monitoring component.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.changelog import ChangeLog
from repro.core.compliance import ComplianceChecker
from repro.core.conflicts import Conflict, ConflictKind, semantic_conflict, structural_conflict
from repro.core.evolution import ProcessType, TypeChange
from repro.core.operations import OperationError
from repro.core.state_adaptation import StateAdapter
from repro.runtime.engine import ProcessEngine
from repro.runtime.events import EngineEvent, EventLog, EventType
from repro.runtime.instance import ProcessInstance
from repro.schema.graph import ProcessSchema, SchemaError
from repro.verification.verifier import SchemaVerifier


class MigrationOutcome(str, Enum):
    """Per-instance result of a migration attempt."""

    MIGRATED = "migrated"
    MIGRATED_WITH_BIAS = "migrated_with_bias"
    MIGRATED_WITH_ROLLBACK = "migrated_with_rollback"
    STATE_CONFLICT = "state_conflict"
    STRUCTURAL_CONFLICT = "structural_conflict"
    SEMANTIC_CONFLICT = "semantic_conflict"
    DATA_CONFLICT = "data_conflict"
    FINISHED = "finished"

    @property
    def migrated(self) -> bool:
        return self in (
            MigrationOutcome.MIGRATED,
            MigrationOutcome.MIGRATED_WITH_BIAS,
            MigrationOutcome.MIGRATED_WITH_ROLLBACK,
        )


@dataclass
class InstanceMigrationResult:
    """Result of migrating (or refusing to migrate) one instance."""

    instance_id: str
    outcome: MigrationOutcome
    conflicts: List[Conflict] = field(default_factory=list)
    was_biased: bool = False
    duration_seconds: float = 0.0

    @property
    def migrated(self) -> bool:
        return self.outcome.migrated

    def describe(self) -> str:
        line = f"{self.instance_id}: {self.outcome.value}"
        if self.was_biased:
            line += " (ad-hoc modified)"
        if self.conflicts:
            line += " — " + "; ".join(str(conflict) for conflict in self.conflicts)
        return line


@dataclass
class MigrationReport:
    """Summary of one migration run over all instances of a process type.

    With ``collect_results=False`` (bulk runs over very large
    populations) only the aggregate counters and a bounded sample of
    conflicting results are kept — a 100k-case migration then holds a
    handful of counters instead of 100k result dataclasses.  All counting
    accessors (:meth:`count`, :attr:`total`, :attr:`migrated_count`,
    :meth:`outcome_counts`) work in both modes; the per-instance views
    (:attr:`results`, :attr:`migrated_instances`, …) are only populated
    when results are collected.
    """

    process_type: str
    from_version: int
    to_version: int
    results: List[InstanceMigrationResult] = field(default_factory=list)
    duration_seconds: float = 0.0
    #: keep every per-instance result (default) or only counters + samples
    collect_results: bool = True
    #: bounded detail kept for conflict reporting when results are dropped
    conflict_samples: List[InstanceMigrationResult] = field(default_factory=list)
    conflict_sample_limit: int = 25
    _counts: Dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        # reports constructed with a pre-filled results list stay consistent
        for result in self.results:
            self._counts[result.outcome.value] = self._counts.get(result.outcome.value, 0) + 1

    def add(self, result: InstanceMigrationResult) -> None:
        self._counts[result.outcome.value] = self._counts.get(result.outcome.value, 0) + 1
        if self.collect_results:
            self.results.append(result)
        elif result.conflicts and len(self.conflict_samples) < self.conflict_sample_limit:
            self.conflict_samples.append(result)

    # -- aggregate views -------------------------------------------------- #

    def count(self, outcome: MigrationOutcome) -> int:
        return self._counts.get(outcome.value, 0)

    @property
    def migrated_count(self) -> int:
        return (
            self.count(MigrationOutcome.MIGRATED)
            + self.count(MigrationOutcome.MIGRATED_WITH_BIAS)
            + self.count(MigrationOutcome.MIGRATED_WITH_ROLLBACK)
        )

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    @property
    def migrated_instances(self) -> List[str]:
        return [result.instance_id for result in self.results if result.migrated]

    @property
    def non_compliant_instances(self) -> List[str]:
        return [
            result.instance_id
            for result in self.results
            if not result.migrated and result.outcome is not MigrationOutcome.FINISHED
        ]

    def outcome_counts(self) -> Dict[str, int]:
        """Mapping of outcome name to count (the report's headline numbers)."""
        return {outcome.value: self.count(outcome) for outcome in MigrationOutcome}

    def results_by_outcome(self, outcome: MigrationOutcome) -> List[InstanceMigrationResult]:
        return [result for result in self.results if result.outcome is outcome]

    def summary(self) -> str:
        """Human readable report akin to the paper's monitoring component."""
        lines = [
            f"Migration report: {self.process_type} v{self.from_version} -> v{self.to_version}",
            f"  instances checked:        {self.total}",
            f"  migrated:                 {self.migrated_count}"
            f" ({self.count(MigrationOutcome.MIGRATED)} unbiased,"
            f" {self.count(MigrationOutcome.MIGRATED_WITH_BIAS)} with bias,"
            f" {self.count(MigrationOutcome.MIGRATED_WITH_ROLLBACK)} after rollback)",
            f"  state conflicts:          {self.count(MigrationOutcome.STATE_CONFLICT)}",
            f"  structural conflicts:     {self.count(MigrationOutcome.STRUCTURAL_CONFLICT)}",
            f"  semantic conflicts:       {self.count(MigrationOutcome.SEMANTIC_CONFLICT)}",
            f"  data conflicts:           {self.count(MigrationOutcome.DATA_CONFLICT)}",
            f"  already finished:         {self.count(MigrationOutcome.FINISHED)}",
            f"  duration:                 {self.duration_seconds:.3f}s",
        ]
        detail_source = self.results if self.collect_results else self.conflict_samples
        conflicting = [result for result in detail_source if result.conflicts]
        if conflicting:
            header = "  conflict details:" if self.collect_results else (
                f"  conflict details (first {len(conflicting)}):"
            )
            lines.append(header)
            for result in conflicting:
                lines.append(f"    - {result.describe()}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        payload = {
            "process_type": self.process_type,
            "from_version": self.from_version,
            "to_version": self.to_version,
            "duration_seconds": self.duration_seconds,
            "outcomes": self.outcome_counts(),
            "results": [
                {
                    "instance_id": result.instance_id,
                    "outcome": result.outcome.value,
                    "was_biased": result.was_biased,
                    "conflicts": [str(conflict) for conflict in result.conflicts],
                }
                for result in self.results
            ],
        }
        if not self.collect_results:
            payload["collect_results"] = False
            payload["conflict_samples"] = [
                {
                    "instance_id": result.instance_id,
                    "outcome": result.outcome.value,
                    "conflicts": [str(conflict) for conflict in result.conflicts],
                }
                for result in self.conflict_samples
            ]
        return payload


class MigrationManager:
    """Checks compliance and migrates running instances to a new schema version."""

    def __init__(
        self,
        engine: Optional[ProcessEngine] = None,
        compliance_method: str = "conditions",
        event_log: Optional[EventLog] = None,
        rollback_on_state_conflict: bool = False,
    ) -> None:
        self.engine = engine or ProcessEngine()
        self.compliance_method = compliance_method
        self.event_log = event_log if event_log is not None else self.engine.event_log
        self.checker = ComplianceChecker(engine=ProcessEngine())
        self.adapter = StateAdapter(engine=ProcessEngine())
        self.verifier = SchemaVerifier()
        #: optional policy: compensate the blocking activities of state-conflicting
        #: unbiased instances and migrate them anyway (see repro.core.rollback)
        self.rollback_on_state_conflict = rollback_on_state_conflict

    # ------------------------------------------------------------------ #
    # whole-type migration
    # ------------------------------------------------------------------ #

    def migrate_type(
        self,
        process_type: ProcessType,
        type_change: TypeChange,
        instances: Iterable[ProcessInstance],
        release: bool = True,
        memoize: bool = False,
        collect_results: bool = True,
        parallel: int = 0,
        plan: Optional["MigrationPlan"] = None,
        cache: Optional["FingerprintCache"] = None,
        job_context: Optional[Callable[[], Any]] = None,
    ) -> MigrationReport:
        """Release ΔT as a new version and migrate all given instances.

        With ``release=False`` the new version must already have been
        released (e.g. by a previous call) and is looked up instead.

        ``memoize=True`` switches to the bulk path: the change is
        compiled once into a :class:`~repro.core.migration_plan.
        MigrationPlan` and unbiased instances share one verdict and one
        adapted-marking template per compliance fingerprint class; the
        non-shareable residue (biased instances, rollback attempts) runs
        the classic per-instance path — optionally fanned over
        ``parallel`` threads.  Reports are identical to the unmemoized
        run (property-tested).  ``collect_results=False`` keeps only
        counters and a bounded conflict sample (large populations).
        ``plan``/``cache`` allow the caller to reuse a compiled plan and
        verdict cache across batches of one evolution.
        """
        if release:
            new_schema = process_type.release_new_version(type_change)
            self.event_log.append(
                EngineEvent(
                    event_type=EventType.SCHEMA_VERSION_RELEASED,
                    details=f"{process_type.name} v{new_schema.version}",
                )
            )
        else:
            new_schema = process_type.schema_for(type_change.to_version)
        old_schema = process_type.schema_for(type_change.from_version)
        report = MigrationReport(
            process_type=process_type.name,
            from_version=type_change.from_version,
            to_version=new_schema.version,
            collect_results=collect_results,
        )
        started = time.perf_counter()
        # Compile both type schemas once up front: every per-instance
        # compliance check, replay and state adaptation below then shares
        # the same SchemaIndex instead of re-traversing the graphs.
        old_schema.index
        new_schema.index
        if memoize:
            self.migrate_batch(
                list(instances),
                old_schema,
                new_schema,
                type_change,
                report,
                plan=plan,
                cache=cache,
                parallel=parallel,
                job_context=job_context,
            )
        else:
            for instance in instances:
                report.add(self.migrate_instance(instance, old_schema, new_schema, type_change))
        report.duration_seconds = time.perf_counter() - started
        return report

    # ------------------------------------------------------------------ #
    # bulk migration: fingerprint-memoized batch processing
    # ------------------------------------------------------------------ #

    def compile_plan(
        self, old_schema: ProcessSchema, new_schema: ProcessSchema, type_change: TypeChange
    ) -> "MigrationPlan":
        """Compile ΔT once for this manager's compliance method."""
        from repro.core.migration_plan import MigrationPlan

        return MigrationPlan.compile(
            old_schema, new_schema, type_change, compliance_method=self.compliance_method
        )

    def migrate_batch(
        self,
        instances: Sequence[ProcessInstance],
        old_schema: ProcessSchema,
        new_schema: ProcessSchema,
        type_change: TypeChange,
        report: Optional[MigrationReport] = None,
        plan: Optional["MigrationPlan"] = None,
        cache: Optional["FingerprintCache"] = None,
        parallel: int = 0,
        emit: bool = True,
        job_context: Optional[Callable[[], Any]] = None,
    ) -> List[InstanceMigrationResult]:
        """Migrate one batch of instances with fingerprint memoization.

        Unbiased instances are fingerprinted; the first member of each
        class computes the verdict (compiled plan check + one state
        adaptation), every further member applies it O(1).  Instances the
        verdict cannot be shared for — biased ones and state-conflicting
        instances under the rollback policy (the rollback mutates the
        case) — run the classic :meth:`migrate_instance`, optionally in
        ``parallel`` worker threads (each case is touched by exactly one
        thread; the engine contract the concurrent runtime established).
        Results are reported in input order regardless of parallelism and
        events are emitted in the same order.

        ``job_context`` is an optional context-manager factory entered
        around every classic residue migration.  The façade passes its
        per-thread WAL journal suspension here: worker threads would
        otherwise escape the *calling* thread's suspension and journal
        rollback compensations as separate step records inside an
        evolution whose typed record already covers them.
        """
        from repro.core.migration_plan import FingerprintCache

        if plan is None:
            plan = self.compile_plan(old_schema, new_schema, type_change)
        if cache is None:
            cache = FingerprintCache()
        ordered = list(instances)
        results: List[Optional[InstanceMigrationResult]] = [None] * len(ordered)
        residue: List[int] = []
        for position, instance in enumerate(ordered):
            result = self._memoized_fast_path(instance, new_schema, plan, cache)
            if result is None:
                residue.append(position)
            else:
                results[position] = result
        if residue:

            def run_classic(position: int) -> InstanceMigrationResult:
                if job_context is None:
                    return self.migrate_instance(
                        ordered[position], old_schema, new_schema, type_change, emit=False
                    )
                with job_context():
                    return self.migrate_instance(
                        ordered[position], old_schema, new_schema, type_change, emit=False
                    )

            if parallel > 1 and len(residue) > 1:
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(max_workers=parallel) as pool:
                    for position, result in zip(residue, pool.map(run_classic, residue)):
                        results[position] = result
            else:
                for position in residue:
                    results[position] = run_classic(position)
        emitted: List[InstanceMigrationResult] = []
        for result in results:
            assert result is not None  # every position is filled above
            if report is not None:
                report.add(result)
            if emit:
                self._emit(result)
            emitted.append(result)
        return emitted

    def _memoized_fast_path(
        self,
        instance: ProcessInstance,
        new_schema: ProcessSchema,
        plan: "MigrationPlan",
        cache: "FingerprintCache",
    ) -> Optional[InstanceMigrationResult]:
        """Decide one instance from its fingerprint class, or defer.

        Returns ``None`` when the instance must run the classic path:
        biased cases, un-fingerprintable states and state conflicts under
        the rollback policy (compensation is a per-case mutation).
        """
        from repro.core.migration_plan import ClassVerdict

        started = time.perf_counter()
        if not instance.status.is_active:
            return InstanceMigrationResult(
                instance_id=instance.instance_id,
                outcome=MigrationOutcome.FINISHED,
                was_biased=instance.is_biased,
                duration_seconds=time.perf_counter() - started,
            )
        if instance.is_biased:
            return None
        fingerprint = plan.fingerprint_of_instance(instance)
        if fingerprint is None:
            return None
        verdict = cache.get(fingerprint)
        if verdict is None:
            compliance = plan.check(instance)
            adapted = (
                self.adapter.adapt(instance, new_schema) if compliance.compliant else None
            )
            verdict = cache.put(
                ClassVerdict(
                    fingerprint=fingerprint,
                    compliance=compliance,
                    adapted_marking=adapted,
                    outcome=(
                        MigrationOutcome.MIGRATED
                        if compliance.compliant
                        else self._outcome_for_conflicts(compliance.conflicts)
                    ),
                )
            )
        if verdict.compliant:
            instance.marking = verdict.adapted_marking.copy()
            instance.rebind_schema(new_schema)
            return InstanceMigrationResult(
                instance_id=instance.instance_id,
                outcome=MigrationOutcome.MIGRATED,
                was_biased=False,
                duration_seconds=time.perf_counter() - started,
            )
        if (
            verdict.outcome is MigrationOutcome.STATE_CONFLICT
            and self.rollback_on_state_conflict
        ):
            return None  # the rollback attempt compensates work: per-case
        return InstanceMigrationResult(
            instance_id=instance.instance_id,
            outcome=verdict.outcome,
            conflicts=list(verdict.conflicts),
            was_biased=False,
            duration_seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------ #
    # on-touch migration (progressive rollout)
    # ------------------------------------------------------------------ #

    def migrate_on_touch(
        self,
        instance: ProcessInstance,
        old_schema: ProcessSchema,
        new_schema: ProcessSchema,
        type_change: TypeChange,
        plan: "MigrationPlan",
        cache: "FingerprintCache",
        emit: bool = False,
    ) -> InstanceMigrationResult:
        """Attempt one lazy adoption when a case is touched mid-rollout.

        The memoized fast path decides the case from its fingerprint
        class in O(1) whenever the class verdict is already cached; the
        non-shareable residue (biased cases, un-fingerprintable states,
        rollback-policy state conflicts) runs the classic per-case check.
        The outcome contract is identical to the eager paths, which is
        what makes lazy adoption byte-equal to ``migrate="compliant"``
        per fingerprint class (property-tested).
        """
        result = self._memoized_fast_path(instance, new_schema, plan, cache)
        if result is None:
            result = self.migrate_instance(
                instance, old_schema, new_schema, type_change, emit=False
            )
        if emit:
            self._emit(result)
        return result

    # ------------------------------------------------------------------ #
    # single-instance migration
    # ------------------------------------------------------------------ #

    def migrate_instance(
        self,
        instance: ProcessInstance,
        old_schema: ProcessSchema,
        new_schema: ProcessSchema,
        type_change: TypeChange,
        emit: bool = True,
    ) -> InstanceMigrationResult:
        """Check one instance and migrate it if possible.

        ``emit=False`` defers the migration event — the bulk path emits
        all events in report order after a (possibly parallel) batch.
        """
        started = time.perf_counter()
        was_biased = instance.is_biased
        if not instance.status.is_active:
            return InstanceMigrationResult(
                instance_id=instance.instance_id,
                outcome=MigrationOutcome.FINISHED,
                was_biased=was_biased,
                duration_seconds=time.perf_counter() - started,
            )
        if was_biased:
            result = self._migrate_biased(instance, new_schema, type_change)
        else:
            result = self._migrate_unbiased(instance, new_schema, type_change)
        result.duration_seconds = time.perf_counter() - started
        if emit:
            self._emit(result)
        return result

    def _migrate_unbiased(
        self,
        instance: ProcessInstance,
        new_schema: ProcessSchema,
        type_change: TypeChange,
    ) -> InstanceMigrationResult:
        compliance = self.checker.check(
            instance,
            type_change.operations,
            target_schema=new_schema,
            method=self.compliance_method,
        )
        if not compliance.compliant:
            outcome = self._outcome_for_conflicts(compliance.conflicts)
            if outcome is MigrationOutcome.STATE_CONFLICT and self.rollback_on_state_conflict:
                rolled_back = self._try_rollback_migration(instance, new_schema, type_change)
                if rolled_back is not None:
                    return rolled_back
            return InstanceMigrationResult(
                instance_id=instance.instance_id,
                outcome=outcome,
                conflicts=compliance.conflicts,
                was_biased=False,
            )
        adapted = self.adapter.adapt(instance, new_schema)
        instance.marking = adapted
        instance.rebind_schema(new_schema)
        return InstanceMigrationResult(
            instance_id=instance.instance_id,
            outcome=MigrationOutcome.MIGRATED,
            was_biased=False,
        )

    def _try_rollback_migration(
        self,
        instance: ProcessInstance,
        new_schema: ProcessSchema,
        type_change: TypeChange,
    ) -> Optional[InstanceMigrationResult]:
        """Compensate blocking activities and migrate, if a feasible plan exists."""
        from repro.core.rollback import RollbackManager, RollbackPlanner

        plan = RollbackPlanner(engine=self.engine).plan(instance, type_change.operations)
        if not plan.feasible or not plan.activities:
            return None
        RollbackManager(engine=self.engine, event_log=self.event_log).rollback_activities(
            instance, plan.activities
        )
        compliance = self.checker.check(
            instance,
            type_change.operations,
            target_schema=new_schema,
            method=self.compliance_method,
        )
        if not compliance.compliant:
            return None
        adapted = self.adapter.adapt(instance, new_schema)
        instance.marking = adapted
        instance.rebind_schema(new_schema)
        return InstanceMigrationResult(
            instance_id=instance.instance_id,
            outcome=MigrationOutcome.MIGRATED_WITH_ROLLBACK,
            was_biased=False,
        )

    def _migrate_biased(
        self,
        instance: ProcessInstance,
        new_schema: ProcessSchema,
        type_change: TypeChange,
    ) -> InstanceMigrationResult:
        bias: ChangeLog = instance.bias
        # 1. semantic conflicts: ΔT and ΔI overlap on the same schema elements.
        #    One benign special case is handled first: the instance anticipated
        #    the type change (its bias already contains exactly the operations
        #    of ΔT) — then the bias is absorbed into the new version instead of
        #    rejecting the instance.
        overlap = bias.overlaps_with(type_change.operations)
        if overlap:
            absorbed = self._try_absorb_anticipated_change(instance, bias, new_schema, type_change)
            if absorbed is not None:
                return absorbed
            conflict = semantic_conflict(
                "the type change and the instance's ad-hoc changes modify the same schema "
                "elements; their combined intent is ambiguous",
                nodes=tuple(sorted(overlap)),
            )
            return InstanceMigrationResult(
                instance_id=instance.instance_id,
                outcome=MigrationOutcome.SEMANTIC_CONFLICT,
                conflicts=[conflict],
                was_biased=True,
            )
        # 2. structural conflicts: ΔT applied to (S + ΔI) must yield a correct schema
        try:
            combined_schema = type_change.operations.apply_to(instance.execution_schema, check=True)
        except (OperationError, SchemaError) as exc:
            conflict = structural_conflict(
                f"the type change cannot be applied to the instance-specific schema: {exc}",
            )
            return InstanceMigrationResult(
                instance_id=instance.instance_id,
                outcome=MigrationOutcome.STRUCTURAL_CONFLICT,
                conflicts=[conflict],
                was_biased=True,
            )
        combined_schema.schema_id = f"{new_schema.schema_id}+{instance.instance_id}"
        combined_schema.version = new_schema.version
        report = self.verifier.verify(combined_schema)
        if not report.is_correct:
            conflicts = [
                structural_conflict(str(issue), nodes=tuple(issue.nodes)) for issue in report.errors
            ]
            return InstanceMigrationResult(
                instance_id=instance.instance_id,
                outcome=MigrationOutcome.STRUCTURAL_CONFLICT,
                conflicts=conflicts,
                was_biased=True,
            )
        # 3. state-related conflicts on the combined schema
        compliance = self.checker.check(
            instance,
            type_change.operations,
            target_schema=combined_schema,
            method=self.compliance_method,
        )
        if not compliance.compliant:
            return InstanceMigrationResult(
                instance_id=instance.instance_id,
                outcome=self._outcome_for_conflicts(compliance.conflicts),
                conflicts=compliance.conflicts,
                was_biased=True,
            )
        adapted = self.adapter.adapt(instance, combined_schema)
        instance.marking = adapted
        instance.rebind_schema(new_schema, execution_schema=combined_schema)
        instance.bias = bias
        return InstanceMigrationResult(
            instance_id=instance.instance_id,
            outcome=MigrationOutcome.MIGRATED_WITH_BIAS,
            was_biased=True,
        )

    def _try_absorb_anticipated_change(
        self,
        instance: ProcessInstance,
        bias: ChangeLog,
        new_schema: ProcessSchema,
        type_change: TypeChange,
    ) -> Optional[InstanceMigrationResult]:
        """Migrate an instance whose bias already contains the whole ΔT.

        If every operation of the type change appears verbatim in the
        instance's bias, the instance anticipated the type change: it is
        re-linked to the new version, the anticipated operations are removed
        from its bias ("bias purging") and its execution schema stays exactly
        as it is.  Returns ``None`` when the overlap is not of this benign
        form (the caller then reports a semantic conflict).
        """
        delta_payloads = [operation.to_dict() for operation in type_change.operations]
        remaining_operations = list(bias.operations)
        for payload in delta_payloads:
            index = next(
                (i for i, operation in enumerate(remaining_operations) if operation.to_dict() == payload),
                None,
            )
            if index is None:
                return None
            del remaining_operations[index]
        remaining = ChangeLog(remaining_operations, comment=bias.comment)
        # the instance-specific schema must be reproducible as S' + remaining bias
        try:
            rebuilt = remaining.apply_to(new_schema, check=True)
        except (OperationError, SchemaError):
            return None
        if not rebuilt.structurally_equals(instance.execution_schema):
            return None
        execution_schema = instance.execution_schema if len(remaining) else None
        instance.rebind_schema(new_schema, execution_schema=execution_schema)
        if len(remaining):
            instance.set_bias(remaining, instance.execution_schema)
        else:
            instance.clear_bias()
        outcome = (
            MigrationOutcome.MIGRATED_WITH_BIAS if len(remaining) else MigrationOutcome.MIGRATED
        )
        return InstanceMigrationResult(
            instance_id=instance.instance_id,
            outcome=outcome,
            was_biased=True,
        )

    # ------------------------------------------------------------------ #

    @staticmethod
    def _outcome_for_conflicts(conflicts: Sequence[Conflict]) -> MigrationOutcome:
        kinds = {conflict.kind for conflict in conflicts}
        if ConflictKind.STRUCTURAL in kinds:
            return MigrationOutcome.STRUCTURAL_CONFLICT
        if ConflictKind.SEMANTIC in kinds:
            return MigrationOutcome.SEMANTIC_CONFLICT
        if ConflictKind.DATA in kinds:
            return MigrationOutcome.DATA_CONFLICT
        return MigrationOutcome.STATE_CONFLICT

    def _emit(self, result: InstanceMigrationResult) -> None:
        event_type = (
            EventType.INSTANCE_MIGRATED if result.migrated else EventType.MIGRATION_REJECTED
        )
        if result.outcome is MigrationOutcome.FINISHED:
            return
        self.event_log.append(
            EngineEvent(
                event_type=event_type,
                instance_id=result.instance_id,
                details=result.outcome.value,
            )
        )
