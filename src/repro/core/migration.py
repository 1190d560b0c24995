"""Instance migration: propagating type changes to running instances.

This module implements the paper's migration process (Figs. 1 and 3):
after a type change ΔT has been released as a new schema version, every
running instance of the type is checked and — if possible — migrated
on-the-fly:

* **unbiased** instances are checked against the per-operation compliance
  conditions; compliant ones get their marking adapted and are re-linked
  to the new version, non-compliant ones remain on the old version and
  simply keep running (state-related conflict, instance I3 in Fig. 1);
* **biased** instances (with ad-hoc modifications) additionally undergo
  semantic-overlap and structural checks: if applying ΔT to their
  instance-specific schema would produce an incorrect schema (e.g. a
  deadlock-causing cycle, instance I2 in Fig. 1) they stay on the old
  version with a structural conflict; otherwise bias and type change are
  combined and the instance migrates while keeping its bias.  The
  structural check is the change operations' own: ``apply_to(check=True)``
  refuses exactly the logs whose result would be incorrect, so no full
  re-check of the combined schema runs per case.

The outcome of a migration run is a :class:`MigrationReport` that mirrors
the report of the paper's monitoring component.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.changelog import ChangeLog
from repro.core.compliance import ComplianceChecker
from repro.core.conflicts import (
    Conflict,
    ConflictKind,
    semantic_conflict,
    state_conflict,
    structural_conflicts,
)
from repro.core.evolution import ProcessType, TypeChange
from repro.core.migration_plan import ClassVerdict, FingerprintCache, MigrationPlan
from repro.core.operations import OperationError
from repro.core.state_adaptation import StateAdapter
from repro.runtime.engine import ProcessEngine
from repro.runtime.events import EngineEvent, EventType
from repro.runtime.instance import ProcessInstance
from repro.runtime.states import ACTIVE_STATUS_VALUES
from repro.schema.graph import ProcessSchema, SchemaError


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
        return sum(self.count(outcome) for outcome in MigrationOutcome if outcome.migrated)

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
        rollback_on_state_conflict: bool = False,
    ) -> None:
        self.engine = engine or ProcessEngine()
        self.checker = ComplianceChecker(engine=ProcessEngine())
        self.adapter = StateAdapter(engine=ProcessEngine())
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
        collect_results: bool = True,
        plan: Optional[MigrationPlan] = None,
        cache: Optional[FingerprintCache] = None,
    ) -> MigrationReport:
        """Release ΔT as a new version and migrate all given instances.

        With ``release=False`` the new version must already have been
        released (e.g. by a previous call) and is looked up instead.
        The change is compiled once (:meth:`compile_plan`); every
        instance then goes through :meth:`migrate_instance`, sharing one
        verdict cache.  ``collect_results=False`` keeps only counters
        and a bounded conflict sample (large populations).
        ``plan``/``cache`` let the caller reuse a compiled plan and its
        verdicts across calls of one evolution.
        """
        if release:
            new_schema = process_type.release_new_version(type_change)
            self.engine.emit(
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
        self.migrate_batch(
            instances, old_schema, new_schema, type_change, report, plan=plan, cache=cache
        )
        report.duration_seconds = time.perf_counter() - started
        return report

    def compile_plan(
        self, old_schema: ProcessSchema, new_schema: ProcessSchema, type_change: TypeChange
    ) -> MigrationPlan:
        """Compile ΔT once for the old → new schema pair."""
        # both schema indexes are built here, once, instead of by the
        # first compliance check, replay or state adaptation that asks
        old_schema.index
        new_schema.index
        return MigrationPlan.compile(old_schema, new_schema, type_change)

    def migrate_batch(
        self,
        instances: Iterable[ProcessInstance],
        old_schema: ProcessSchema,
        new_schema: ProcessSchema,
        type_change: TypeChange,
        report: Optional[MigrationReport] = None,
        plan: Optional[MigrationPlan] = None,
        cache: Optional[FingerprintCache] = None,
        emit: bool = True,
    ) -> List[InstanceMigrationResult]:
        """:meth:`migrate_instance` over ``instances`` in input order, one plan and cache."""
        if plan is None:
            plan = self.compile_plan(old_schema, new_schema, type_change)
        if cache is None:
            cache = FingerprintCache()
        results = []
        for instance in instances:
            result = self.migrate_instance(
                instance, old_schema, new_schema, type_change, plan=plan, cache=cache, emit=emit
            )
            if report is not None:
                report.add(result)
            results.append(result)
        return results

    # ------------------------------------------------------------------ #
    # one case × ΔT: the live instance, or as much as its stored record tells
    # ------------------------------------------------------------------ #

    def migrate_instance(
        self,
        instance: ProcessInstance,
        old_schema: ProcessSchema,
        new_schema: ProcessSchema,
        type_change: TypeChange,
        plan: Optional[MigrationPlan] = None,
        cache: Optional[FingerprintCache] = None,
        emit: bool = True,
    ) -> InstanceMigrationResult:
        """Decide one live instance and migrate it if possible.

        The only place a live case meets a type change — eager evolution,
        a rollout's touch and sweep and recovery all end here: finished →
        version gap → biased (:meth:`_migrate_biased`) → the verdict of
        the case's fingerprint class, which applies the class's
        adapted-marking template, attempts the rollback policy or reports
        the class's conflicts.  ``plan``/``cache`` share the compiled
        change and its verdicts between the cases of one evolution;
        without them the case is a class of its own.
        """
        started = time.perf_counter()
        was_biased = instance.is_biased
        result = self._decided_unseen(
            instance.instance_id, instance.status.value, instance.schema_version,
            type_change, was_biased,
        )
        if result is not None:
            pass  # finished, or left behind by an earlier change
        elif was_biased:
            result = self._migrate_biased(instance, new_schema, type_change)
        else:
            if plan is None:
                plan = self.compile_plan(old_schema, new_schema, type_change)
            if cache is None:  # an empty cache is falsy
                cache = FingerprintCache()
            verdict = self._class_verdict(instance, plan, cache)
            rolled_back = None
            if verdict.compliant:
                instance.rebind_schema(new_schema)
                instance.install_marking(verdict.adapted_marking.copy())
            elif self._rollback_applies(verdict):
                # compensation mutates the case: never shared with the class
                rolled_back = self._try_rollback_migration(instance, new_schema, type_change)
            result = rolled_back or InstanceMigrationResult(
                instance.instance_id, verdict.outcome, conflicts=list(verdict.conflicts)
            )
        result.duration_seconds = time.perf_counter() - started
        if emit:
            self._emit(result)
        return result

    def _class_verdict(
        self, instance: ProcessInstance, plan: MigrationPlan, cache: FingerprintCache
    ) -> ClassVerdict:
        """The verdict of an unbiased instance's fingerprint class.

        The first member computes it — the operations' compliance
        conditions plus one state adaptation — every further member finds
        it in ``cache``.
        """
        fingerprint = plan.fingerprint_of_instance(instance)
        verdict = cache.get(fingerprint)
        if verdict is None:
            compliance = self.checker.check_with_conditions(instance, plan.operations)
            if compliance.compliant:
                adapted = self.adapter.adapt(instance, plan.new_schema)
                outcome = MigrationOutcome.MIGRATED
            else:
                adapted = None
                outcome = self._outcome_for_conflicts(compliance.conflicts)
            verdict = cache.put(ClassVerdict(fingerprint, compliance, adapted, outcome=outcome))
        return verdict

    def _rollback_applies(self, verdict: ClassVerdict) -> bool:
        return (
            self.rollback_on_state_conflict
            and verdict.outcome is MigrationOutcome.STATE_CONFLICT
        )

    @staticmethod
    def _decided_unseen(
        instance_id: str, status: str, version: int, type_change: TypeChange, biased: bool
    ) -> Optional[InstanceMigrationResult]:
        """The two results that need no look at the case's state.

        A finished case has nothing to migrate.  And a case never skips
        a delta: ΔT leads from its ``from_version`` only, so a case an
        earlier change left behind stays where it is — whatever the
        rollback policy; compensating work cannot make a change log
        written against another version apply.
        """
        if status not in ACTIVE_STATUS_VALUES:
            return InstanceMigrationResult(
                instance_id, MigrationOutcome.FINISHED, was_biased=biased
            )
        if version != type_change.from_version:
            gap = state_conflict(
                f"the instance runs on version {version}, the type change leads from "
                f"version {type_change.from_version} to version {type_change.to_version}"
            )
            return InstanceMigrationResult(
                instance_id, MigrationOutcome.STATE_CONFLICT, conflicts=[gap], was_biased=biased
            )
        return None

    def decide_record(
        self,
        record: Mapping[str, Any],
        type_change: TypeChange,
        plan: MigrationPlan,
        cache: FingerprintCache,
        share_bias: bool = False,
    ) -> Tuple[str, Any]:
        """Decide a store-resident case from its record, as far as that goes.

        Pure — nothing is written.  Returns one of

        * ``("report", result)`` — final, the record stays as it is
          (finished, version gap, member of a conflicting class);
        * ``("rewrite", verdict)`` — member of a known compliant class:
          the caller moves the record onto the new version with the
          verdict's marking template;
        * ``("hydrate", bias_class)`` — only :meth:`migrate_instance` on
          the live case can tell: biased records, the first member of a
          class, rollback candidates.  With ``share_bias`` a biased
          record names its (bias, state) class, whose members share one
          representative's outcome; ``None`` otherwise.
        """
        instance_id = record["instance_id"]
        biased = bool(record.get("biased"))
        result = self._decided_unseen(
            instance_id, record.get("status", "running"), record.get("schema_version", 0),
            type_change, biased,
        )
        if result is not None:
            return "report", result
        if biased:
            if not share_bias:
                return "hydrate", None
            return "hydrate", plan.fingerprint_of_record(record, include_bias=True)
        verdict = cache.get(plan.fingerprint_of_record(record))
        if verdict is None or self._rollback_applies(verdict):
            return "hydrate", None
        if verdict.compliant:
            return "rewrite", verdict
        return "report", InstanceMigrationResult(
            instance_id, verdict.outcome, conflicts=list(verdict.conflicts)
        )

    def _try_rollback_migration(
        self, instance: ProcessInstance, new_schema: ProcessSchema, type_change: TypeChange
    ) -> Optional[InstanceMigrationResult]:
        """Compensate blocking activities and migrate, if a feasible plan exists."""
        from repro.core.rollback import RollbackManager, RollbackPlanner

        plan = RollbackPlanner(engine=self.engine).plan(instance, type_change.operations)
        if not plan.feasible or not plan.activities:
            return None
        RollbackManager(engine=self.engine).rollback_activities(instance, plan.activities)
        if not self.checker.check_with_conditions(instance, type_change.operations).compliant:
            return None
        adapted = self.adapter.adapt(instance, new_schema)
        instance.rebind_schema(new_schema)
        instance.install_marking(adapted)
        return InstanceMigrationResult(
            instance.instance_id, MigrationOutcome.MIGRATED_WITH_ROLLBACK
        )

    def _migrate_biased(
        self,
        instance: ProcessInstance,
        new_schema: ProcessSchema,
        type_change: TypeChange,
    ) -> InstanceMigrationResult:
        bias: ChangeLog = instance.bias

        def refused(outcome: MigrationOutcome, conflicts: List[Conflict]) -> InstanceMigrationResult:
            return InstanceMigrationResult(
                instance.instance_id, outcome, conflicts=conflicts, was_biased=True
            )

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
            return refused(MigrationOutcome.SEMANTIC_CONFLICT, [conflict])
        # 2. structural conflicts: ΔT applied to (S + ΔI) must yield a correct
        #    schema — which the checked application guarantees by construction
        try:
            combined_schema = type_change.operations.apply_to(instance.execution_schema, check=True)
        except (OperationError, SchemaError) as exc:
            return refused(
                MigrationOutcome.STRUCTURAL_CONFLICT,
                structural_conflicts(
                    exc, "the type change cannot be applied to the instance-specific schema"
                ),
            )
        combined_schema.schema_id = f"{new_schema.schema_id}+{instance.instance_id}"
        combined_schema.version = new_schema.version
        # 3. state-related conflicts on the combined schema
        compliance = self.checker.check_with_conditions(instance, type_change.operations)
        if not compliance.compliant:
            return refused(
                self._outcome_for_conflicts(compliance.conflicts), compliance.conflicts
            )
        adapted = self.adapter.adapt(instance, combined_schema)
        instance.rebind_schema(new_schema, execution_schema=combined_schema)
        instance.install_marking(adapted)
        instance.bias = bias
        return InstanceMigrationResult(
            instance.instance_id, MigrationOutcome.MIGRATED_WITH_BIAS, was_biased=True
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
        self.engine.emit(
            EngineEvent(
                event_type=event_type,
                instance_id=result.instance_id,
                details=result.outcome.value,
            )
        )
