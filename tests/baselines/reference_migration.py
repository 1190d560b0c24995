"""The reference migrator the one migration pipeline is pinned against.

:class:`ReferenceMigrator` states the paper's migration rule (Figs. 1
and 3) in the plainest way that still reproduces the manager's observable
behaviour: *every* instance is checked on its own — the interpreted
compliance conditions of :class:`~repro.core.compliance.ComplianceChecker`,
one run of the name-based reference adaptation
(``reference_adaptation.py``), the biased-instance rules and the optional
rollback policy.  It shares no decision code with
:class:`repro.core.migration.MigrationManager`: no compiled plan, no
fingerprint, no verdict cache, no stored-record shortcut, not even the
positional ``StateAdapter`` — only the result and report dataclasses, so
the two sides can be compared with ``==``.

:func:`reference_evolve` lifts it to the façade: the same candidate set
``AdeptSystem.evolve`` takes (live cases of the type plus the running
store-resident ones), every candidate hydrated, each one migrated on its
own.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.core.changelog import ChangeLog
from repro.core.compliance import ComplianceChecker
from repro.core.conflicts import ConflictKind, semantic_conflict, state_conflict, structural_conflict
from repro.core.evolution import ProcessType, TypeChange
from repro.core.migration import InstanceMigrationResult, MigrationOutcome, MigrationReport
from repro.core.operations import OperationError
from repro.core.rollback import RollbackManager, RollbackPlanner
from repro.runtime.engine import ProcessEngine
from repro.runtime.instance import ProcessInstance
from repro.runtime.markings import Marking
from repro.runtime.states import InstanceStatus, NodeState
from repro.schema.graph import ProcessSchema, SchemaError
from repro.schema.nodes import NodeType
from repro.verification.verifier import SchemaVerifier

from tests.baselines.reference_adaptation import ReferenceAdapter


def _outcome_of(conflicts) -> MigrationOutcome:
    kinds = {conflict.kind for conflict in conflicts}
    if ConflictKind.STRUCTURAL in kinds:
        return MigrationOutcome.STRUCTURAL_CONFLICT
    if ConflictKind.SEMANTIC in kinds:
        return MigrationOutcome.SEMANTIC_CONFLICT
    if ConflictKind.DATA in kinds:
        return MigrationOutcome.DATA_CONFLICT
    return MigrationOutcome.STATE_CONFLICT


class ReferenceMigrator:
    """Per-instance migration: check, adapt, re-link — one case at a time."""

    def __init__(self, rollback_on_state_conflict: bool = False) -> None:
        self.rollback_on_state_conflict = rollback_on_state_conflict
        self.engine = ProcessEngine()
        self.checker = ComplianceChecker()
        self.adapter = ReferenceAdapter(engine=ProcessEngine())
        self.verifier = SchemaVerifier()

    # ------------------------------------------------------------------ #

    def migrate_type(
        self,
        process_type: ProcessType,
        type_change: TypeChange,
        instances: Iterable[ProcessInstance],
        release: bool = True,
    ) -> MigrationReport:
        """Release ΔT (unless already released) and migrate every instance."""
        if release:
            new_schema = process_type.release_new_version(type_change)
        else:
            new_schema = process_type.schema_for(type_change.to_version)
        report = MigrationReport(
            process_type=process_type.name,
            from_version=type_change.from_version,
            to_version=new_schema.version,
        )
        for instance in instances:
            report.add(self.migrate_instance(instance, new_schema, type_change))
        return report

    def migrate_instance(
        self, instance: ProcessInstance, new_schema: ProcessSchema, type_change: TypeChange
    ) -> InstanceMigrationResult:
        was_biased = instance.is_biased
        if not instance.status.is_active:
            return InstanceMigrationResult(
                instance.instance_id, MigrationOutcome.FINISHED, was_biased=was_biased
            )
        if instance.schema_version != type_change.from_version:
            # a case never skips a delta: ΔT describes from_version → to_version only
            return InstanceMigrationResult(
                instance.instance_id,
                MigrationOutcome.STATE_CONFLICT,
                conflicts=[_version_gap(instance.schema_version, type_change)],
                was_biased=was_biased,
            )
        if was_biased:
            return self._migrate_biased(instance, new_schema, type_change)
        return self._migrate_unbiased(instance, new_schema, type_change)

    # ------------------------------------------------------------------ #

    def _check(self, instance: ProcessInstance, type_change: TypeChange):
        return self.checker.check_with_conditions(instance, type_change.operations)

    @staticmethod
    def _install(instance: ProcessInstance, marking: Marking, schema: ProcessSchema) -> None:
        """Give the case its adapted marking; one whose end node completed is finished."""
        instance.marking = marking
        end = next(n for n in schema.node_ids() if schema.node(n).node_type is NodeType.END)
        if marking.node_state(end) is NodeState.COMPLETED:
            instance.status = InstanceStatus.COMPLETED

    def _migrate_unbiased(
        self, instance: ProcessInstance, new_schema: ProcessSchema, type_change: TypeChange
    ) -> InstanceMigrationResult:
        compliance = self._check(instance, type_change)
        if compliance.compliant:
            self._install(instance, self.adapter.adapt(instance, new_schema), new_schema)
            instance.rebind_schema(new_schema)
            return InstanceMigrationResult(instance.instance_id, MigrationOutcome.MIGRATED)
        outcome = _outcome_of(compliance.conflicts)
        if outcome is MigrationOutcome.STATE_CONFLICT and self.rollback_on_state_conflict:
            if self._rollback_and_migrate(instance, new_schema, type_change):
                return InstanceMigrationResult(
                    instance.instance_id, MigrationOutcome.MIGRATED_WITH_ROLLBACK
                )
        return InstanceMigrationResult(
            instance.instance_id, outcome, conflicts=list(compliance.conflicts)
        )

    def _rollback_and_migrate(
        self, instance: ProcessInstance, new_schema: ProcessSchema, type_change: TypeChange
    ) -> bool:
        """Compensate the blocking activities; migrate when that made the case compliant."""
        plan = RollbackPlanner(engine=self.engine).plan(instance, type_change.operations)
        if not plan.feasible or not plan.activities:
            return False
        RollbackManager(engine=self.engine).rollback_activities(instance, plan.activities)
        if not self._check(instance, type_change).compliant:
            return False
        self._install(instance, self.adapter.adapt(instance, new_schema), new_schema)
        instance.rebind_schema(new_schema)
        return True

    def _migrate_biased(
        self, instance: ProcessInstance, new_schema: ProcessSchema, type_change: TypeChange
    ) -> InstanceMigrationResult:
        instance_id = instance.instance_id
        bias: ChangeLog = instance.bias

        def refused(outcome: MigrationOutcome, conflicts) -> InstanceMigrationResult:
            return InstanceMigrationResult(
                instance_id, outcome, conflicts=list(conflicts), was_biased=True
            )

        # 1. ΔT and ΔI touch the same elements: absorb an anticipated ΔT, else refuse
        overlap = bias.overlaps_with(type_change.operations)
        if overlap:
            absorbed = self._absorb_anticipated_change(instance, bias, new_schema, type_change)
            if absorbed is not None:
                return absorbed
            return refused(
                MigrationOutcome.SEMANTIC_CONFLICT,
                [
                    semantic_conflict(
                        "the type change and the instance's ad-hoc changes modify the same "
                        "schema elements; their combined intent is ambiguous",
                        nodes=tuple(sorted(overlap)),
                    )
                ],
            )
        # 2. ΔT applied to (S + ΔI) must yield a correct schema
        try:
            combined = type_change.operations.apply_to(instance.execution_schema, check=True)
        except (OperationError, SchemaError) as exc:
            return refused(
                MigrationOutcome.STRUCTURAL_CONFLICT,
                [
                    structural_conflict(
                        f"the type change cannot be applied to the instance-specific schema: {exc}"
                    )
                ],
            )
        combined.schema_id = f"{new_schema.schema_id}+{instance_id}"
        combined.version = new_schema.version
        verification = self.verifier.verify(combined)
        if not verification.is_correct:
            return refused(
                MigrationOutcome.STRUCTURAL_CONFLICT,
                [
                    structural_conflict(str(issue), nodes=tuple(issue.nodes))
                    for issue in verification.errors
                ],
            )
        # 3. the state must be reproducible on the combined schema
        compliance = self._check(instance, type_change)
        if not compliance.compliant:
            return refused(_outcome_of(compliance.conflicts), compliance.conflicts)
        self._install(instance, self.adapter.adapt(instance, combined), combined)
        instance.rebind_schema(new_schema, execution_schema=combined)
        instance.bias = bias
        return InstanceMigrationResult(
            instance_id, MigrationOutcome.MIGRATED_WITH_BIAS, was_biased=True
        )

    def _absorb_anticipated_change(
        self,
        instance: ProcessInstance,
        bias: ChangeLog,
        new_schema: ProcessSchema,
        type_change: TypeChange,
    ) -> Optional[InstanceMigrationResult]:
        """The bias contains all of ΔT verbatim: re-link and purge it from the bias."""
        remaining = list(bias.operations)
        for payload in (operation.to_dict() for operation in type_change.operations):
            match = next(
                (i for i, operation in enumerate(remaining) if operation.to_dict() == payload),
                None,
            )
            if match is None:
                return None
            del remaining[match]
        rest = ChangeLog(remaining, comment=bias.comment)
        try:
            rebuilt = rest.apply_to(new_schema, check=True)
        except (OperationError, SchemaError):
            return None
        if not rebuilt.structurally_equals(instance.execution_schema):
            return None
        if len(rest):
            instance.rebind_schema(new_schema, execution_schema=instance.execution_schema)
            instance.set_bias(rest, instance.execution_schema)
            outcome = MigrationOutcome.MIGRATED_WITH_BIAS
        else:
            instance.rebind_schema(new_schema, execution_schema=None)
            instance.clear_bias()
            outcome = MigrationOutcome.MIGRATED
        return InstanceMigrationResult(instance.instance_id, outcome, was_biased=True)


def _version_gap(schema_version: int, type_change: TypeChange):
    return state_conflict(
        f"the instance runs on version {schema_version} but the type change leads from "
        f"version {type_change.from_version} to version {type_change.to_version}; "
        "a case never skips a delta"
    )


# --------------------------------------------------------------------------- #
# façade level
# --------------------------------------------------------------------------- #


def report_payload(report: MigrationReport) -> dict:
    """A report without its wall-clock fields (what two runs must agree on)."""
    payload = report.to_dict()
    payload.pop("duration_seconds", None)
    return payload


def evolution_candidates(system, type_id: str) -> List[str]:
    """What ``evolve`` considers: live cases of the type + running stored ones."""
    live = [
        instance_id
        for instance_id in system.live_instance_ids()
        if system.get_instance(instance_id).process_type == type_id
    ]
    return sorted(set(live) | set(system.store.running_instances_of_type(type_id)))


def reference_evolve(
    system, type_id: str, type_change: TypeChange, migrate: str = "compliant"
) -> MigrationReport:
    """``system.evolve(type_id, ΔT, migrate=...)`` the slow way, on a throwaway system.

    ``migrate`` is the caller's policy, ``"compliant"`` or ``"rollback"``.
    Lifts the live-cache cap (the reference hydrates the whole candidate
    population and leaves it live — the migrated state exists only in the
    live objects), releases the version and migrates case by case.  Read
    the end states back with ``system.get_instance``.
    """
    candidates = evolution_candidates(system, type_id)
    system.cache_instances = None
    instances = [system.get_instance(instance_id) for instance_id in candidates]
    system.repository.release_version(type_id, type_change)
    migrator = ReferenceMigrator(rollback_on_state_conflict=migrate == "rollback")
    return migrator.migrate_type(
        system.repository.process_type(type_id), type_change, instances, release=False
    )
