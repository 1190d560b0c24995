"""Ad-hoc changes of single running process instances.

ADEPT2 "supports different kinds of ad-hoc deviations from the pre-modeled
process template (e.g., to insert, delete, or shift activities)" that
"do not lead to an unstable system behaviour".  The :class:`AdHocChanger`
enforces exactly that:

1. the operations' schema preconditions must hold on the instance's
   current execution schema,
2. the resulting instance-specific schema must stay correct — no
   deadlock-causing cycle, no broken data flow.  The operations guarantee
   that by construction: ``ChangeLog.apply_to(check=True)`` judges what
   the change touched once on its result, so no full re-check runs here,
3. the instance's state must be compliant with the change (per-operation
   conditions), and
4. the marking is adapted so the instance keeps running seamlessly.

Applied operations are appended to the instance's bias (change log); the
substitution block for storage purposes is derived from it by the storage
layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.core.changelog import ChangeLog
from repro.errors import ReproError
from repro.core.compliance import ComplianceChecker
from repro.core.conflicts import Conflict, structural_conflicts
from repro.core.operations import ChangeOperation, OperationError
from repro.core.state_adaptation import StateAdapter
from repro.runtime.engine import ProcessEngine
from repro.runtime.events import EngineEvent, EventType
from repro.runtime.instance import ProcessInstance
from repro.schema.graph import ProcessSchema, SchemaError


class AdHocChangeError(ReproError):
    """Raised when an ad-hoc change cannot be applied safely."""

    def __init__(self, message: str, conflicts: Optional[Sequence[Conflict]] = None) -> None:
        super().__init__(message)
        self.conflicts: List[Conflict] = list(conflicts or [])


@dataclass
class AdHocChangeResult:
    """Outcome of a successfully applied ad-hoc change."""

    instance_id: str
    applied: ChangeLog
    new_execution_schema: ProcessSchema
    conflicts: List[Conflict] = field(default_factory=list)

    @property
    def operation_count(self) -> int:
        return len(self.applied)


class AdHocChanger:
    """Applies ad-hoc changes to single running instances."""

    def __init__(
        self,
        engine: Optional[ProcessEngine] = None,
        authorization: Optional[object] = None,
    ) -> None:
        self.engine = engine or ProcessEngine()
        self.checker = ComplianceChecker(engine=ProcessEngine())
        self.adapter = StateAdapter(engine=ProcessEngine())
        #: optional :class:`repro.org.authorization.ChangeAuthorization` policy
        self.authorization = authorization

    # ------------------------------------------------------------------ #

    def apply(
        self,
        instance: ProcessInstance,
        change: Union[ChangeLog, Sequence[ChangeOperation]],
        comment: str = "",
        user: Optional[str] = None,
    ) -> AdHocChangeResult:
        """Apply an ad-hoc change to ``instance`` or raise :class:`AdHocChangeError`.

        When the changer was constructed with an authorization policy, the
        acting ``user`` must be permitted to change instances ad hoc.
        """
        if self.authorization is not None:
            from repro.org.authorization import AuthorizationError

            try:
                self.authorization.require_instance_change(user)
            except AuthorizationError as exc:
                self._emit_rejected(instance, "not authorised")
                raise AdHocChangeError(str(exc)) from exc
        if not instance.status.is_active:
            raise AdHocChangeError(
                f"instance {instance.instance_id!r} is {instance.status.value}; "
                "only running instances can be changed ad hoc"
            )
        change_log = change if isinstance(change, ChangeLog) else ChangeLog(change, comment=comment)
        if not change_log:
            raise AdHocChangeError("the ad-hoc change contains no operations")

        # 1 + 2: schema preconditions; the result is correct by construction
        try:
            new_execution_schema = change_log.apply_to(instance.execution_schema, check=True)
        except (OperationError, SchemaError) as exc:
            conflicts = structural_conflicts(
                exc, "the change cannot be applied to the instance schema"
            )
            self._emit_rejected(instance, str(exc))
            raise AdHocChangeError(str(exc), conflicts=conflicts) from exc
        new_execution_schema.schema_id = f"{instance.original_schema.schema_id}+{instance.instance_id}"

        # 3: state compliance of the running instance with the change
        compliance = self.checker.check_with_conditions(instance, change_log)
        if not compliance.compliant:
            self._emit_rejected(instance, "state conflicts")
            raise AdHocChangeError(
                "the instance state does not allow this ad-hoc change: " + compliance.summary(),
                conflicts=compliance.conflicts,
            )

        # 4: adapt the marking and commit the bias
        adapted_marking = self.adapter.adapt(instance, new_execution_schema)
        combined_bias = (
            instance.bias.compose(change_log) if isinstance(instance.bias, ChangeLog) else change_log
        )
        for operation in change_log:
            supplied = getattr(operation, "supply_values", None)
            if supplied:
                for element, value in supplied.items():
                    instance.data.supply(element, value)
        instance.set_bias(combined_bias, new_execution_schema)
        instance.install_marking(adapted_marking)
        self.engine.emit(
            EngineEvent(
                event_type=EventType.ADHOC_CHANGE_APPLIED,
                instance_id=instance.instance_id,
                details=f"{len(change_log)} operation(s)" + (f": {comment}" if comment else ""),
            )
        )
        return AdHocChangeResult(
            instance_id=instance.instance_id,
            applied=change_log,
            new_execution_schema=new_execution_schema,
        )

    def try_apply(
        self,
        instance: ProcessInstance,
        change: Union[ChangeLog, Sequence[ChangeOperation]],
        comment: str = "",
        user: Optional[str] = None,
    ) -> Optional[AdHocChangeResult]:
        """Like :meth:`apply` but returns ``None`` instead of raising."""
        try:
            return self.apply(instance, change, comment=comment, user=user)
        except AdHocChangeError:
            return None

    # ------------------------------------------------------------------ #

    def _emit_rejected(self, instance: ProcessInstance, reason: str) -> None:
        self.engine.emit(
            EngineEvent(
                event_type=EventType.ADHOC_CHANGE_REJECTED,
                instance_id=instance.instance_id,
                details=reason,
            )
        )
