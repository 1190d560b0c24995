"""Partial rollback (compensation) of already performed work.

ADEPTflex — the conceptual basis the paper builds on — allows rolling
back (compensating) already executed activities in order to reach a
state from which a change becomes applicable again: if an instance is
*not* state-compliant with a type change only because a few activities in
the change region already executed, those activities can be undone
(logically compensated; their effects are recorded, not erased) and the
instance migrated afterwards.

:class:`RollbackManager` implements that partial rollback on the marking
and history level, and :class:`RollbackPlanner` computes the minimal set
of activities that has to be undone to make an instance compliant with a
given change.  The migration manager can use both to offer an optional
"migrate with rollback" policy (benchmark A6 quantifies how many extra
instances that wins).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set, Union

from repro.core.changelog import ChangeLog
from repro.errors import ReproError
from repro.core.compliance import ComplianceChecker
from repro.core.conflicts import ConflictKind
from repro.core.operations import ChangeOperation
from repro.runtime.engine import EngineError, ProcessEngine
from repro.runtime.events import EngineEvent, EventType
from repro.runtime.history import HistoryEventType
from repro.runtime.instance import ProcessInstance
from repro.runtime.states import EdgeState, NodeState


class RollbackError(ReproError):
    """Raised when a requested rollback cannot be performed."""


@dataclass
class RollbackPlan:
    """The outcome of planning a compliance-restoring rollback.

    Attributes:
        feasible: True when undoing ``activities`` makes the instance
            compliant with the change.
        activities: Activity ids that would have to be compensated,
            in reverse execution order.
        reason: Why planning failed (when not feasible).
    """

    feasible: bool
    activities: List[str] = field(default_factory=list)
    reason: str = ""

    def __bool__(self) -> bool:
        return self.feasible


class RollbackManager:
    """Rolls back (compensates) executed activities of a running instance."""

    def __init__(self, engine: Optional[ProcessEngine] = None) -> None:
        self.engine = engine or ProcessEngine()

    # ------------------------------------------------------------------ #

    def rollback_activities(self, instance: ProcessInstance, activities: Iterable[str]) -> List[str]:
        """Compensate ``activities`` (and everything that ran after them).

        The affected region is reset to NOT_ACTIVATED, compensation entries
        are appended to the history, the original entries are superseded
        (so the reduced history reflects the rolled-back state) and the
        marking is re-propagated so execution can resume right before the
        earliest compensated activity.  Returns the compensated activity
        ids in the order they were undone.
        """
        if not instance.status.is_active:
            raise RollbackError(
                f"instance {instance.instance_id!r} is {instance.status.value}; only running "
                "instances can be rolled back"
            )
        schema = instance.execution_schema
        requested = list(dict.fromkeys(activities))
        for activity_id in requested:
            if not schema.has_node(activity_id):
                raise RollbackError(f"unknown activity {activity_id!r}")
            if not schema.node(activity_id).is_activity:
                raise RollbackError(f"{activity_id!r} is not an activity node")
            if not instance.marking.node_state(activity_id).is_started:
                raise RollbackError(f"activity {activity_id!r} has not started; nothing to roll back")

        region = self._affected_region(instance, requested)
        undone = self._compensate(instance, region)
        self.engine.propagate(instance)
        return undone

    def _affected_region(self, instance: ProcessInstance, requested: Sequence[str]) -> Set[str]:
        """The requested nodes plus every started/skipped node downstream of them."""
        schema = instance.execution_schema
        region: Set[str] = set()
        for activity_id in requested:
            region.add(activity_id)
            for successor in schema.transitive_successors(activity_id, include_sync=True):
                state = instance.marking.node_state(successor)
                if state.is_started or state in (NodeState.SKIPPED, NodeState.ACTIVATED):
                    region.add(successor)
        return region

    def _compensate(self, instance: ProcessInstance, region: Set[str]) -> List[str]:
        schema = instance.execution_schema
        # undo in reverse completion order so compensation entries read naturally
        completion_order = [
            activity
            for activity in instance.history.completed_activities(reduced=True)
            if activity in region
        ]
        undone: List[str] = []
        for activity_id in reversed(completion_order):
            instance.history.record(
                HistoryEventType.ACTIVITY_COMPENSATED,
                activity_id,
                iteration=instance.history.entries_for(activity_id, reduced=True)[-1].iteration,
            )
            self.engine.emit(
                EngineEvent(
                    event_type=EventType.ACTIVITY_COMPENSATED,
                    instance_id=instance.instance_id,
                    node_id=activity_id,
                )
            )
            undone.append(activity_id)
        # drop the undone work from the reduced history
        activity_nodes = [n for n in region if schema.has_node(n) and schema.node(n).is_activity]
        instance.history.supersede_activities(activity_nodes)
        # reset the marking of the affected region
        for node_id in region:
            instance.marking.set_node_state(node_id, NodeState.NOT_ACTIVATED)
        for edge in schema.edges:
            if edge.is_loop:
                continue
            if edge.source in region or edge.target in region:
                if edge.source in region:
                    instance.marking.set_edge_state(
                        edge.source, edge.target, EdgeState.NOT_SIGNALED, edge.edge_type
                    )
        return undone


class RollbackPlanner:
    """Plans the minimal rollback that makes an instance compliant with a change."""

    def __init__(self, engine: Optional[ProcessEngine] = None, max_rounds: int = 10) -> None:
        self.engine = engine or ProcessEngine()
        self.checker = ComplianceChecker(engine=ProcessEngine())
        self.max_rounds = max_rounds

    def plan(
        self,
        instance: ProcessInstance,
        change: Union[ChangeLog, Sequence[ChangeOperation]],
    ) -> RollbackPlan:
        """Determine which started activities must be undone for compliance.

        Works on a clone of the instance: the plan reports what *would*
        have to be compensated; nothing is changed on the real instance.
        """
        change_log = change if isinstance(change, ChangeLog) else ChangeLog(change)
        scratch = instance.clone()
        # a scratch engine without a listener: neither the compensations nor
        # the re-propagation of the clone may reach the real engine's listener
        manager = RollbackManager(
            engine=ProcessEngine(max_propagation_rounds=self.engine.max_propagation_rounds)
        )
        undone: List[str] = []
        for _ in range(self.max_rounds):
            result = self.checker.check_with_conditions(scratch, change_log)
            if result.compliant:
                return RollbackPlan(feasible=True, activities=undone)
            blocking = self._blocking_activities(scratch, result)
            if not blocking:
                return RollbackPlan(
                    feasible=False,
                    activities=undone,
                    reason="the remaining conflicts are not caused by already executed activities",
                )
            try:
                undone.extend(manager.rollback_activities(scratch, blocking))
            except RollbackError as exc:
                return RollbackPlan(feasible=False, activities=undone, reason=str(exc))
        return RollbackPlan(feasible=False, activities=undone, reason="rollback planning did not converge")

    def _blocking_activities(self, instance: ProcessInstance, result) -> List[str]:
        """Started activities named by state conflicts (the undo candidates)."""
        schema = instance.execution_schema
        blocking: List[str] = []
        for conflict in result.conflicts:
            if conflict.kind is not ConflictKind.STATE:
                continue
            for node_id in conflict.nodes:
                if (
                    schema.has_node(node_id)
                    and schema.node(node_id).is_activity
                    and instance.marking.node_state(node_id).is_started
                    and node_id not in blocking
                ):
                    blocking.append(node_id)
        return blocking
