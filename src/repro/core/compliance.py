"""Compliance checking: may an instance be moved to a changed schema?

The paper provides a "comprehensive correctness criterion for deciding on
the compliance of process instances with a modified type schema ...
based on a relaxed notion of trace equivalence", and, "in order to enable
efficient compliance checks, for each change operation ... precise and
easy to implement compliance conditions".

Both are implemented here:

* :meth:`ComplianceChecker.check_by_replay` replays the instance's
  *reduced* execution history on the changed schema with a scratch
  engine — the general, meta-model independent criterion;
* :meth:`ComplianceChecker.check_with_conditions` evaluates the
  per-operation conditions on the instance marking and history — the
  one check the product runs (migration, ad-hoc changes), whose
  agreement with the replay criterion is asserted by the property suite
  and measured by benchmark E1.  Replay stays the oracle those checks
  are held against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.core.changelog import ChangeLog
from repro.core.conflicts import Conflict, ConflictKind, state_conflict, structural_conflict
from repro.core.operations import ChangeOperation
from repro.runtime.engine import EngineError, ProcessEngine
from repro.runtime.history import HistoryEventType
from repro.runtime.instance import ProcessInstance
from repro.runtime.states import NodeState
from repro.schema.graph import ProcessSchema, SchemaError


@dataclass
class ComplianceResult:
    """Outcome of one compliance check."""

    compliant: bool
    conflicts: List[Conflict] = field(default_factory=list)
    method: str = "conditions"
    checked_operations: int = 0

    def conflict_kinds(self) -> List[ConflictKind]:
        """The kinds of all conflicts found (empty when compliant)."""
        return [conflict.kind for conflict in self.conflicts]

    def summary(self) -> str:
        if self.compliant:
            return f"compliant (method={self.method})"
        rendered = "; ".join(str(conflict) for conflict in self.conflicts)
        return f"not compliant (method={self.method}): {rendered}"

    def __bool__(self) -> bool:
        return self.compliant


def _as_operations(change: Union[ChangeLog, Sequence[ChangeOperation]]) -> List[ChangeOperation]:
    if isinstance(change, ChangeLog):
        return change.operations
    return list(change)


class ComplianceChecker:
    """Decides compliance of instances with changed schemas."""

    def __init__(self, engine: Optional[ProcessEngine] = None) -> None:
        self._engine = engine or ProcessEngine()

    # ------------------------------------------------------------------ #
    # efficient per-operation conditions (paper Fig. 1)
    # ------------------------------------------------------------------ #

    def check_with_conditions(
        self,
        instance: ProcessInstance,
        change: Union[ChangeLog, Sequence[ChangeOperation]],
    ) -> ComplianceResult:
        """Evaluate every operation's compliance condition on the instance.

        Operations are evaluated in order; nodes introduced by earlier
        operations of the same change are known to later ones (e.g. the
        paper's ΔT first inserts ``send questions`` and then adds a sync
        edge starting at it).
        """
        operations = _as_operations(change)
        conflicts: List[Conflict] = []
        introduced: set = set()
        for operation in operations:
            conflicts.extend(operation.compliance_conflicts(instance, introduced=introduced))
            introduced |= operation.added_node_ids()
        return ComplianceResult(
            compliant=not conflicts,
            conflicts=conflicts,
            method="conditions",
            checked_operations=len(operations),
        )

    # ------------------------------------------------------------------ #
    # general criterion: replay of the reduced history
    # ------------------------------------------------------------------ #

    def check_by_replay(
        self,
        instance: ProcessInstance,
        target_schema: ProcessSchema,
        reduced: bool = True,
    ) -> ComplianceResult:
        """Replay the instance's (reduced) history on ``target_schema``.

        The instance is compliant iff every recorded start and completion
        can be re-executed in order on the changed schema (with the same
        data values), i.e. its trace could have been produced there as
        well.  ``reduced=False`` replays the *full* history including
        superseded loop iterations — the naive baseline benchmark A1
        compares the relaxed (reduced) criterion against.
        """
        conflicts = self.replay_conflicts(instance, target_schema, reduced=reduced)
        return ComplianceResult(
            compliant=not conflicts,
            conflicts=conflicts,
            method="replay" if reduced else "replay_full",
            checked_operations=0,
        )

    def replay_conflicts(
        self, instance: ProcessInstance, target_schema: ProcessSchema, reduced: bool = True
    ) -> List[Conflict]:
        """The conflicts that stop the (reduced) trace from replaying, if any."""
        replayed = self.replay_instance(instance, target_schema, reduced=reduced)
        return replayed.conflicts

    def replay_instance(
        self, instance: ProcessInstance, target_schema: ProcessSchema, reduced: bool = True
    ) -> "ReplayOutcome":
        """Replay and return the full outcome (scratch instance + conflicts).

        The scratch instance is also used by the state adapter as the
        reference marking ("marking obtained by replaying the history from
        scratch").
        """
        # Replays of a whole population against one changed type schema all
        # run on the same compiled SchemaIndex: the scratch engine below
        # resolves every structural question from ``target_schema.index``,
        # which is cached on the schema across instances.
        initial_values = {
            write.element: write.value
            for write in instance.data.writes
            if write.writer == "<initial>"
        }
        scratch = self._engine.create_instance(
            target_schema,
            instance_id=f"{instance.instance_id}__replay",
            initial_data=initial_values or None,
        )
        conflicts: List[Conflict] = []
        entries = instance.history.reduced() if reduced else instance.history.entries
        for entry in entries:
            if entry.event is HistoryEventType.LOOP_ITERATION_STARTED:
                continue
            if entry.event is HistoryEventType.ACTIVITY_SKIPPED:
                continue
            activity = entry.activity
            if not target_schema.has_node(activity):
                conflicts.append(
                    structural_conflict(
                        f"history refers to activity {activity!r} which does not exist on the "
                        "changed schema",
                        nodes=(activity,),
                    )
                )
                break
            try:
                if entry.event is HistoryEventType.ACTIVITY_STARTED:
                    if scratch.marking.node_state(activity) is not NodeState.ACTIVATED:
                        conflicts.append(
                            state_conflict(
                                f"activity {activity!r} started in the recorded history but is not "
                                f"activatable at that point on the changed schema "
                                f"(state {scratch.marking.node_state(activity).value})",
                                nodes=(activity,),
                            )
                        )
                        break
                    self._engine.start_activity(scratch, activity, user=entry.user)
                elif entry.event is HistoryEventType.ACTIVITY_COMPLETED:
                    self._engine.complete_activity(
                        scratch, activity, outputs=dict(entry.values), user=entry.user
                    )
            except (EngineError, SchemaError) as exc:
                conflicts.append(
                    state_conflict(
                        f"replaying the history on the changed schema failed at {activity!r}: {exc}",
                        nodes=(activity,),
                    )
                )
                break
        return ReplayOutcome(scratch=scratch, conflicts=conflicts)


@dataclass
class ReplayOutcome:
    """Result of replaying a history on a changed schema."""

    scratch: ProcessInstance
    conflicts: List[Conflict] = field(default_factory=list)

    @property
    def compliant(self) -> bool:
        return not self.conflicts
