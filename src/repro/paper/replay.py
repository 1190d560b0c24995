"""Trace replay: the paper's general compliance criterion.

The paper provides a "comprehensive correctness criterion for deciding on
the compliance of process instances with a modified type schema ...
based on a relaxed notion of trace equivalence": an instance is
compliant iff its *reduced* execution history could have been produced
on the changed schema as well.  The product decides compliance with the
per-operation conditions
(:meth:`repro.core.compliance.ComplianceChecker.check_with_conditions`);
the replay below is the oracle they are held against (the property
suite, benchmarks E1 and A1) and, through the marking it leaves, the
reference of positional state adaptation (benchmark A2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core.compliance import ComplianceResult
from repro.core.conflicts import Conflict, state_conflict, structural_conflict
from repro.core.state_adaptation import StateAdapter
from repro.runtime.engine import EngineError, ProcessEngine
from repro.runtime.history import HistoryEventType
from repro.runtime.instance import ProcessInstance
from repro.runtime.markings import Marking
from repro.runtime.states import NodeState
from repro.schema.graph import ProcessSchema, SchemaError


@dataclass
class ReplayOutcome:
    """Result of replaying a history on a changed schema."""

    scratch: ProcessInstance
    conflicts: List[Conflict] = field(default_factory=list)

    @property
    def compliant(self) -> bool:
        return not self.conflicts


def check_by_replay(
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
    conflicts = replay_instance(instance, target_schema, reduced=reduced).conflicts
    return ComplianceResult(
        compliant=not conflicts,
        conflicts=conflicts,
        method="replay" if reduced else "replay_full",
        checked_operations=0,
    )


def replay_instance(
    instance: ProcessInstance,
    target_schema: ProcessSchema,
    reduced: bool = True,
) -> ReplayOutcome:
    """Replay and return the full outcome (scratch instance + conflicts).

    The scratch instance is the reference marking of state adaptation
    ("marking obtained by replaying the history from scratch").  It
    runs on a fresh scratch engine.
    """
    engine = ProcessEngine()
    # Replays of a whole population against one changed type schema all
    # run on the same compiled SchemaIndex: the scratch engine below
    # resolves every structural question from ``target_schema.index``,
    # which is cached on the schema across instances.
    initial_values = {
        write.element: write.value
        for write in instance.data.writes
        if write.writer == "<initial>"
    }
    scratch = engine.create_instance(
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
                engine.start_activity(scratch, activity, user=entry.user)
            elif entry.event is HistoryEventType.ACTIVITY_COMPLETED:
                engine.complete_activity(
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


def recompute_by_replay(
    instance: ProcessInstance,
    target_schema: ProcessSchema,
) -> Marking:
    """Marking obtained by replaying the reduced history from scratch.

    The baseline of state adaptation: used to cross-validate
    :meth:`~repro.core.state_adaptation.StateAdapter.adapt` (both must
    produce equivalent markings for compliant instances) and as the slow
    comparator in benchmark A2.  Raises :class:`ValueError` when the
    history cannot be replayed on the target schema (i.e. the instance
    is not compliant) — callers check compliance first.
    """
    outcome = replay_instance(instance, target_schema)
    if outcome.conflicts:
        raise ValueError(
            "history cannot be replayed on the target schema: "
            + "; ".join(str(conflict) for conflict in outcome.conflicts)
        )
    return outcome.scratch.marking


def adapt_and_verify(
    instance: ProcessInstance,
    target_schema: ProcessSchema,
) -> Tuple[Marking, bool]:
    """Adapt positionally and report agreement with the replay baseline.

    Returns ``(marking, agrees)`` where ``agrees`` is True when both
    procedures yield equivalent markings for the activity nodes.  Used
    by tests and the A2 ablation benchmark.
    """
    adapted = StateAdapter().adapt(instance, target_schema)
    try:
        replayed = recompute_by_replay(instance, target_schema)
    except ValueError:
        return adapted, False
    return adapted, all(
        adapted.node_state(node_id) is replayed.node_state(node_id)
        for node_id in target_schema.activity_ids()
    )
