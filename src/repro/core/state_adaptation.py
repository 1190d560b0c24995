"""State adaptation of instance markings after a dynamic change.

When a compliant instance migrates to a changed schema its marking has to
be adapted: newly inserted activities before the execution frontier must
become activated, their former successors de-activated, activities in
dead branches skipped, and so on — the paper's "efficient procedures ...
for adapting the states of instances when migrating them to the new
schema" (instance I1 in Fig. 1).

Two procedures are provided:

* :meth:`StateAdapter.adapt` — the **incremental** procedure: it carries
  over the states of all nodes whose execution already finished or began,
  resets the not-yet-started region and lets one marking propagation pass
  of the engine re-derive activations and skips on the changed schema.
  Its cost is proportional to the schema size, independent of how much
  history the instance has accumulated.
* :meth:`StateAdapter.recompute_by_replay` — the **baseline**: replay the
  whole reduced history on the changed schema from scratch.  Used to
  cross-validate the incremental procedure (they must produce equivalent
  markings for compliant instances) and as the slow comparator in
  benchmark A2.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.compliance import ComplianceChecker
from repro.runtime.engine import ProcessEngine
from repro.runtime.instance import ProcessInstance
from repro.runtime.markings import Marking
from repro.runtime.states import EdgeState, InstanceStatus, NodeState
from repro.schema.edges import EdgeType
from repro.schema.graph import ProcessSchema
from repro.schema.nodes import NodeType


class StateAdapter:
    """Adapts instance markings to changed schemas."""

    def __init__(self, engine: Optional[ProcessEngine] = None) -> None:
        self._engine = engine or ProcessEngine()

    # ------------------------------------------------------------------ #
    # incremental adaptation
    # ------------------------------------------------------------------ #

    def adapt(self, instance: ProcessInstance, target_schema: ProcessSchema) -> Marking:
        """Compute the instance's marking on ``target_schema`` incrementally.

        The caller is responsible for having established compliance first;
        adapting the marking of a non-compliant instance yields an
        undefined (though structurally valid) result.
        """
        carried = self._carry_over(instance, target_schema)
        scratch = ProcessInstance(
            instance_id=f"{instance.instance_id}__adapt",
            schema=target_schema,
        )
        scratch.marking = carried
        scratch.data = instance.data.copy()
        scratch.history = instance.history.copy()
        scratch.loop_iterations = dict(instance.loop_iterations)
        scratch.status = InstanceStatus.RUNNING
        self._engine.propagate(scratch)
        return scratch.marking

    def _carry_over(self, instance: ProcessInstance, target_schema: ProcessSchema) -> Marking:
        """Keep the work that already happened, reset everything the change affects.

        Carried over are

        * the states of started **activities** (performed work is never
          rewound by a migration), and
        * the states of started structural nodes (splits, joins, loop nodes,
          start/end) whose incident edges are *unchanged* by the change — a
          join that received a new incoming branch, or a split with a new
          outgoing branch, has to be re-evaluated by the propagation pass,
          exactly as a history replay would.

        ``SKIPPED`` states are deliberately **not** carried: a skip is not
        performed work but a derived consequence of a branching decision.
        When that decision survives the change (the split node and its
        signalled edges are carried), the propagation pass re-derives the
        skip; when the change resets the decision (e.g. an activity inserted
        before the split), the skip must disappear — exactly as a history
        replay would leave the branch undecided.

        The states of structural nodes are likewise *derived*, never
        performed work: a join is COMPLETED because its incoming edges
        were signalled, a loop start because the flow reached it.  Such a
        state is only carried while its justification survives the change:
        every incoming non-loop edge that was signalled in the old marking
        must originate from a node that is itself carried.  Nodes are
        visited in topological order, so a reset region (e.g. an activity
        inserted before a join) transitively un-carries everything whose
        state depended on it — exactly the states a history replay would
        not reproduce until the new region has executed.

        Signalled edges are carried when they still exist and their source
        node's state was carried; new outgoing edges of carried, finished
        nodes are signalled according to that state.  One engine propagation
        pass afterwards re-derives all remaining activations and skips.
        """
        old_marking = instance.marking
        old_schema = instance.execution_schema
        marking = Marking.initial(target_schema)
        carried_nodes = set()
        for node_id in target_schema.topological_order():
            old_state = old_marking.node_state(node_id)
            if not old_state.is_started:
                continue
            node = target_schema.node(node_id)
            if not node.is_activity:
                if not self._incident_edges_unchanged(old_schema, target_schema, node_id):
                    # structural node whose branching situation changed: re-derive
                    continue
                if not self._signals_justified(
                    old_marking, target_schema, node_id, carried_nodes
                ):
                    # derived state whose upstream justification was reset
                    continue
            marking.set_node_state(node_id, old_state)
            carried_nodes.add(node_id)
        for edge in target_schema.edges:
            if edge.is_loop:
                continue
            if edge.source not in carried_nodes:
                continue
            source_state = marking.node_state(edge.source)
            if not (source_state.is_finished or source_state is NodeState.RUNNING):
                continue
            old_edge_state = old_marking.edge_state_key(edge.key)  # NOT_SIGNALED if new
            if old_edge_state is not EdgeState.NOT_SIGNALED:
                # the edge existed before and was already signalled: keep it
                marking.set_edge_state(edge.source, edge.target, old_edge_state, edge.edge_type)
            elif source_state is NodeState.COMPLETED:
                # new outgoing edge of an already completed node: it fires now
                marking.set_edge_state(edge.source, edge.target, EdgeState.TRUE_SIGNALED, edge.edge_type)
        return marking

    @staticmethod
    def _signals_justified(
        old_marking: Marking, target_schema: ProcessSchema, node_id: str, carried: set
    ) -> bool:
        """True when every signalled input of a structural node survives.

        A structural node's state is a consequence of the signals it
        received; if any of those signals came from a node whose own state
        is being re-derived (not carried), the consequence no longer holds
        and the propagation pass must re-decide it.
        """
        for edge in target_schema.edges_to(node_id):
            if edge.is_loop:
                continue
            if old_marking.edge_state_key(edge.key) is EdgeState.NOT_SIGNALED:
                continue  # new, or never signalled
            if edge.source not in carried:
                return False
        return True

    @staticmethod
    def _incident_edges_unchanged(
        old_schema: ProcessSchema, target_schema: ProcessSchema, node_id: str
    ) -> bool:
        """True when the node has the same control/sync edges before and after the change."""
        if not old_schema.has_node(node_id):
            return False

        def incident(schema: ProcessSchema) -> set:
            keys = set()
            for edge in schema.edges_from(node_id) + schema.edges_to(node_id):
                if not edge.is_loop:
                    keys.add(edge.key)
            return keys

        return incident(old_schema) == incident(target_schema)

    # ------------------------------------------------------------------ #
    # baseline: full replay
    # ------------------------------------------------------------------ #

    def recompute_by_replay(
        self, instance: ProcessInstance, target_schema: ProcessSchema
    ) -> Marking:
        """Marking obtained by replaying the reduced history from scratch.

        Raises :class:`ValueError` when the history cannot be replayed on
        the target schema (i.e. the instance is not compliant) — callers
        check compliance first.
        """
        checker = ComplianceChecker(engine=self._engine)
        outcome = checker.replay_instance(instance, target_schema)
        if outcome.conflicts:
            raise ValueError(
                "history cannot be replayed on the target schema: "
                + "; ".join(str(conflict) for conflict in outcome.conflicts)
            )
        return outcome.scratch.marking

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #

    def adapt_and_verify(
        self, instance: ProcessInstance, target_schema: ProcessSchema
    ) -> Tuple[Marking, bool]:
        """Adapt incrementally and report agreement with the replay baseline.

        Returns ``(marking, agrees)`` where ``agrees`` is True when both
        procedures yield equivalent markings for the activity nodes.  Used
        by tests and the A2 ablation benchmark.
        """
        incremental = self.adapt(instance, target_schema)
        try:
            replayed = self.recompute_by_replay(instance, target_schema)
        except ValueError:
            return incremental, False
        agrees = self._activity_states_equal(incremental, replayed, target_schema)
        return incremental, agrees

    @staticmethod
    def _activity_states_equal(
        first: Marking, second: Marking, schema: ProcessSchema
    ) -> bool:
        for node_id in schema.activity_ids():
            if first.node_state(node_id) is not second.node_state(node_id):
                return False
        return True
