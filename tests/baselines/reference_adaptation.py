"""The reference state adaptation the positional ``StateAdapter.adapt`` is pinned against.

:func:`reference_adapt` is the name-based procedure ``StateAdapter.adapt``
used before it became positional, kept verbatim: walk the target schema in
topological order, carry the states of started activities and of started
structural nodes whose incident edges and signalled inputs survive the
change, reset everything else (every ACTIVATED and SKIPPED state
included), and let one full engine propagation pass on a scratch instance
re-derive activations and skips.  It shares no code with the positional
procedure beyond the engine's propagation pass, so
``tests/properties/test_property_adaptation_parity.py`` and the migration
reference (``reference_migration.py``) stay independent of the code under
test.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.engine import ProcessEngine
from repro.runtime.instance import ProcessInstance
from repro.runtime.markings import Marking
from repro.runtime.states import EdgeState, InstanceStatus, NodeState
from repro.schema.graph import ProcessSchema


class ReferenceAdapter:
    """``StateAdapter.adapt`` by name: carry over, reset, one full propagation pass."""

    def __init__(self, engine: Optional[ProcessEngine] = None) -> None:
        self._engine = engine or ProcessEngine()

    def adapt(self, instance: ProcessInstance, target_schema: ProcessSchema) -> Marking:
        """Compute the instance's marking on ``target_schema`` incrementally."""
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

        Carried over are the states of started activities and of started
        structural nodes whose incident edges are unchanged and whose
        signalled inputs all come from carried nodes (visited in
        topological order, so a reset region un-carries everything whose
        state depended on it).  Signalled edges are carried when their
        source is; new outgoing edges of carried, completed nodes fire.
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
                    continue
                if not self._signals_justified(
                    old_marking, target_schema, node_id, carried_nodes
                ):
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
                marking.set_edge_state(edge.source, edge.target, old_edge_state, edge.edge_type)
            elif source_state is NodeState.COMPLETED:
                marking.set_edge_state(edge.source, edge.target, EdgeState.TRUE_SIGNALED, edge.edge_type)
        return marking

    @staticmethod
    def _signals_justified(
        old_marking: Marking, target_schema: ProcessSchema, node_id: str, carried: set
    ) -> bool:
        """True when every signalled input of a structural node survives."""
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
