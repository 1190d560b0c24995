"""State adaptation of instance markings after a dynamic change.

When a compliant instance migrates to a changed schema its marking has to
be adapted: newly inserted activities before the execution frontier must
become activated, their former successors de-activated, activities in
dead branches skipped, and so on — the paper's "efficient procedures ...
for adapting the states of instances when migrating them to the new
schema" (instance I1 in Fig. 1).

Two procedures are provided:

* :meth:`StateAdapter.adapt` — the **positional** procedure: (1) lay
  the marking's codes onto the target's
  :class:`~repro.runtime.kernel.MarkingLayout` by position, as
  :meth:`Marking.lay_onto` does; (2) reset what the change took the
  justification from — new nodes, nodes whose control/sync edges changed
  (but not performed activities, nor unfired nodes whose inputs are
  unchanged) and, along signalled edges, the derived states downstream
  of those, up to performed activities — and fire the new out-edges of
  kept COMPLETED nodes; (3) propagate from the reset nodes only.  Unless
  a reset node is the start node or has a signalled control in-edge,
  the marking already is a fixpoint and the target's step kernel is not
  compiled.  Everything the change does not reach keeps its code: cost
  O(layout) + O(changed region), no scratch instance, no copy of
  history or data.
* :meth:`StateAdapter.recompute_by_replay` — the **baseline**: replay the
  whole reduced history on the changed schema from scratch.  Used to
  cross-validate the positional procedure (they must produce equivalent
  markings for compliant instances) and as the slow comparator in
  benchmark A2.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Optional, Set, Tuple

from repro.core.compliance import ComplianceChecker
from repro.runtime.engine import ProcessEngine
from repro.runtime.history import ExecutionHistory
from repro.runtime.instance import ProcessInstance
from repro.runtime.markings import EDGE_CODE, NODE_CODE, Marking, lay_codes
from repro.runtime.states import EdgeState, InstanceStatus, NodeState
from repro.schema.edges import EdgeType
from repro.schema.graph import ProcessSchema
from repro.schema.nodes import NodeType

_ACTIVATED = NODE_CODE[NodeState.ACTIVATED]
_COMPLETED = NODE_CODE[NodeState.COMPLETED]
_TRUE = EDGE_CODE[EdgeState.TRUE_SIGNALED]
#: codes of performed work (``NodeState.is_started``)
_STARTED = frozenset(NODE_CODE[state] for state in NodeState if state.is_started)


class StateAdapter:
    """Adapts instance markings to changed schemas."""

    def __init__(self, engine: Optional[ProcessEngine] = None) -> None:
        self._engine = engine or ProcessEngine()

    # ------------------------------------------------------------------ #
    # positional adaptation
    # ------------------------------------------------------------------ #

    def adapt(self, instance: ProcessInstance, target_schema: ProcessSchema) -> Marking:
        """Compute the instance's marking on ``target_schema`` (see the module docstring).

        The caller is responsible for having established compliance first;
        adapting the marking of a non-compliant instance yields an
        undefined (though structurally valid) result.  The instance is
        only read.
        """
        source = instance.marking
        old = source.layout
        index = target_schema.index
        layout = index.marking_layout()
        nodes, new_nodes = lay_codes(source.nodes, old.node_pos, layout.node_ids)
        edges, added = lay_codes(source.edges, old.edge_pos, layout.edge_keys)
        marking = Marking(layout, nodes, edges)

        changed = [layout.edge_keys[position] for position in added]
        if len(old.edge_keys) != len(layout.edge_keys) - len(added):  # some edge was removed
            changed += [key for key in old.edge_keys if key not in layout.edge_pos]
        inputs_changed = {key[1] for key in changed}
        reset: Set[int] = set(new_nodes)
        for node_id in inputs_changed.union(key[0] for key in changed):
            position = layout.node_pos.get(node_id)  # None: deleted with the edge
            # a node that has not fired yet decides on its inputs alone
            if position is not None and (node_id in inputs_changed or nodes[position] > _ACTIVATED):
                if not self._performed(index, node_id, nodes[position]):
                    reset.add(position)
        for position in reset:
            nodes[position] = 0
        self._reset_downstream(index, marking, reset)
        for position in added:
            if nodes[layout.node_pos[layout.edge_keys[position][0]]] == _COMPLETED:
                edges[position] = _TRUE

        if source.settled and not any(self._can_fire(index, marking, p) for p in reset):
            marking.settled = True
            return marking
        # the pass reads the case's data and loop counters — a copy: a
        # loop-back during the pass must not count on the case — and what
        # it skips or loops back is re-derived, not work: no history
        view = SimpleNamespace(
            instance_id=instance.instance_id,
            execution_schema=target_schema,
            marking=marking,
            data=instance.data,
            loop_iterations=dict(instance.loop_iterations),
            history=ExecutionHistory(),
            status=InstanceStatus.RUNNING,
        )
        # a source not known to be a fixpoint gets a full pass
        seeds = sorted(reset) if source.settled else None
        self._engine._propagate_kernel(view, index.step_kernel(), seeds)
        return marking

    @staticmethod
    def _performed(index: Any, node_id: str, code: int) -> bool:
        """True for a started activity: performed work is never rewound."""
        return code in _STARTED and index.node(node_id).is_activity

    @classmethod
    def _reset_downstream(cls, index: Any, marking: Marking, reset: Set[int]) -> None:
        """Withdraw the signals out of ``reset`` and reset what they justified.

        A target joins ``reset`` unless it performed work or never fired
        (untouched: one signal fewer keeps it waiting).
        """
        layout, nodes, edges = marking.layout, marking.nodes, marking.edges
        stack = list(reset)
        while stack:
            for edge in index.out_edges(layout.node_ids[stack.pop()]):
                position = layout.edge_pos.get(edge.key)  # None: a loop edge
                if position is None or not edges[position]:
                    continue
                edges[position] = 0
                target = layout.node_pos[edge.target]
                code = nodes[target]
                if code and target not in reset and not cls._performed(index, edge.target, code):
                    nodes[target] = 0
                    reset.add(target)
                    stack.append(target)

    @staticmethod
    def _can_fire(index: Any, marking: Marking, position: int) -> bool:
        """False when the untouched node at ``position`` can only wait."""
        node_id = marking.layout.node_ids[position]
        if index.node(node_id).node_type is NodeType.START:
            return True
        edge_pos, edges = marking.layout.edge_pos, marking.edges
        return any(edges[edge_pos[edge.key]] for edge in index.in_edges(node_id, EdgeType.CONTROL))

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
        """Adapt positionally and report agreement with the replay baseline.

        Returns ``(marking, agrees)`` where ``agrees`` is True when both
        procedures yield equivalent markings for the activity nodes.  Used
        by tests and the A2 ablation benchmark.
        """
        adapted = self.adapt(instance, target_schema)
        try:
            replayed = self.recompute_by_replay(instance, target_schema)
        except ValueError:
            return adapted, False
        return adapted, all(
            adapted.node_state(node_id) is replayed.node_state(node_id)
            for node_id in target_schema.activity_ids()
        )
