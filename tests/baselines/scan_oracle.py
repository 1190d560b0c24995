"""The reference stepping oracle the compiled kernel is pinned against.

:class:`ScanOracle` states ADEPT2's marking rules in the plainest way that
still reproduces the engine's observable behaviour: *find every untouched
node whose incoming edges decide it, act on it, repeat until nothing
changes* — a round-based full scan over ``schema.nodes`` with every
structural question answered by the brute-force edge-list scans of
:mod:`tests.baselines.brute_force`.  It shares no stepping code with
:class:`repro.runtime.engine.ProcessEngine`: no compiled index, no step
kernel, no dense marking view, no worklist of touched nodes.

The ``kernel``-marked parity suites drive the same schemas and schedules
through both and require identical markings, histories, loop counters,
event streams and worklist offers.  The oracle operates on the same
:class:`~repro.runtime.instance.ProcessInstance` objects as the engine
(marking dicts, history, data context), so either side's state can be
cloned and continued by the other.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.runtime.engine import EngineError, JoinSignalConflictError, PropagationLimitError
from repro.runtime.events import EngineEvent, EventType
from repro.runtime.expressions import ExpressionError, evaluate_condition
from repro.runtime.history import HistoryEventType
from repro.runtime.instance import ProcessInstance
from repro.runtime.states import EdgeState, InstanceStatus, NodeState
from repro.schema.data import DataType
from repro.schema.edges import EdgeType
from repro.schema.graph import ProcessSchema
from repro.schema.nodes import Node, NodeType
from repro.storage.serialization import instance_to_dict

from tests.baselines import brute_force as bf

Worker = Callable[[Node, Mapping[str, Any]], Mapping[str, Any]]


class EventRecorder(list):
    """An ``event_listener`` that keeps every event it hears, in order:
    the event stream :func:`observed` compares."""

    def __call__(self, event: EngineEvent) -> None:
        self.append(event)


def recording(engine):
    """``engine`` (a ProcessEngine or a ScanOracle) with a fresh
    :class:`EventRecorder` as its event listener."""
    engine.event_listener = EventRecorder()
    return engine


class ScanOracle:
    """Round-based full-scan interpreter of the ADEPT2 marking rules."""

    def __init__(self, max_propagation_rounds: Optional[int] = None) -> None:
        #: like the engine's: the one sink of the events, none by default
        self.event_listener: Optional[Callable[[EngineEvent], None]] = None
        self.max_propagation_rounds = max_propagation_rounds

    # ------------------------------------------------------------------ #
    # instance lifecycle and activity transitions
    # ------------------------------------------------------------------ #

    def create_instance(
        self,
        schema: ProcessSchema,
        instance_id: str,
        initial_data: Optional[Mapping[str, Any]] = None,
    ) -> ProcessInstance:
        instance = ProcessInstance(instance_id=instance_id, schema=schema, initial_data=initial_data)
        instance.status = InstanceStatus.RUNNING
        self._emit(EventType.INSTANCE_CREATED, instance, None)
        self.propagate(instance)
        return instance

    def start_activity(
        self, instance: ProcessInstance, activity_id: str, user: Optional[str] = None
    ) -> None:
        schema = instance.execution_schema
        state = instance.marking.node_state(activity_id)
        if not instance.status.is_active or state is not NodeState.ACTIVATED:
            raise EngineError(f"activity {activity_id!r} cannot be started from {state.value!r}")
        instance.marking.set_node_state(activity_id, NodeState.RUNNING)
        instance.history.record(
            HistoryEventType.ACTIVITY_STARTED,
            activity_id,
            iteration=self._iteration_of(instance, activity_id),
            values={
                d.element: instance.data.get(d.element) for d in bf.reads_of(schema, activity_id)
            },
            user=user,
        )
        self._emit(EventType.ACTIVITY_STARTED, instance, activity_id, user)

    def complete_activity(
        self,
        instance: ProcessInstance,
        activity_id: str,
        outputs: Optional[Mapping[str, Any]] = None,
        user: Optional[str] = None,
    ) -> None:
        outputs = dict(outputs or {})
        state = instance.marking.node_state(activity_id)
        if state is NodeState.ACTIVATED:
            self.start_activity(instance, activity_id, user=user)
        elif not instance.status.is_active or state not in (NodeState.RUNNING, NodeState.SUSPENDED):
            raise EngineError(f"activity {activity_id!r} cannot be completed from {state.value!r}")
        iteration = self._iteration_of(instance, activity_id)
        for element, value in outputs.items():
            instance.data.write(element, value, writer=activity_id, iteration=iteration)
        instance.marking.set_node_state(activity_id, NodeState.COMPLETED)
        instance.history.record(
            HistoryEventType.ACTIVITY_COMPLETED,
            activity_id,
            iteration=iteration,
            values=outputs,
            user=user,
        )
        self._emit(EventType.ACTIVITY_COMPLETED, instance, activity_id, user)
        self._signal_outgoing(instance, activity_id, chosen_target=None, skipped=False)
        self.propagate(instance)

    def advance_instance(
        self, instance: ProcessInstance, activity_count: int, worker: Optional[Worker] = None
    ) -> int:
        """Complete up to ``activity_count`` activities, first activated first."""
        executed = 0
        while executed < activity_count and instance.status.is_active:
            activated = instance.activated_activities()
            if not activated:
                break
            outputs = self.outputs_for(instance, activated[0], worker)
            self.complete_activity(instance, activated[0], outputs)
            executed += 1
        return executed

    def run_to_completion(
        self, instance: ProcessInstance, worker: Optional[Worker] = None, max_steps: int = 10000
    ) -> int:
        return self.advance_instance(instance, max_steps, worker)

    def outputs_for(
        self, instance: ProcessInstance, activity_id: str, worker: Optional[Worker] = None
    ) -> Dict[str, Any]:
        """Scripted outputs: the worker's, or one plausible value per written element."""
        schema = instance.execution_schema
        writes = bf.writes_of(schema, activity_id)
        if worker is not None:
            produced = dict(worker(schema.node(activity_id), instance.data.values))
            writable = {d.element for d in writes}
            return {k: v for k, v in produced.items() if k in writable}
        defaults = {DataType.BOOLEAN: True, DataType.INTEGER: 1, DataType.FLOAT: 1.0}
        outputs: Dict[str, Any] = {}
        for d in writes:
            data_type = schema.data_element(d.element).data_type
            if data_type in defaults:
                outputs[d.element] = defaults[data_type]
            elif data_type is DataType.DOCUMENT:
                outputs[d.element] = {"produced_by": activity_id}
            else:
                outputs[d.element] = f"{d.element}_by_{activity_id}"
        return outputs

    # ------------------------------------------------------------------ #
    # the marking rules
    # ------------------------------------------------------------------ #

    def propagate(self, instance: ProcessInstance) -> None:
        """Scan all nodes, act on every decidable one, repeat to fixpoint."""
        schema = instance.execution_schema
        bound = self.max_propagation_rounds
        if bound is None:
            size = len(schema.nodes)
            loop_budget = sum(
                int(schema.node(e.target).properties.get("max_iterations", 100))
                for e in bf.loop_edges(schema)
            )
            bound = max(10000, (size + 2) * (loop_budget + 1) + size)
        changed: List[str] = []
        for _ in range(bound):
            changed = []
            for node_id in list(schema.nodes):
                if instance.marking.node_state(node_id) is not NodeState.NOT_ACTIVATED:
                    continue
                decision = self._entry_decision(instance, node_id)
                if decision is None:
                    continue
                if decision == "activate":
                    node = schema.node(node_id)
                    if node.is_activity:
                        instance.marking.set_node_state(node_id, NodeState.ACTIVATED)
                        self._emit(EventType.ACTIVITY_ACTIVATED, instance, node_id)
                    else:
                        self._execute_structural(instance, node)
                elif decision == "skip":
                    self._skip_node(instance, node_id)
                else:
                    raise self._join_conflict(instance, node_id)
                changed.append(node_id)
            if not changed:
                return
        raise PropagationLimitError(instance.instance_id, bound, changed)

    def _entry_decision(self, instance: ProcessInstance, node_id: str) -> Optional[str]:
        """activate / skip / conflict / None (wait) for one untouched node."""
        schema = instance.execution_schema
        node_type = schema.node(node_id).node_type
        if node_type is NodeType.START:
            return "activate"
        marking = instance.marking
        states = [marking.edge_state_key(e.key) for e in bf.edges_to(schema, node_id, EdgeType.CONTROL)]
        if not states:
            return None
        sync_ready = all(
            marking.edge_state_key(e.key).is_signaled
            for e in bf.edges_to(schema, node_id, EdgeType.SYNC)
        )
        if node_type in (NodeType.AND_JOIN, NodeType.XOR_JOIN):
            if not all(s.is_signaled for s in states):
                return None
            true_count = sum(1 for s in states if s is EdgeState.TRUE_SIGNALED)
            if true_count == 0:
                return "skip"
            if node_type is NodeType.AND_JOIN and true_count != len(states):
                return "conflict"  # mixed signals: can neither fire nor be skipped
            return "activate" if sync_ready else None
        if states[0] is EdgeState.TRUE_SIGNALED:
            return "activate" if sync_ready else None
        if states[0] is EdgeState.FALSE_SIGNALED:
            return "skip"
        return None

    def _execute_structural(self, instance: ProcessInstance, node: Node) -> None:
        node_id = node.node_id
        if node.node_type is NodeType.LOOP_END:
            self._execute_loop_end(instance, node_id)
            return
        instance.marking.set_node_state(node_id, NodeState.COMPLETED)
        if node.node_type is NodeType.END:
            instance.status = InstanceStatus.COMPLETED
            self._emit(EventType.INSTANCE_COMPLETED, instance, node_id)
            return
        chosen = self._choose_branch(instance, node_id) if node.node_type is NodeType.XOR_SPLIT else None
        self._signal_outgoing(instance, node_id, chosen_target=chosen, skipped=False)

    def _choose_branch(self, instance: ProcessInstance, split_id: str) -> str:
        """First branch whose guard holds, else the unguarded one, else the first."""
        edges = bf.edges_from(instance.execution_schema, split_id, EdgeType.CONTROL)
        default_target: Optional[str] = None
        for edge in edges:
            if edge.guard is None:
                default_target = edge.target
                continue
            try:
                if evaluate_condition(edge.guard, instance.data.values):
                    return edge.target
            except ExpressionError:
                continue
        return default_target if default_target is not None else edges[0].target

    def _execute_loop_end(self, instance: ProcessInstance, loop_end_id: str) -> None:
        schema = instance.execution_schema
        loop_start_id = bf.matching_loop_start(schema, loop_end_id)
        loop_edge = schema.edge(loop_end_id, loop_start_id, EdgeType.LOOP)
        max_iterations = int(schema.node(loop_start_id).properties.get("max_iterations", 100))
        iteration = instance.loop_iterations.get(loop_start_id, 0)
        repeat = False
        if loop_edge.loop_condition is not None and iteration + 1 < max_iterations:
            try:
                repeat = evaluate_condition(loop_edge.loop_condition, instance.data.values)
            except ExpressionError:
                repeat = False
        if not repeat:
            instance.marking.set_node_state(loop_end_id, NodeState.COMPLETED)
            self._signal_outgoing(instance, loop_end_id, chosen_target=None, skipped=False)
            return
        # new iteration: reset the loop block, supersede its history; the loop
        # start's in-edge is still TRUE, so the next round re-executes it
        body = bf.loop_body(schema, loop_start_id)
        instance.loop_iterations[loop_start_id] = iteration + 1
        instance.history.supersede_activities([n for n in body if schema.node(n).is_activity])
        reset_nodes = body | {loop_start_id}
        for node_id in reset_nodes:
            instance.marking.set_node_state(node_id, NodeState.NOT_ACTIVATED)
        for edge in schema.edges:
            if not edge.is_loop and edge.source in reset_nodes and edge.target in reset_nodes:
                instance.marking.set_edge_state_key(edge.key, EdgeState.NOT_SIGNALED)
        self._emit(EventType.LOOP_ITERATION, instance, loop_start_id)
        instance.history.record(
            HistoryEventType.LOOP_ITERATION_STARTED, loop_start_id, iteration=iteration + 1
        )

    def _skip_node(self, instance: ProcessInstance, node_id: str) -> None:
        """Dead-path elimination: mark skipped and signal FALSE onwards."""
        node = instance.execution_schema.node(node_id)
        instance.marking.set_node_state(node_id, NodeState.SKIPPED)
        self._emit(EventType.ACTIVITY_SKIPPED, instance, node_id)
        if node.is_activity:
            instance.history.record(
                HistoryEventType.ACTIVITY_SKIPPED,
                node_id,
                iteration=self._iteration_of(instance, node_id),
            )
        if node.node_type is not NodeType.END:
            self._signal_outgoing(instance, node_id, chosen_target=None, skipped=True)

    def _signal_outgoing(
        self, instance: ProcessInstance, node_id: str, chosen_target: Optional[str], skipped: bool
    ) -> None:
        schema = instance.execution_schema
        for edge in bf.edges_from(schema, node_id, EdgeType.CONTROL):
            dead = skipped or (chosen_target is not None and edge.target != chosen_target)
            instance.marking.set_edge_state_key(
                edge.key, EdgeState.FALSE_SIGNALED if dead else EdgeState.TRUE_SIGNALED
            )
        for edge in bf.edges_from(schema, node_id, EdgeType.SYNC):
            instance.marking.set_edge_state_key(
                edge.key, EdgeState.FALSE_SIGNALED if skipped else EdgeState.TRUE_SIGNALED
            )

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _iteration_of(self, instance: ProcessInstance, node_id: str) -> int:
        loop_start_id = bf.innermost_loop_start(instance.execution_schema, node_id)
        return instance.loop_iterations.get(loop_start_id, 0) if loop_start_id else 0

    def _join_conflict(self, instance: ProcessInstance, node_id: str) -> JoinSignalConflictError:
        states = ", ".join(
            f"{e.source}->{e.target}: {instance.marking.edge_state_key(e.key).value}"
            for e in bf.edges_to(instance.execution_schema, node_id, EdgeType.CONTROL)
        )
        return JoinSignalConflictError(
            f"AND-join {node_id!r} of instance {instance.instance_id!r} received "
            f"mixed branch signals ({states})"
        )

    def emit(self, event: EngineEvent) -> None:
        """Report ``event`` to the listener, if one is set (the change
        managers driving the oracle report through here)."""
        if self.event_listener is not None:
            self.event_listener(event)

    def _emit(
        self,
        event_type: EventType,
        instance: ProcessInstance,
        node: Optional[str],
        user: Optional[str] = None,
    ) -> None:
        self.emit(
            EngineEvent(
                event_type=event_type, instance_id=instance.instance_id, node_id=node, user=user
            )
        )


def observed(engine, instances) -> tuple:
    """Everything the parity suites compare after driving ``instances``.

    Per instance: the canonical serialisation (status, version, marking,
    full history, data context, loop counters, bias), the marking's node
    order and the resulting activation order; plus the engine's event
    stream, as its :class:`EventRecorder` listener heard it (see
    :func:`recording`).  Works for a :class:`ProcessEngine` and a
    :class:`ScanOracle`.
    """
    return (
        [
            (
                json.dumps(instance_to_dict(instance), sort_keys=True, default=str),
                tuple(instance.marking.node_states),
                tuple(instance.activated_activities()),
            )
            for instance in instances
        ],
        [
            (event.event_type.value, event.instance_id, event.node_id, event.user)
            for event in engine.event_listener
        ],
    )
