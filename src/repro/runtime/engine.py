"""The ADEPT2 execution engine.

The engine drives process instances over their execution schema: it
activates activities whose predecessors are properly signalled, executes
structural nodes automatically (splits, joins, loops), performs dead-path
elimination for non-chosen XOR branches, resets loop bodies on loop-back
and maintains the execution history, data context and loop iteration
counters of each instance.

Only activity nodes require explicit :meth:`ProcessEngine.start_activity`
and :meth:`ProcessEngine.complete_activity` calls — everything structural
advances automatically, which is what lets migrated instances simply
"keep running" after their marking was adapted.

**Thread-safety contract.**  One engine may drive disjoint instances
from many threads concurrently, provided each *instance* is driven by at
most one thread at a time (the :class:`~repro.system.AdeptSystem` façade
enforces this with striped per-instance locks).  The step path touches
no shared mutable state: all execution state lives on the instance, the
compiled :class:`~repro.schema.index.SchemaIndex` (and its step kernel)
is an immutable snapshot shared read-only across threads, and the engine
itself caches nothing.  Driving the *same* instance from two threads
without external locking is not supported.

There is one stepping path — the compiled
:class:`~repro.runtime.kernel.StepKernel`.  Its reference is the scan
oracle under ``tests/baselines``, which the ``kernel``-marked parity
suites compare it against.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set

from repro.errors import ReproError
from repro.runtime.data_context import DataContext
from repro.runtime.events import EngineEvent, EventLog, EventType
from repro.runtime.expressions import ExpressionError, evaluate_condition
from repro.runtime.history import HistoryEventType
from repro.runtime.instance import ProcessInstance
from repro.runtime.kernel import ACTION_END, ACTION_LOOP_END, ACTION_XOR_SPLIT, StepKernel
from repro.runtime.markings import Marking
from repro.runtime.states import EdgeState, InstanceStatus, NodeState
from repro.schema.data import DataType
from repro.schema.edges import EdgeType
from repro.schema.graph import ProcessSchema
from repro.schema.nodes import Node


class EngineError(ReproError):
    """Raised when an instance is driven in an illegal way."""


class JoinSignalConflictError(EngineError):
    """An AND join received mixed TRUE/FALSE branch signals.

    All incoming control edges of the join are signalled, but some carry
    TRUE and some FALSE: the join can neither fire (a branch was
    dead-path-eliminated) nor be skipped (a branch really ran).  A
    correct block-structured schema never produces this marking —
    ill-formed schemas and buggy migrations do, and the engine used to
    wait on it forever.  The message names the join node and the state of
    every incoming control edge.
    """


class PropagationLimitError(EngineError):
    """Marking propagation exceeded its round bound without converging.

    Carries the instance id, the number of rounds executed and the set of
    nodes that were still changing when the bound hit — enough context to
    tell a genuinely diverging schema (structural cycle of automatically
    executing nodes) from an engine bug.
    """

    def __init__(self, instance_id: str, rounds: int, changing_nodes: Iterable[str]) -> None:
        self.instance_id = instance_id
        self.rounds = rounds
        self.changing_nodes = sorted(set(changing_nodes))
        super().__init__(
            f"marking propagation for instance {instance_id!r} did not converge "
            f"after {rounds} rounds; still-changing nodes: {self.changing_nodes!r} "
            f"(structural cycle of automatically executing nodes, or engine bug)"
        )


# A worker turns an activated activity into its output data values.
Worker = Callable[[Node, Mapping[str, Any]], Mapping[str, Any]]


def default_worker(node: Node, data: Mapping[str, Any]) -> Dict[str, Any]:
    """Produce plausible outputs for every data element an activity writes.

    Booleans become ``True`` so that loop exit conditions and approval
    guards eventually hold; other types receive simple non-empty values.
    The worker is used by :meth:`ProcessEngine.run_to_completion` and the
    workload generators when no domain-specific behaviour is supplied.
    """
    outputs: Dict[str, Any] = {}
    for data_edge in node.properties.get("_writes", []):  # pragma: no cover - legacy hook
        outputs[data_edge] = True
    return outputs


class ProcessEngine:
    """Executes process instances on (verified) process schemas."""

    def __init__(
        self, event_log: Optional[EventLog] = None, max_propagation_rounds: Optional[int] = None
    ) -> None:
        # an empty EventLog is falsy (it has __len__), so test for None explicitly
        self.event_log = event_log if event_log is not None else EventLog()
        #: Explicit round bound override.  ``None`` (the default) derives
        #: the bound from the schema: topological depth × loop-iteration
        #: budget, floored at the legacy constant of 10000 — see
        #: :func:`repro.runtime.kernel.derive_round_bound`.
        self.max_propagation_rounds = max_propagation_rounds
        #: Optional hook invoked once per acknowledged activity operation
        #: with ``(action, instance, activity_id, outputs, user)``:
        #: ``"start"`` for an explicit :meth:`start_activity`,
        #: ``"complete"`` for a :meth:`complete_activity` — including the
        #: implicit start it performs on an ACTIVATED activity, so a
        #: completed activity has one commit point.  The durability
        #: layer journals these as typed WAL records; unlike the event log
        #: the hook receives the *actual outputs* written by the step, so a
        #: crash-recovery replay reproduces the exact data context.
        self.step_listener: Optional[Callable[[str, ProcessInstance, str, Optional[Dict[str, Any]], Optional[str]], None]] = None
        #: Optional fail-fast check run on the outputs of a completing
        #: activity *before* any state is mutated.  The durability layer
        #: installs a JSON-serialisability check here: an output the
        #: write-ahead log cannot record must reject the step up front,
        #: not diverge the journal from an already-committed transition.
        self.step_outputs_validator: Optional[Callable[[Mapping[str, Any]], None]] = None
        #: Optional hook invoked with the instance *before* an activity
        #: transition executes.  The progressive-rollout machinery installs
        #: its lazy on-touch migration here: a case still on the old schema
        #: version of an in-flight rollout adopts the new version the moment
        #: it is actually worked on, before the step runs.
        self.touch_listener: Optional[Callable[[ProcessInstance], None]] = None

    # ------------------------------------------------------------------ #
    # instance lifecycle
    # ------------------------------------------------------------------ #

    def create_instance(
        self,
        schema: ProcessSchema,
        instance_id: str,
        initial_data: Optional[Mapping[str, Any]] = None,
    ) -> ProcessInstance:
        """Create a new instance of ``schema`` and advance it to its first activities."""
        instance = ProcessInstance(instance_id=instance_id, schema=schema, initial_data=initial_data)
        instance.status = InstanceStatus.RUNNING
        self._emit(EventType.INSTANCE_CREATED, instance, node=None)
        self.propagate(instance)
        return instance

    def activated_activities(self, instance: ProcessInstance) -> List[str]:
        """Activity ids the user could start right now (worklist content)."""
        return instance.activated_activities()

    def _first_activated_compiled(self, instance: ProcessInstance) -> Optional[str]:
        """First activated activity id, via the dense view when possible.

        Byte-for-byte the same answer as ``activated_activities()[0]``:
        when the dense view is aligned (marking holds exactly the layout's
        nodes in layout order) the positional scan visits nodes in
        marking-dict order, and ``bytearray.find`` runs it at C speed in
        O(first hit) instead of O(schema).  Fresh, migrated and hydrated
        cases are all aligned (a stored marking is decoded in layout
        order), so the pick order is the layout order; only a marking
        that does not cover its layout falls back to the dict scan.
        """
        kernel = instance.execution_schema.index.step_kernel()
        view = instance.marking.dense_view(kernel.layout)
        if not view.aligned:
            activated = instance.activated_activities()
            return activated[0] if activated else None
        flags = view.activated
        is_activity = kernel.is_activity
        position = flags.find(1)
        while position != -1:
            if is_activity[position]:
                return kernel.node_ids[position]
            position = flags.find(1, position + 1)
        return None

    def start_activity(
        self, instance: ProcessInstance, activity_id: str, user: Optional[str] = None
    ) -> None:
        """Move an activated activity to RUNNING and log the start event."""
        if self.touch_listener is not None:
            self.touch_listener(instance)
        self._require_active(instance)
        schema = instance.execution_schema
        node = schema.node(activity_id)
        if not node.is_activity:
            raise EngineError(f"{activity_id!r} is not an activity node")
        state = instance.marking.node_state(activity_id)
        if state is not NodeState.ACTIVATED:
            raise EngineError(
                f"activity {activity_id!r} cannot be started from state {state.value!r}"
            )
        self._begin_activity(instance, activity_id, user)
        if self.step_listener is not None:
            self.step_listener("start", instance, activity_id, None, user)

    def _begin_activity(
        self, instance: ProcessInstance, activity_id: str, user: Optional[str]
    ) -> None:
        """The start transition of an ACTIVATED activity, unannounced.

        :meth:`start_activity` is acknowledged on its own, so it tells the
        step listener; the implicit start inside :meth:`complete_activity`
        does not — its one commit point is the ``complete`` notification,
        which a replay turns back into this same transition.
        """
        instance.marking.set_node_state(activity_id, NodeState.RUNNING)
        read_values = {
            data_edge.element: instance.data.get(data_edge.element)
            for data_edge in instance.execution_schema.reads_of(activity_id)
        }
        instance.history.record(
            HistoryEventType.ACTIVITY_STARTED,
            activity_id,
            iteration=self._iteration_of(instance, activity_id),
            values=read_values,
            user=user,
        )
        self._emit(EventType.ACTIVITY_STARTED, instance, node=activity_id, user=user)

    def complete_activity(
        self,
        instance: ProcessInstance,
        activity_id: str,
        outputs: Optional[Mapping[str, Any]] = None,
        user: Optional[str] = None,
    ) -> None:
        """Complete a running activity, write its outputs and advance the instance.

        The activity may also be completed directly from ACTIVATED state
        (implicit start), which keeps scripted executions short.  The step
        listener hears of such a step once, as ``"complete"``, after the
        marking advanced: a crash before that leaves the activity
        ACTIVATED in the journal's eyes and the step can simply be retried.
        """
        if self.touch_listener is not None:
            self.touch_listener(instance)
        self._require_active(instance)
        schema = instance.execution_schema
        node = schema.node(activity_id)
        if not node.is_activity:
            raise EngineError(f"{activity_id!r} is not an activity node")
        outputs = dict(outputs or {})
        writable = {data_edge.element for data_edge in schema.writes_of(activity_id)}
        unknown = set(outputs) - writable
        if unknown:
            raise EngineError(
                f"activity {activity_id!r} has no write access to {sorted(unknown)!r}"
            )
        if outputs and self.step_outputs_validator is not None:
            # before any state moves — including the implicit start below —
            # so a rejected step leaves instance and journal untouched
            try:
                self.step_outputs_validator(outputs)
            except (TypeError, ValueError) as exc:
                raise EngineError(
                    f"activity {activity_id!r} outputs cannot be journaled: {exc}"
                ) from exc
        state = instance.marking.node_state(activity_id)
        if state is NodeState.ACTIVATED:
            self._begin_activity(instance, activity_id, user)
        elif state not in (NodeState.RUNNING, NodeState.SUSPENDED):
            raise EngineError(
                f"activity {activity_id!r} cannot be completed from state {state.value!r}"
            )
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
        self._emit(EventType.ACTIVITY_COMPLETED, instance, node=activity_id, user=user)
        self._advance_after_completion(instance, activity_id)
        if self.step_listener is not None:
            # after propagation: the listener journals the step only once the
            # whole transition (outputs, marking advance) is committed
            self.step_listener("complete", instance, activity_id, outputs, user)

    def _advance_after_completion(self, instance: ProcessInstance, activity_id: str) -> None:
        """Signal the completed activity's out-edges and re-propagate.

        A marking whose dense view is still at fixpoint needs only the
        nodes the signals just touched re-examined — stepping cost is
        O(affected cascade) instead of O(schema).
        """
        kernel = instance.execution_schema.index.step_kernel()
        marking = instance.marking
        was_fixpoint = marking.dense_view(kernel.layout).at_fixpoint
        touched: List[str] = []
        self._signal_outgoing(
            marking, kernel.layout.node_pos[activity_id], kernel, None, False, touched
        )
        self._propagate_kernel(instance, kernel, seeds=touched if was_fixpoint else None)

    def suspend_activity(self, instance: ProcessInstance, activity_id: str) -> None:
        """Suspend a running activity (work interrupted)."""
        state = instance.marking.node_state(activity_id)
        if state is not NodeState.RUNNING:
            raise EngineError(f"activity {activity_id!r} is not running")
        instance.marking.set_node_state(activity_id, NodeState.SUSPENDED)

    def resume_activity(self, instance: ProcessInstance, activity_id: str) -> None:
        """Resume a suspended activity."""
        state = instance.marking.node_state(activity_id)
        if state is not NodeState.SUSPENDED:
            raise EngineError(f"activity {activity_id!r} is not suspended")
        instance.marking.set_node_state(activity_id, NodeState.RUNNING)

    def abort_instance(self, instance: ProcessInstance) -> None:
        """Abort the whole instance (baseline policy of non-adaptive systems)."""
        instance.status = InstanceStatus.ABORTED
        self._emit(EventType.INSTANCE_ABORTED, instance, node=None)

    # ------------------------------------------------------------------ #
    # scripted execution helpers
    # ------------------------------------------------------------------ #

    def run_to_completion(
        self,
        instance: ProcessInstance,
        worker: Optional[Worker] = None,
        max_steps: int = 10000,
    ) -> int:
        """Execute activated activities until the instance completes.

        Returns the number of activities executed.  ``worker`` maps an
        activity node and the current data values to its outputs; when
        omitted, plausible defaults are generated (booleans become True so
        loops terminate).
        """
        return self.step_many_compiled([instance], max_steps, worker)[0]

    def advance_instance(
        self,
        instance: ProcessInstance,
        activity_count: int,
        worker: Optional[Worker] = None,
    ) -> int:
        """Complete up to ``activity_count`` activities (population generator)."""
        return self.step_many_compiled([instance], activity_count, worker)[0]

    def step_many_compiled(
        self,
        instances: Sequence[ProcessInstance],
        activity_count: int,
        worker: Optional[Worker] = None,
    ) -> List[int]:
        """Advance each instance by up to ``activity_count`` activities.

        Every step completes the instance's first activated activity with
        the outputs :meth:`outputs_for` generates.  The compiled kernel is
        looked up per step, so a case whose schema changes mid-batch (the
        touch listener adopting a rollout) continues on the new one.
        Returns the per-instance executed counts in input order.
        """
        results: List[int] = []
        for instance in instances:
            executed = 0
            while executed < activity_count and instance.status.is_active:
                activity_id = self._first_activated_compiled(instance)
                if activity_id is None:
                    break
                outputs = self.outputs_for(instance, activity_id, worker)
                self.complete_activity(instance, activity_id, outputs)
                executed += 1
            results.append(executed)
        return results

    def outputs_for(
        self, instance: ProcessInstance, activity_id: str, worker: Optional[Worker] = None
    ) -> Dict[str, Any]:
        """Outputs for completing ``activity_id`` the way scripted runs do.

        With a ``worker``, its produced values (filtered to the activity's
        write set); without one, plausible defaults per data type
        (booleans True so loops terminate).  Public so schedulers — the
        worklist manager's ``auto_outputs`` path, the worker pool — share
        exactly the generation :meth:`run_to_completion` uses.
        """
        schema = instance.execution_schema
        node = schema.node(activity_id)
        if worker is not None:
            produced = dict(worker(node, instance.data.values))
            writable = {edge.element for edge in schema.writes_of(activity_id)}
            return {k: v for k, v in produced.items() if k in writable}
        outputs: Dict[str, Any] = {}
        for data_edge in schema.writes_of(activity_id):
            element = schema.data_element(data_edge.element)
            if element.data_type is DataType.BOOLEAN:
                outputs[element.name] = True
            elif element.data_type is DataType.INTEGER:
                outputs[element.name] = 1
            elif element.data_type is DataType.FLOAT:
                outputs[element.name] = 1.0
            elif element.data_type is DataType.DOCUMENT:
                outputs[element.name] = {"produced_by": activity_id}
            else:
                outputs[element.name] = f"{element.name}_by_{activity_id}"
        return outputs

    # ------------------------------------------------------------------ #
    # marking propagation (the heart of the engine)
    # ------------------------------------------------------------------ #

    def propagate(self, instance: ProcessInstance) -> None:
        """Advance the marking until no further automatic step is possible.

        Re-examines every untouched node (full propagation, e.g. after
        migration or ad-hoc change).
        """
        self._propagate_kernel(instance, instance.execution_schema.index.step_kernel())

    def _propagate_kernel(
        self,
        instance: ProcessInstance,
        kernel: StepKernel,
        seeds: Optional[List[str]] = None,
    ) -> None:
        """Worklist propagation through the compiled stepping kernel.

        ``seeds`` — node ids whose in-edges changed since the marking was
        last at fixpoint; ``None`` re-examines every untouched node.

        The worklist visits nodes in the order a round-based full scan
        would (the reference oracle under ``tests/baselines``): within a
        round, candidate positions are processed in ascending index
        order; a node touched at position ``p`` joins the current round
        when its position is > ``p`` (the scan has not passed it yet),
        otherwise the next round.  This fixes the emitted event order.
        """
        schema = instance.execution_schema
        # Debug-mode stale-kernel guard: a kernel compiled for a previous
        # schema generation must never drive a marking of the current one
        # (positions may have shifted; decisions would be garbage).
        assert kernel.layout.generation == schema.generation, (
            f"stale step kernel: compiled for generation {kernel.layout.generation} "
            f"of schema {kernel.layout.schema_id!r}, but instance "
            f"{instance.instance_id!r} executes generation {schema.generation}"
        )
        marking = instance.marking
        view = marking.dense_view(kernel.layout)
        if view.stale:  # structural marking mutation since the view was built
            view = marking.dense_view(kernel.layout)
        deciders = kernel.deciders
        node_ids = kernel.node_ids
        is_activity = kernel.is_activity
        node_pos = kernel.layout.node_pos
        edge_values = view.edge_values
        untouched = view.untouched
        node_count = len(node_ids)

        if seeds is None:
            current = [p for p in range(node_count) if untouched[p]]
        else:
            current = sorted({node_pos[n] for n in seeds if n in node_pos})
        heapify(current)

        bound = (
            self.max_propagation_rounds
            if self.max_propagation_rounds is not None
            else kernel.round_bound
        )
        # nodes whose in-edges were signalled, or that were reset, by the
        # node just acted on: exactly those whose entry decision can change
        touched: List[str] = []
        rounds = 0
        while current:
            rounds += 1
            if rounds > bound:
                raise PropagationLimitError(
                    instance.instance_id, rounds - 1, [node_ids[p] for p in set(current)]
                )
            next_round: Set[int] = set()
            while current:
                p = heappop(current)
                if not untouched[p]:
                    continue
                decision = deciders[p](edge_values)
                if decision == 0:
                    continue
                del touched[:]
                if decision == 1:
                    if is_activity[p]:
                        node_id = node_ids[p]
                        marking.set_node_state(node_id, NodeState.ACTIVATED)
                        self._emit(EventType.ACTIVITY_ACTIVATED, instance, node=node_id)
                    else:
                        self._execute_structural(instance, p, kernel, marking, touched)
                elif decision == 2:
                    self._skip_node(instance, p, kernel, marking, touched)
                else:
                    raise self._join_conflict(instance, node_ids[p])
                if view is not marking.dense_view(kernel.layout):
                    # structural marking mutation mid-propagation (should
                    # not happen during normal stepping): restart dense
                    view = marking.dense_view(kernel.layout)
                    edge_values = view.edge_values
                    untouched = view.untouched
                for touched_id in touched:
                    tp = node_pos.get(touched_id)
                    if tp is None:
                        continue
                    if tp > p:
                        heappush(current, tp)
                    else:
                        next_round.add(tp)
            # a sorted list is a valid heap
            current = sorted(next_round)
        view.at_fixpoint = True

    def _signal_outgoing(
        self,
        marking: Marking,
        p: int,
        kernel: StepKernel,
        chosen_target: Optional[str],
        skipped: bool,
        touched: List[str],
    ) -> None:
        """Signal all outgoing control and sync edges of a finished node.

        The edge keys and targets were resolved at kernel compile time;
        every signalled edge's target is appended to ``touched``.
        """
        set_key = marking.set_edge_state_key
        if skipped:
            for key, target in kernel.out_control[p]:
                set_key(key, EdgeState.FALSE_SIGNALED)
                touched.append(target)
            for key, target in kernel.out_sync[p]:
                set_key(key, EdgeState.FALSE_SIGNALED)
                touched.append(target)
            return
        for key, target in kernel.out_control[p]:
            if chosen_target is not None and target != chosen_target:
                set_key(key, EdgeState.FALSE_SIGNALED)
            else:
                set_key(key, EdgeState.TRUE_SIGNALED)
            touched.append(target)
        for key, target in kernel.out_sync[p]:
            set_key(key, EdgeState.TRUE_SIGNALED)
            touched.append(target)

    def _execute_structural(
        self,
        instance: ProcessInstance,
        p: int,
        kernel: StepKernel,
        marking: Marking,
        touched: List[str],
    ) -> None:
        """Automatically execute a structural node that just became ready."""
        kind = kernel.action_kind[p]
        node_id = kernel.node_ids[p]
        if kind == ACTION_XOR_SPLIT:
            marking.set_node_state(node_id, NodeState.COMPLETED)
            chosen = self._choose_branch(instance, instance.execution_schema, node_id)
            self._signal_outgoing(marking, p, kernel, chosen, False, touched)
            return
        if kind == ACTION_LOOP_END:
            self._execute_loop_end(instance, p, kernel, marking, touched)
            return
        marking.set_node_state(node_id, NodeState.COMPLETED)
        if kind == ACTION_END:
            instance.status = InstanceStatus.COMPLETED
            self._emit(EventType.INSTANCE_COMPLETED, instance, node=node_id)
            return
        self._signal_outgoing(marking, p, kernel, None, False, touched)

    def _skip_node(
        self,
        instance: ProcessInstance,
        p: int,
        kernel: StepKernel,
        marking: Marking,
        touched: List[str],
    ) -> None:
        """Dead-path elimination: mark a node skipped and signal FALSE onwards."""
        node_id = kernel.node_ids[p]
        marking.set_node_state(node_id, NodeState.SKIPPED)
        self._emit(EventType.ACTIVITY_SKIPPED, instance, node=node_id)
        if kernel.is_activity[p]:
            instance.history.record(
                HistoryEventType.ACTIVITY_SKIPPED,
                node_id,
                iteration=self._iteration_of(instance, node_id),
            )
        if kernel.action_kind[p] == ACTION_END:
            return
        self._signal_outgoing(marking, p, kernel, None, True, touched)

    def _join_conflict(self, instance: ProcessInstance, node_id: str) -> JoinSignalConflictError:
        """Build the mixed-signal AND-join error with full edge context."""
        control_edges = instance.execution_schema.index.in_edges(node_id, EdgeType.CONTROL)
        marking = instance.marking
        states = ", ".join(
            f"{edge.source}->{edge.target}: {marking.edge_state_key(edge.key).value}"
            for edge in control_edges
        )
        return JoinSignalConflictError(
            f"AND-join {node_id!r} of instance {instance.instance_id!r} received "
            f"mixed branch signals ({states}); the join can neither fire nor be "
            f"skipped — the schema or a migration produced an inconsistent marking"
        )

    def _choose_branch(
        self, instance: ProcessInstance, schema: ProcessSchema, split_id: str
    ) -> str:
        """Evaluate XOR guards over the current data and pick a branch."""
        edges = schema.index.out_edges(split_id, EdgeType.CONTROL)
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
        if default_target is not None:
            return default_target
        # No guard held and no default branch: fall back to the first branch
        # (structural verification warns about this situation at buildtime).
        return edges[0].target

    def _execute_loop_end(
        self,
        instance: ProcessInstance,
        p: int,
        kernel: StepKernel,
        marking: Marking,
        touched: List[str],
    ) -> None:
        """Evaluate the loop condition: leave the loop or start a new iteration."""
        schema = instance.execution_schema
        node_id = kernel.node_ids[p]
        loop_start_id = schema.matching_loop_start(node_id)
        loop_edge = schema.edge(node_id, loop_start_id, EdgeType.LOOP)
        loop_start = schema.node(loop_start_id)
        max_iterations = int(loop_start.properties.get("max_iterations", 100))
        iteration = instance.loop_iterations.get(loop_start_id, 0)
        repeat = False
        if loop_edge.loop_condition is not None and iteration + 1 < max_iterations:
            try:
                repeat = evaluate_condition(loop_edge.loop_condition, instance.data.values)
            except ExpressionError:
                repeat = False
        if not repeat:
            marking.set_node_state(node_id, NodeState.COMPLETED)
            self._signal_outgoing(marking, p, kernel, None, False, touched)
            return
        self._reset_loop(instance, loop_start_id, touched)

    def _reset_loop(
        self, instance: ProcessInstance, loop_start_id: str, touched: List[str]
    ) -> None:
        """Start a new iteration: reset the loop body and supersede its history."""
        schema = instance.execution_schema
        index = schema.index
        body = index.loop_body(loop_start_id)
        instance.loop_iterations[loop_start_id] = instance.loop_iterations.get(loop_start_id, 0) + 1
        activities_in_body = [n for n in body if schema.node(n).is_activity]
        instance.history.supersede_activities(activities_in_body)
        reset_nodes = set(body) | {loop_start_id}
        for node_id in reset_nodes:
            instance.marking.set_node_state(node_id, NodeState.NOT_ACTIVATED)
        for edge in index.loop_internal_edges(loop_start_id):
            instance.marking.set_edge_state_key(edge.key, EdgeState.NOT_SIGNALED)
        # every reset node is untouched again with changed in-edges (or,
        # for the loop start, a still-TRUE in-edge): all need re-deciding
        touched.extend(reset_nodes)
        self._emit(EventType.LOOP_ITERATION, instance, node=loop_start_id)
        instance.history.record(
            HistoryEventType.LOOP_ITERATION_STARTED,
            loop_start_id,
            iteration=instance.loop_iterations[loop_start_id],
        )
        # The incoming control edge of the loop start is still TRUE-signalled,
        # so the next propagation round re-executes the loop start node.

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _iteration_of(self, instance: ProcessInstance, node_id: str) -> int:
        """Iteration counter of the innermost loop containing ``node_id``."""
        loop_start_id = instance.execution_schema.index.innermost_loop_start(node_id)
        if loop_start_id is None:
            return 0
        return instance.loop_iterations.get(loop_start_id, 0)

    def _require_active(self, instance: ProcessInstance) -> None:
        if not instance.status.is_active:
            raise EngineError(
                f"instance {instance.instance_id!r} is {instance.status.value} and cannot execute activities"
            )

    def _emit(
        self,
        event_type: EventType,
        instance: ProcessInstance,
        node: Optional[str],
        user: Optional[str] = None,
    ) -> None:
        self.event_log.append(EngineEvent(event_type, instance.instance_id, node, user))
