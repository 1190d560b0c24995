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
goes further: it runs one operation at a time, under its execution
lock).  The step path touches
no shared mutable state: all execution state lives on the instance, the
compiled :class:`~repro.schema.index.SchemaIndex` (and its step kernel)
is a snapshot shared read-only across threads — the kernel's per-activity
facts are filled in on first use, idempotently — and the engine itself
caches nothing.  Driving the *same* instance from two threads
without external locking is not supported.

There is one stepping path — the compiled
:class:`~repro.runtime.kernel.StepKernel`.  Its reference is the scan
oracle under ``tests/baselines``, which the ``kernel``-marked parity
suites compare it against.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.runtime.events import EngineEvent, EventType
from repro.runtime.expressions import ExpressionError, evaluate_condition
from repro.runtime.history import HistoryEventType
from repro.runtime.instance import ProcessInstance
from repro.runtime.kernel import (
    ACTION_END,
    ACTION_LOOP_END,
    ACTION_XOR_SPLIT,
    ActivityFacts,
    StepKernel,
)
from repro.runtime.markings import EDGE_CODE, NODE_CODE, NODE_STATES, Marking
from repro.runtime.states import ACTIVE_STATUSES, EdgeState, InstanceStatus, NodeState
from repro.schema.data import DataType
from repro.schema.edges import EdgeType
from repro.schema.graph import ProcessSchema
from repro.schema.index import SchemaIndex
from repro.schema.nodes import Node


# the marking's state codes the step path writes and tests (see markings.py)
_ACTIVATED = NODE_CODE[NodeState.ACTIVATED]
_RUNNING = NODE_CODE[NodeState.RUNNING]
_SUSPENDED = NODE_CODE[NodeState.SUSPENDED]
_COMPLETED = NODE_CODE[NodeState.COMPLETED]
_SKIPPED = NODE_CODE[NodeState.SKIPPED]
_TRUE = EDGE_CODE[EdgeState.TRUE_SIGNALED]
_FALSE = EDGE_CODE[EdgeState.FALSE_SIGNALED]

# scripted default output per data type value; documents and strings are
# built per activity in ProcessEngine.outputs_for
_DEFAULT_OUTPUT = {
    DataType.BOOLEAN.value: True,
    DataType.INTEGER.value: 1,
    DataType.FLOAT.value: 1.0,
}


class EngineError(ReproError):
    """Raised when an instance is driven in an illegal way."""


class InstanceIdInUseError(EngineError):
    """A case was to be started or adopted under an id another case holds.

    Its own type so that a caller allocating ids (the shard router, whose
    counter starts over when it restarts) can tell a collision from any
    other refusal and retry with the next id.
    """


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


class ProcessEngine:
    """Executes process instances on (verified) process schemas."""

    def __init__(self, max_propagation_rounds: Optional[int] = None) -> None:
        #: Optional sink of every :class:`EngineEvent` this engine and the
        #: change managers driving it report (:meth:`emit`).  The engine
        #: keeps none of them: without a listener an event is not even
        #: built.  The façade installs its bus here.
        self.event_listener: Optional[Callable[[EngineEvent], None]] = None
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
        #: completed activity is one notification.  The durability layer
        #: journals each as one typed WAL record, committed with the rest
        #: of the calling operation's records; unlike the event listener
        #: the hook receives the *actual outputs* written by the step, so a
        #: crash-recovery replay reproduces the exact data context.
        self.step_listener: Optional[Callable[[str, ProcessInstance, str, Optional[Dict[str, Any]], Optional[str]], None]] = None
        #: Optional fail-fast check run on the outputs of a completing
        #: activity *before* any state is mutated.  The durability layer
        #: installs a JSON-serialisability check here: an output the
        #: write-ahead log cannot record must reject the step up front,
        #: not diverge the journal from an already-committed transition.
        self.step_outputs_validator: Optional[Callable[[Mapping[str, Any]], None]] = None

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
        emit = self._step_events()
        if emit is not None:
            emit(EngineEvent(EventType.INSTANCE_CREATED, instance_id))
        kernel, index = self._kernel_of(instance)
        self._propagate(instance, kernel, index, None, emit)
        return instance

    def activated_activities(self, instance: ProcessInstance) -> List[str]:
        """Activity ids the user could start right now (worklist content)."""
        return instance.activated_activities()

    def _kernel_of(self, instance: ProcessInstance) -> Tuple[StepKernel, SchemaIndex]:
        """The compiled kernel of the instance's execution schema and the
        index it was compiled from, with the instance's marking on the
        kernel's layout.

        The one place a marking changes coordinates: a case whose schema
        was mutated in place, or swapped under a marking built elsewhere,
        is re-laid by name before the kernel reads it by position.  An
        engine call resolves a case once and carries the pair through
        that case's steps; no pair outlives the call.
        """
        index = instance.execution_schema.index
        kernel = index.step_kernel()
        if instance.marking.layout is not kernel.layout:
            instance.marking.lay_onto(kernel.layout)
        return kernel, index

    def _locate(
        self, instance: ProcessInstance, node_id: str
    ) -> Tuple[StepKernel, SchemaIndex, int, ActivityFacts]:
        """Kernel, index, position and facts of ``node_id`` — a step's one lookup by name."""
        kernel, index = self._kernel_of(instance)
        position = kernel.layout.node_pos.get(node_id)
        if position is None:
            instance.execution_schema.node(node_id)  # raises: unknown node
        return kernel, index, position, kernel.facts_of(position, index)

    def _locate_activity(
        self, instance: ProcessInstance, activity_id: str
    ) -> Tuple[StepKernel, SchemaIndex, int, ActivityFacts]:
        """:meth:`_locate` for an activity operation: the case must be active
        and the node an activity."""
        self._require_active(instance)
        located = self._locate(instance, activity_id)
        if not located[0].is_activity[located[2]]:
            raise EngineError(f"{activity_id!r} is not an activity node")
        return located

    def _step_events(self) -> Optional[Callable[[EngineEvent], None]]:
        """Where this operation's step-path events go: the listener, or ``None``.

        Asked once per engine operation, which then builds an
        :class:`EngineEvent` only if the answer is not ``None``.  A
        listener bound to an object that answers ``wants_step_events()`` —
        the façade's bus: does any subscriber want the ``engine``
        category? — is asked; any other listener hears every event.
        """
        listener = self.event_listener
        if listener is None:
            return None
        wants = getattr(getattr(listener, "__self__", None), "wants_step_events", None)
        if wants is not None and not wants():
            return None
        return listener

    def start_activity(
        self, instance: ProcessInstance, activity_id: str, user: Optional[str] = None
    ) -> None:
        """Move an activated activity to RUNNING and log the start event."""
        _, _, position, facts = self._locate_activity(instance, activity_id)
        code = instance.marking.nodes[position]
        if code != _ACTIVATED:
            raise EngineError(
                f"activity {activity_id!r} cannot be started from state "
                f"{NODE_STATES[code].value!r}"
            )
        self._begin_activity(instance, position, facts, user, self._step_events())
        if self.step_listener is not None:
            self.step_listener("start", instance, activity_id, None, user)

    def _begin_activity(
        self,
        instance: ProcessInstance,
        position: int,
        facts: ActivityFacts,
        user: Optional[str],
        emit: Optional[Callable[[EngineEvent], None]],
    ) -> None:
        """The start transition of an ACTIVATED activity, unannounced.

        :meth:`start_activity` is acknowledged on its own, so it tells the
        step listener; the implicit start inside :meth:`complete_activity`
        does not — it is journaled only as part of the ``complete``
        notification's one record, which a replay turns back into this
        same transition.
        """
        activity_id, reads, _, _, loop_start = facts
        instance.marking.nodes[position] = _RUNNING
        data = instance.data
        instance.history.record(
            HistoryEventType.ACTIVITY_STARTED,
            activity_id,
            iteration=instance.loop_iterations.get(loop_start, 0) if loop_start else 0,
            values={element: data.get(element) for element in reads},
            user=user,
        )
        if emit is not None:
            emit(EngineEvent(EventType.ACTIVITY_STARTED, instance.instance_id, activity_id, user))

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
        kernel, index, position, facts = self._locate_activity(instance, activity_id)
        writable = facts[2]
        outputs = dict(outputs or {})
        unknown = [element for element in outputs if element not in writable]
        if unknown:
            raise EngineError(
                f"activity {activity_id!r} has no write access to {sorted(unknown)!r}"
            )
        self._complete(instance, kernel, index, position, facts, outputs, user, self._step_events())

    def complete_scripted(
        self,
        instance: ProcessInstance,
        activity_id: str,
        worker: Optional[Worker] = None,
        user: Optional[str] = None,
    ) -> None:
        """Complete ``activity_id`` with the outputs :meth:`outputs_for` generates.

        :meth:`outputs_for` followed by :meth:`complete_activity`, with
        the case and the activity looked up once — what the worklist
        manager's ``auto_outputs`` path (and so the worker pool) runs.
        """
        kernel, index, position, facts = self._locate_activity(instance, activity_id)
        outputs = self._outputs(instance, kernel, position, facts, worker)
        self._complete(instance, kernel, index, position, facts, outputs, user, self._step_events())

    def _complete(
        self,
        instance: ProcessInstance,
        kernel: StepKernel,
        index: SchemaIndex,
        position: int,
        facts: ActivityFacts,
        outputs: Dict[str, Any],
        user: Optional[str],
        emit: Optional[Callable[[EngineEvent], None]],
    ) -> None:
        """The completion of a located activity whose outputs it may write.

        ``outputs`` is a fresh dict within the activity's write set; the
        step listener receives it as is.
        """
        activity_id, loop_start = facts[0], facts[4]
        if outputs and self.step_outputs_validator is not None:
            # before any state moves — including the implicit start below —
            # so a rejected step leaves instance and journal untouched
            try:
                self.step_outputs_validator(outputs)
            except (TypeError, ValueError) as exc:
                raise EngineError(
                    f"activity {activity_id!r} outputs cannot be journaled: {exc}"
                ) from exc
        marking = instance.marking
        code = marking.nodes[position]
        if code == _ACTIVATED:
            self._begin_activity(instance, position, facts, user, emit)
        elif code != _RUNNING and code != _SUSPENDED:
            raise EngineError(
                f"activity {activity_id!r} cannot be completed from state "
                f"{NODE_STATES[code].value!r}"
            )
        iteration = instance.loop_iterations.get(loop_start, 0) if loop_start else 0
        for element, value in outputs.items():
            instance.data.write(element, value, writer=activity_id, iteration=iteration)
        marking.nodes[position] = _COMPLETED
        instance.history.record(
            HistoryEventType.ACTIVITY_COMPLETED,
            activity_id,
            iteration=iteration,
            values=outputs,
            user=user,
        )
        if emit is not None:
            emit(EngineEvent(EventType.ACTIVITY_COMPLETED, instance.instance_id, activity_id, user))
        # signal the out-edges and re-propagate; a settled marking needs only
        # the signalled targets re-examined — O(affected cascade), not O(schema)
        touched: List[int] = []
        settled = marking.settled
        self._signal_outgoing(marking.edges, kernel, position, _TRUE, -1, touched)
        self._propagate(instance, kernel, index, touched if settled else None, emit)
        if self.step_listener is not None:
            # after propagation: the listener journals the step only once the
            # whole transition (outputs, marking advance) is committed
            self.step_listener("complete", instance, activity_id, outputs, user)

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
        emit = self._step_events()
        if emit is not None:
            emit(EngineEvent(EventType.INSTANCE_ABORTED, instance.instance_id))

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

        Every step completes the instance's first activated activity (in
        layout order) with the outputs :meth:`outputs_for` generates, on
        the compiled kernel of the instance's execution schema.  A case's
        kernel and index are resolved once and carried through its steps.
        Returns the per-instance executed counts in input order.
        """
        results: List[int] = []
        emit = self._step_events()
        for instance in instances:
            executed = 0
            if activity_count > 0 and instance.status in ACTIVE_STATUSES:
                kernel, index = self._kernel_of(instance)
                nodes = instance.marking.nodes
                is_activity = kernel.is_activity
                while True:
                    position = nodes.find(_ACTIVATED)
                    while position != -1 and not is_activity[position]:
                        position = nodes.find(_ACTIVATED, position + 1)
                    if position == -1:
                        break
                    facts = kernel.facts_of(position, index)
                    outputs = self._outputs(instance, kernel, position, facts, worker)
                    self._complete(instance, kernel, index, position, facts, outputs, None, emit)
                    executed += 1
                    if executed == activity_count or instance.status not in ACTIVE_STATUSES:
                        break
            results.append(executed)
        return results

    def outputs_for(
        self, instance: ProcessInstance, activity_id: str, worker: Optional[Worker] = None
    ) -> Dict[str, Any]:
        """Outputs for completing ``activity_id`` the way scripted runs do.

        With a ``worker``, its produced values (filtered to the activity's
        write set); without one, plausible defaults per data type
        (booleans True so loops terminate).  Public so schedulers share
        exactly the generation :meth:`run_to_completion` uses;
        :meth:`complete_scripted` generates and completes in one lookup.
        """
        kernel, _, position, facts = self._locate(instance, activity_id)
        return self._outputs(instance, kernel, position, facts, worker)

    @staticmethod
    def _outputs(
        instance: ProcessInstance,
        kernel: StepKernel,
        position: int,
        facts: ActivityFacts,
        worker: Optional[Worker],
    ) -> Dict[str, Any]:
        """:meth:`outputs_for` of a located activity."""
        activity_id, _, writes, write_types, _ = facts
        if worker is not None:
            produced = dict(worker(kernel.nodes[position], instance.data.values))
            return {k: v for k, v in produced.items() if k in writes}
        outputs: Dict[str, Any] = {}
        for element, data_type in zip(writes, write_types):
            if data_type in _DEFAULT_OUTPUT:
                outputs[element] = _DEFAULT_OUTPUT[data_type]
            elif data_type == DataType.DOCUMENT.value:
                outputs[element] = {"produced_by": activity_id}
            else:
                outputs[element] = f"{element}_by_{activity_id}"
        return outputs

    # ------------------------------------------------------------------ #
    # marking propagation (the heart of the engine)
    # ------------------------------------------------------------------ #

    def propagate(self, instance: ProcessInstance) -> None:
        """Advance the marking until no further automatic step is possible.

        Re-examines every untouched node (full propagation, e.g. after
        rollback).
        """
        kernel, index = self._kernel_of(instance)
        self._propagate(instance, kernel, index, None, self._step_events())

    def _propagate_kernel(
        self,
        instance: ProcessInstance,
        kernel: StepKernel,
        seeds: Optional[List[int]] = None,
    ) -> None:
        """:meth:`_propagate` with ``kernel`` over the instance's execution
        schema, as its own operation (state adaptation's seeded entry)."""
        self._propagate(
            instance, kernel, instance.execution_schema.index, seeds, self._step_events()
        )

    def _propagate(
        self,
        instance: ProcessInstance,
        kernel: StepKernel,
        index: SchemaIndex,
        seeds: Optional[List[int]],
        emit: Optional[Callable[[EngineEvent], None]],
    ) -> None:
        """Worklist propagation through the compiled stepping kernel.

        ``seeds`` — positions of the nodes whose in-edges changed, or that
        were reset (state adaptation), since the marking was last settled;
        ``None`` re-examines every untouched node.  ``index`` is the index
        ``kernel`` was compiled from; ``emit`` receives the step-path
        events, ``None`` builds none.

        The worklist visits nodes in the order a round-based full scan
        would (the reference oracle under ``tests/baselines``): within a
        round, candidate positions are processed in ascending index
        order; a node touched at position ``p`` joins the current round
        when its position is > ``p`` (the scan has not passed it yet),
        otherwise the next round.  This fixes the emitted event order.
        """
        marking = instance.marking
        if marking.layout is not kernel.layout:
            # positions may have shifted; decisions would be garbage
            raise EngineError(
                f"stale step kernel: compiled for {kernel.layout!r}, but the marking of "
                f"instance {instance.instance_id!r} lives on {marking.layout!r}"
            )
        marking.settled = False  # until this pass has run to quiescence
        deciders = kernel.deciders
        node_ids = kernel.node_ids
        is_activity = kernel.is_activity
        nodes = marking.nodes
        edges = marking.edges

        # ascending, so already a valid heap
        if seeds is None:
            current = [p for p, code in enumerate(nodes) if not code]
        else:
            current = sorted(set(seeds))

        bound = (
            self.max_propagation_rounds
            if self.max_propagation_rounds is not None
            else kernel.round_bound
        )
        # positions of the nodes whose in-edges were signalled, or that were
        # reset, by the node just acted on: exactly those whose entry
        # decision can change
        touched: List[int] = []
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
                if nodes[p]:
                    continue
                decision = deciders[p](edges)
                if decision == 0:
                    continue
                del touched[:]
                if decision == 1:
                    if is_activity[p]:
                        nodes[p] = _ACTIVATED
                        if emit is not None:
                            emit(EngineEvent(EventType.ACTIVITY_ACTIVATED, instance.instance_id, node_ids[p]))
                    else:
                        self._execute_structural(instance, p, kernel, index, marking, touched, emit)
                elif decision == 2:
                    self._skip_node(instance, p, kernel, index, marking, touched, emit)
                else:
                    raise self._join_conflict(instance, node_ids[p])
                for tp in touched:
                    if tp > p:
                        heappush(current, tp)
                    else:
                        next_round.add(tp)
            current = sorted(next_round)
        marking.settled = True

    @staticmethod
    def _signal_outgoing(
        edges: bytearray, kernel: StepKernel, p: int, signal: int, chosen: int, touched: List[int]
    ) -> None:
        """Write ``signal`` to all outgoing control and sync edges of a finished node.

        ``chosen`` is the target position an XOR split decided for (its
        other control edges get FALSE), -1 otherwise.  Edge and target
        positions were resolved at kernel compile time; every signalled
        edge's target is appended to ``touched``.
        """
        for edge, target in kernel.out_control[p]:
            edges[edge] = signal if chosen < 0 or target == chosen else _FALSE
            touched.append(target)
        for edge, target in kernel.out_sync[p]:
            edges[edge] = signal
            touched.append(target)

    def _execute_structural(
        self,
        instance: ProcessInstance,
        p: int,
        kernel: StepKernel,
        index: SchemaIndex,
        marking: Marking,
        touched: List[int],
        emit: Optional[Callable[[EngineEvent], None]],
    ) -> None:
        """Automatically execute a structural node that just became ready."""
        kind = kernel.action_kind[p]
        if kind == ACTION_LOOP_END:
            self._execute_loop_end(instance, p, kernel, index, marking, touched, emit)
            return
        marking.nodes[p] = _COMPLETED
        if kind == ACTION_END:
            instance.status = InstanceStatus.COMPLETED
            if emit is not None:
                emit(EngineEvent(EventType.INSTANCE_COMPLETED, instance.instance_id, kernel.node_ids[p]))
            return
        chosen = self._choose_branch(instance, kernel, index, p) if kind == ACTION_XOR_SPLIT else -1
        self._signal_outgoing(marking.edges, kernel, p, _TRUE, chosen, touched)

    def _skip_node(
        self,
        instance: ProcessInstance,
        p: int,
        kernel: StepKernel,
        index: SchemaIndex,
        marking: Marking,
        touched: List[int],
        emit: Optional[Callable[[EngineEvent], None]],
    ) -> None:
        """Dead-path elimination: mark a node skipped and signal FALSE onwards."""
        node_id = kernel.node_ids[p]
        marking.nodes[p] = _SKIPPED
        if emit is not None:
            emit(EngineEvent(EventType.ACTIVITY_SKIPPED, instance.instance_id, node_id))
        if kernel.is_activity[p]:
            loop_start = kernel.facts_of(p, index)[4]
            instance.history.record(
                HistoryEventType.ACTIVITY_SKIPPED,
                node_id,
                iteration=instance.loop_iterations.get(loop_start, 0) if loop_start else 0,
            )
        if kernel.action_kind[p] == ACTION_END:
            return
        self._signal_outgoing(marking.edges, kernel, p, _FALSE, -1, touched)

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
        self, instance: ProcessInstance, kernel: StepKernel, index: SchemaIndex, p: int
    ) -> int:
        """Evaluate XOR guards over the current data; the chosen target's position."""
        edges = index.out_edges(kernel.node_ids[p], EdgeType.CONTROL)
        # out_control[p] was compiled from the same edge list, in the same order
        targets = [target for _, target in kernel.out_control[p]]
        default_target: Optional[int] = None
        for edge, target in zip(edges, targets):
            if edge.guard is None:
                default_target = target
                continue
            try:
                if evaluate_condition(edge.guard, instance.data.values):
                    return target
            except ExpressionError:
                continue
        if default_target is not None:
            return default_target
        # No guard held and no default branch: fall back to the first branch
        # (structural verification warns about this situation at buildtime).
        return targets[0]

    def _execute_loop_end(
        self,
        instance: ProcessInstance,
        p: int,
        kernel: StepKernel,
        index: SchemaIndex,
        marking: Marking,
        touched: List[int],
        emit: Optional[Callable[[EngineEvent], None]],
    ) -> None:
        """Evaluate the loop condition: leave the loop, or reset its body and
        supersede its history for a new iteration."""
        schema = instance.execution_schema
        node_id = kernel.node_ids[p]
        loop_start_id = index.matching_loop_start(node_id)
        loop_edge = schema.edge(node_id, loop_start_id, EdgeType.LOOP)
        max_iterations = int(schema.node(loop_start_id).properties.get("max_iterations", 100))
        iteration = instance.loop_iterations.get(loop_start_id, 0)
        repeat = False
        if loop_edge.loop_condition is not None and iteration + 1 < max_iterations:
            try:
                repeat = evaluate_condition(loop_edge.loop_condition, instance.data.values)
            except ExpressionError:
                repeat = False
        if not repeat:
            marking.nodes[p] = _COMPLETED
            self._signal_outgoing(marking.edges, kernel, p, _TRUE, -1, touched)
            return
        body = index.loop_body(loop_start_id)
        instance.loop_iterations[loop_start_id] = iteration + 1
        instance.history.supersede_activities([n for n in body if schema.node(n).is_activity])
        node_pos = kernel.layout.node_pos
        for reset_id in set(body) | {loop_start_id}:
            marking.set_node_state(reset_id, NodeState.NOT_ACTIVATED)
            # untouched again with changed in-edges (or, for the loop start,
            # a still-TRUE in-edge, so the next round re-executes it)
            touched.append(node_pos[reset_id])
        for edge in index.loop_internal_edges(loop_start_id):
            marking.set_edge_state_key(edge.key, EdgeState.NOT_SIGNALED)
        if emit is not None:
            emit(EngineEvent(EventType.LOOP_ITERATION, instance.instance_id, loop_start_id))
        instance.history.record(
            HistoryEventType.LOOP_ITERATION_STARTED, loop_start_id, iteration=iteration + 1
        )

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _require_active(self, instance: ProcessInstance) -> None:
        if instance.status not in ACTIVE_STATUSES:
            raise EngineError(
                f"instance {instance.instance_id!r} is {instance.status.value} and cannot execute activities"
            )

    def emit(self, event: EngineEvent) -> None:
        """Report ``event`` to :attr:`event_listener`, if one is set."""
        listener = self.event_listener
        if listener is not None:
            listener(event)
