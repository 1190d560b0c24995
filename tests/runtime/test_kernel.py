"""Regression tests for the compiled stepping kernel and its bug-fix pack.

Covers the three propagation bugs fixed alongside the kernel:

* mixed TRUE/FALSE signals on an AND join raise :class:`JoinSignalConflictError`
  (naming the node and its edge states) instead of silently wedging,
* non-converging propagation raises :class:`PropagationLimitError` with the
  instance id, round count and the still-changing node set — with the round
  bound derived from schema size rather than a blind constant,
* a compiled kernel is never applied to a marking that lives on another
  layout (``EngineError``; the public step path re-lays such a marking by
  name first), and ad-hoc change rebuilds the kernel before re-propagating.
"""

import pytest

from repro.core.adhoc import AdHocChanger
from repro.core.operations import SerialInsertActivity
from repro.runtime.engine import (
    EngineError,
    JoinSignalConflictError,
    ProcessEngine,
    PropagationLimitError,
)
from repro.runtime.kernel import derive_round_bound
from repro.runtime.states import EdgeState, InstanceStatus, NodeState
from repro.schema import templates
from repro.schema.builder import SchemaBuilder
from repro.schema.edges import Edge, EdgeType
from repro.schema.graph import ProcessSchema
from repro.schema.nodes import Node, NodeType

from tests.baselines.scan_oracle import ScanOracle

pytestmark = pytest.mark.kernel


def _parallel_schema():
    builder = SchemaBuilder("mixed_join", name="mixed join regression")
    builder.activity("prepare")
    builder.parallel(
        [
            lambda seq: seq.activity("branch_a"),
            lambda seq: seq.activity("branch_b"),
        ]
    )
    builder.activity("wrap_up")
    return builder.build()


def _mixed_signal_instance(engine, schema):
    """An instance whose AND join sees one TRUE and one FALSE in-signal."""
    instance = engine.create_instance(schema, "mixed")
    join_id = next(
        node_id
        for node_id in schema.node_ids()
        if schema.node(node_id).node_type is NodeType.AND_JOIN
    )
    in_edges = schema.edges_to(join_id, EdgeType.CONTROL)
    assert len(in_edges) == 2
    instance.marking.set_edge_state_key(in_edges[0].key, EdgeState.TRUE_SIGNALED)
    instance.marking.set_edge_state_key(in_edges[1].key, EdgeState.FALSE_SIGNALED)
    return instance, join_id


def _pathological_loop_schema(max_iterations=10**6):
    """A loop of automatically executing nodes that repeats unconditionally.

    No activity ever interrupts propagation, and the loop condition is the
    constant ``True``: a single ``propagate`` call churns until the round
    bound trips.  Hand-built because the verifier rightly refuses it.
    """
    schema = ProcessSchema(schema_id="pathological_loop")
    nodes = [
        ("start", NodeType.START),
        ("loop_start", NodeType.LOOP_START),
        ("split", NodeType.AND_SPLIT),
        ("join", NodeType.AND_JOIN),
        ("loop_end", NodeType.LOOP_END),
        ("end", NodeType.END),
    ]
    for node_id, node_type in nodes:
        properties = {"max_iterations": max_iterations} if node_type is NodeType.LOOP_START else {}
        schema.add_node(
            Node(node_id=node_id, node_type=node_type, name=node_id, properties=properties)
        )
    chain = ["start", "loop_start", "split", "join", "loop_end", "end"]
    for source, target in zip(chain, chain[1:]):
        schema.add_edge(Edge(source=source, target=target, edge_type=EdgeType.CONTROL))
    schema.add_edge(
        Edge(
            source="loop_end",
            target="loop_start",
            edge_type=EdgeType.LOOP,
            loop_condition="True",
        )
    )
    return schema


class TestJoinSignalConflict:
    @pytest.mark.parametrize("make_engine", [ProcessEngine, ScanOracle])
    def test_mixed_and_join_is_reported(self, make_engine):
        """Kernel and oracle both name the join and its edge states."""
        engine = make_engine()
        instance, join_id = _mixed_signal_instance(engine, _parallel_schema())
        with pytest.raises(JoinSignalConflictError) as err:
            engine.propagate(instance)
        message = str(err.value)
        assert join_id in message
        assert instance.instance_id in message
        assert EdgeState.TRUE_SIGNALED.value in message
        assert EdgeState.FALSE_SIGNALED.value in message

    def test_consistent_signals_still_fire_the_join(self, engine):
        instance = engine.create_instance(_parallel_schema(), "clean")
        engine.run_to_completion(instance)
        assert instance.status is InstanceStatus.COMPLETED


class TestPropagationLimit:
    @pytest.mark.parametrize("make_engine", [ProcessEngine, ScanOracle])
    def test_non_convergence_is_reported(self, make_engine):
        engine = make_engine(max_propagation_rounds=50)
        with pytest.raises(PropagationLimitError) as err:
            engine.create_instance(_pathological_loop_schema(), "pathological")
        error = err.value
        assert error.instance_id == "pathological"
        assert error.rounds == 50
        assert error.changing_nodes
        message = str(error)
        assert "pathological" in message
        assert "50" in message
        assert any(node_id in message for node_id in ("loop_start", "split", "join", "loop_end"))

    def test_default_bound_is_derived_from_schema_size(self):
        engine = ProcessEngine()
        assert engine.max_propagation_rounds is None
        schema = templates.loop_process()
        bound = schema.index.propagation_round_bound()
        # never below the legacy constant, so no previously-working schema
        # can start failing; loop budgets push it above when needed
        assert bound >= 10_000

    def test_derived_bound_scales_with_loop_budget(self):
        small = derive_round_bound(node_count=10, depth=8, loop_budget=3)
        large = derive_round_bound(node_count=10, depth=8, loop_budget=20_000)
        assert small == 10_000
        assert large > 10_000
        assert large >= (8 + 2) * (20_000 + 1)

    def test_deep_loop_schema_still_converges_with_derived_bound(self):
        engine = ProcessEngine()
        schema = templates.loop_process(body_length=3, max_iterations=40)
        instance = engine.create_instance(schema, "deep-loop")
        engine.run_to_completion(instance)
        assert instance.status is InstanceStatus.COMPLETED


class TestKernelStaleness:
    def test_a_kernel_never_reads_a_marking_on_another_layout(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "case")
        order_schema.add_node(Node(node_id="late_addition", node_type=NodeType.ACTIVITY))
        new_kernel = order_schema.index.step_kernel()
        assert instance.marking.layout is not new_kernel.layout
        with pytest.raises(EngineError, match="stale step kernel"):
            engine._propagate_kernel(instance, new_kernel)

    def test_schema_mutated_in_place_re_lays_the_marking_by_name(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "case")
        engine.complete_activity(instance, "get_order")
        before = instance.marking.node_states
        order_schema.add_node(Node(node_id="late_addition", node_type=NodeType.ACTIVITY))
        engine.complete_activity(instance, "collect_data")
        assert instance.marking.layout is order_schema.index.step_kernel().layout
        assert instance.marking.node_state("get_order") is before["get_order"]
        assert instance.marking.node_state("late_addition") is NodeState.NOT_ACTIVATED
        engine.run_to_completion(instance)
        assert instance.status is InstanceStatus.COMPLETED

    def test_adhoc_change_rebuilds_kernel_before_repropagation(self, engine, order_schema):
        changer = AdHocChanger(engine)
        instance = engine.create_instance(order_schema, "case")
        engine.complete_activity(instance, "get_order")
        old_kernel = instance.execution_schema.index.step_kernel()
        changer.apply(
            instance,
            [
                SerialInsertActivity(
                    activity=Node(node_id="verify_address"),
                    pred="get_order",
                    succ="collect_data",
                )
            ],
        )
        new_kernel = instance.execution_schema.index.step_kernel()
        assert new_kernel is not old_kernel
        assert new_kernel.layout.generation == instance.execution_schema.generation
        engine.run_to_completion(instance)
        assert instance.status is InstanceStatus.COMPLETED
        assert "verify_address" in instance.completed_activities()


class TestPositionalKernel:
    def test_out_edges_are_edge_and_target_positions(self, order_schema):
        kernel = order_schema.index.step_kernel()
        layout = kernel.layout
        for position, node_id in enumerate(layout.node_ids):
            for edge_type, compiled in (
                (EdgeType.CONTROL, kernel.out_control[position]),
                (EdgeType.SYNC, kernel.out_sync[position]),
            ):
                assert [
                    (layout.edge_keys[edge], layout.node_ids[target]) for edge, target in compiled
                ] == [(e.key, e.target) for e in order_schema.edges_from(node_id, edge_type)]

    def test_activity_facts_are_compiled_on_first_step_and_shared_by_value(self, engine):
        schema = templates.online_order_process()
        kernel = schema.index.step_kernel()
        assert kernel.facts == [None] * len(kernel.node_ids)
        instance = engine.create_instance(schema, "case")
        engine.complete_activity(instance, "get_order", engine.outputs_for(instance, "get_order"))
        position = kernel.layout.node_pos["get_order"]
        assert [p for p, facts in enumerate(kernel.facts) if facts is not None] == [position]
        assert kernel.facts[position] == ("get_order", (), ("order",), ("document",), None)
        # an equal activity of another schema object (the next version) shares the tuple
        twin = templates.online_order_process()
        assert twin.index.step_kernel().facts_of(position, twin.index) is kernel.facts[position]

    def test_loop_body_activity_knows_its_loop(self):
        schema = templates.loop_process(body_length=2, max_iterations=5)
        kernel = schema.index.step_kernel()
        facts = kernel.facts_of(kernel.layout.node_pos["body_2"], schema.index)
        assert facts[4] == schema.index.innermost_loop_start("body_2") is not None
        assert facts[2] == ("done",) and facts[3] == ("boolean",)
