"""Unit tests for instance markings."""

import pytest

from repro.runtime.markings import Marking
from repro.runtime.states import EdgeState, NodeState
from repro.schema.edges import EdgeType
from repro.schema.nodes import Node, NodeType


class TestInitialMarking:
    def test_all_nodes_not_activated(self, order_schema):
        marking = Marking.initial(order_schema)
        for node_id in order_schema.node_ids():
            assert marking.node_state(node_id) is NodeState.NOT_ACTIVATED

    def test_all_edges_not_signaled(self, order_schema):
        marking = Marking.initial(order_schema)
        for edge in order_schema.edges:
            if edge.is_loop:
                continue
            assert marking.edge_state(edge.source, edge.target, edge.edge_type) is EdgeState.NOT_SIGNALED

    def test_loop_edges_not_tracked(self, loop_schema):
        marking = Marking.initial(loop_schema)
        loop_edge = loop_schema.loop_edges()[0]
        assert (loop_edge.source, loop_edge.target, "loop") not in marking.edge_states


class TestAccessors:
    def test_unknown_node_defaults_to_not_activated(self, order_schema):
        marking = Marking.initial(order_schema)
        assert marking.node_state("anything") is NodeState.NOT_ACTIVATED
        assert marking.edge_state("any", "thing") is EdgeState.NOT_SIGNALED

    def test_set_and_get(self, order_schema):
        marking = Marking.initial(order_schema)
        marking.set_node_state("get_order", NodeState.RUNNING)
        assert marking.node_state("get_order") is NodeState.RUNNING

    def test_nodes_in_state(self, order_schema):  # answers come in layout order
        marking = Marking.initial(order_schema)
        marking.set_node_state("collect_data", NodeState.COMPLETED)
        marking.set_node_state("confirm_order", NodeState.ACTIVATED)
        marking.set_node_state("get_order", NodeState.COMPLETED)
        assert marking.completed_nodes() == ["get_order", "collect_data"]
        assert marking.activated_nodes() == ["confirm_order"]
        assert marking.nodes_in_state(NodeState.COMPLETED, NodeState.ACTIVATED) == [
            "get_order", "collect_data", "confirm_order",
        ]

    def test_started_nodes(self, order_schema):
        marking = Marking.initial(order_schema)
        marking.set_node_state("get_order", NodeState.RUNNING)
        marking.set_node_state("collect_data", NodeState.ACTIVATED)
        assert marking.started_nodes() == ["get_order"]

    def test_a_layout_does_not_grow(self, order_schema):
        marking = Marking.initial(order_schema)
        with pytest.raises(KeyError):
            marking.set_node_state("grafted", NodeState.ACTIVATED)
        with pytest.raises(KeyError):
            marking.set_edge_state("get_order", "grafted", EdgeState.TRUE_SIGNALED)
        assert "grafted" not in marking.node_states

    def test_node_and_edge_states_are_snapshots(self, order_schema):
        marking = Marking.initial(order_schema)
        marking.node_states["get_order"] = NodeState.COMPLETED
        marking.edge_states[("start", "get_order", "control")] = EdgeState.TRUE_SIGNALED
        assert marking.node_state("get_order") is NodeState.NOT_ACTIVATED
        assert marking.edge_state("start", "get_order") is EdgeState.NOT_SIGNALED

    def test_lay_onto_matches_by_name(self, order_schema):
        marking = Marking.initial(order_schema)
        marking.set_node_state("get_order", NodeState.COMPLETED)
        marking.set_edge_state("get_order", "collect_data", EdgeState.TRUE_SIGNALED)
        grown = order_schema.copy()
        grown.add_node(Node(node_id="late_addition", node_type=NodeType.ACTIVITY))
        grown.remove_edge("get_order", "collect_data")
        marking.settled = True
        marking.lay_onto(grown.index.marking_layout())
        assert marking.layout is grown.index.marking_layout()
        assert not marking.settled
        assert marking.node_state("get_order") is NodeState.COMPLETED
        assert marking.node_state("late_addition") is NodeState.NOT_ACTIVATED
        assert ("get_order", "collect_data", "control") not in marking.edge_states
        assert len(marking.nodes) == len(order_schema.node_ids()) + 1


class TestSettled:
    def test_only_what_can_re_arm_a_decision_clears_it(self, order_schema):
        marking = Marking.initial(order_schema)
        assert not marking.settled
        marking.settled = True
        marking.set_node_state("get_order", NodeState.RUNNING)
        assert marking.settled
        assert marking.copy().settled
        marking.set_node_state("get_order", NodeState.NOT_ACTIVATED)
        assert not marking.settled
        marking.settled = True
        marking.set_edge_state("start", "get_order", EdgeState.TRUE_SIGNALED)
        assert not marking.settled

    def test_it_is_no_part_of_the_value(self, order_schema):
        settled, unsettled = Marking.initial(order_schema), Marking.initial(order_schema)
        settled.settled = True
        layout = order_schema.index.marking_layout()
        assert settled.equivalent_to(unsettled)
        assert settled.to_dict() == unsettled.to_dict()
        assert settled.to_stored(layout) == unsettled.to_stored(layout)


class TestCompareSerialize:
    def test_copy_is_independent(self, order_schema):
        marking = Marking.initial(order_schema)
        marking.set_node_state("get_order", NodeState.RUNNING)
        clone = marking.copy()
        clone.set_node_state("get_order", NodeState.COMPLETED)
        assert marking.node_state("get_order") is NodeState.RUNNING

    def test_differences_empty_for_equal_markings(self, order_schema):
        first = Marking.initial(order_schema)
        second = Marking.initial(order_schema)
        assert first.differences(second) == []
        assert first.equivalent_to(second)

    def test_differences_reported(self, order_schema):
        first = Marking.initial(order_schema)
        second = Marking.initial(order_schema)
        second.set_node_state("get_order", NodeState.COMPLETED)
        second.set_edge_state("get_order", "collect_data", EdgeState.TRUE_SIGNALED)
        differences = first.differences(second)
        assert len(differences) == 2
        assert not first.equivalent_to(second)

    def test_roundtrip_serialization(self, order_schema):
        marking = Marking.initial(order_schema)
        marking.set_node_state("get_order", NodeState.COMPLETED)
        marking.set_edge_state("get_order", "collect_data", EdgeState.TRUE_SIGNALED)
        restored = Marking.from_dict(marking.to_dict())
        assert restored.equivalent_to(marking)
