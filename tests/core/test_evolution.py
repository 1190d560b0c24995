"""Tests for process types, versions and type changes."""

import pytest

from repro import AdeptSystem
from repro.core.adhoc import AdHocChangeError
from repro.core.changelog import ChangeLog
from repro.core.evolution import EvolutionError, ProcessType, TypeChange
from repro.core.operations import (
    DeleteActivity,
    InsertSyncEdge,
    ParallelInsertActivity,
    SerialInsertActivity,
)
from repro.schema.nodes import Node
from repro.schema.templates import sequential_process
from repro.workloads.order_process import order_type_change_v2


class TestTypeChange:
    def test_of_constructor(self):
        change = TypeChange.of(1, [DeleteActivity(activity_id="x")], comment="cleanup")
        assert change.from_version == 1
        assert change.to_version == 2
        assert len(change.operations) == 1

    def test_describe(self):
        change = order_type_change_v2()
        text = change.describe()
        assert "v1 -> v2" in text
        assert "serialInsert" in text

    def test_roundtrip_serialization(self):
        change = order_type_change_v2()
        restored = TypeChange.from_dict(change.to_dict())
        assert restored.from_version == 1
        assert len(restored.operations) == 2


class TestProcessType:
    def test_initial_version(self, order_schema):
        process_type = ProcessType("online_order", order_schema)
        assert process_type.versions == [1]
        assert process_type.latest_version == 1
        assert process_type.latest_schema is order_schema

    def test_requires_name(self):
        with pytest.raises(EvolutionError):
            ProcessType("")

    def test_no_version_yet(self):
        process_type = ProcessType("empty")
        with pytest.raises(EvolutionError):
            _ = process_type.latest_version

    def test_release_new_version(self, order_schema):
        process_type = ProcessType("online_order", order_schema)
        new_schema = process_type.release_new_version(order_type_change_v2())
        assert new_schema.version == 2
        assert new_schema.has_node("send_questions")
        assert process_type.versions == [1, 2]
        assert process_type.latest_schema is new_schema
        # the original version remains untouched
        assert not process_type.schema_for(1).has_node("send_questions")

    def test_change_into_recorded(self, order_schema):
        process_type = ProcessType("online_order", order_schema)
        change = order_type_change_v2()
        process_type.release_new_version(change)
        assert process_type.change_into(2) is change
        assert process_type.change_into(1) is None

    def test_release_requires_latest_version(self, order_schema):
        process_type = ProcessType("online_order", order_schema)
        process_type.release_new_version(order_type_change_v2())
        with pytest.raises(EvolutionError):
            process_type.release_new_version(order_type_change_v2())  # still from_version=1

    def test_release_rejects_inapplicable_change(self, order_schema):
        process_type = ProcessType("online_order", order_schema)
        broken = TypeChange.of(1, [DeleteActivity(activity_id="nonexistent")])
        with pytest.raises(EvolutionError):
            process_type.release_new_version(broken)

    def test_release_rejects_incorrect_result(self, order_schema):
        process_type = ProcessType("online_order", order_schema)
        # two sync edges that close a deadlock-causing cycle
        broken = TypeChange.of(
            1,
            [
                InsertSyncEdge(source="confirm_order", target="compose_order"),
                InsertSyncEdge(source="pack_goods", target="confirm_order"),
            ],
        )
        with pytest.raises(EvolutionError):
            process_type.release_new_version(broken)
        assert process_type.versions == [1]

    def test_chained_releases(self, order_schema):
        process_type = ProcessType("online_order", order_schema)
        process_type.release_new_version(order_type_change_v2())
        third = TypeChange.of(
            2,
            [SerialInsertActivity(activity=Node(node_id="invoice"), pred="pack_goods", succ="and_join_fulfil_2")],
        )
        schema_v3 = process_type.release_new_version(third)
        assert schema_v3.version == 3
        assert schema_v3.has_node("send_questions") and schema_v3.has_node("invoice")

    def test_add_version_must_be_sequential(self, order_schema):
        process_type = ProcessType("online_order", order_schema)
        skipping = order_schema.copy(schema_id="v5", version=5)
        with pytest.raises(EvolutionError):
            process_type.add_version(skipping)

    def test_schema_for_unknown_version(self, order_schema):
        process_type = ProcessType("online_order", order_schema)
        with pytest.raises(EvolutionError):
            process_type.schema_for(9)


class TestReusedBlockIds:
    """A parallel insert's AND split/join outlive a later delete of its activity."""

    @staticmethod
    def _type_with_leftover_block(system):
        type_id = system.deploy(sequential_process(length=4)).type_id
        system.evolve(type_id, [ParallelInsertActivity(activity=Node(node_id="x"), parallel_to="step_2")])
        system.evolve(type_id, [DeleteActivity(activity_id="x")])
        assert system.type(type_id).schema().has_node("x__psplit")
        return type_id

    def test_evolve_refuses_a_reused_split_id(self):
        system = AdeptSystem()
        type_id = self._type_with_leftover_block(system)
        again = [ParallelInsertActivity(activity=Node(node_id="x"), parallel_to="step_3")]
        with pytest.raises(EvolutionError, match="x__psplit"):
            system.evolve(type_id, again)
        assert system.type(type_id).latest_version == 3

    def test_adhoc_change_refuses_a_reused_split_id(self):
        system = AdeptSystem()
        type_id = self._type_with_leftover_block(system)
        case = system.start(type_id)
        change = system.change(case.instance_id).parallel_insert("x", parallel_to="step_3")
        with pytest.raises(AdHocChangeError, match="node 'x__psplit' already exists"):
            change.apply()
        assert not case.is_biased

    def test_release_wraps_schema_errors(self, order_schema):
        """An apply that fails past the preconditions is an EvolutionError, not a SchemaError."""
        process_type = ProcessType("online_order", order_schema)
        twice = SerialInsertActivity(
            activity=Node(node_id="audit"), pred="get_order", succ="collect_data", reads=("x", "x")
        )
        with pytest.raises(EvolutionError, match="duplicate data edge"):
            process_type.release_new_version(TypeChange.of(1, [twice]))
        assert process_type.versions == [1]
