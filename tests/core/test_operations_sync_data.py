"""Tests for sync-edge and data-flow change operations."""

import pytest

from repro.core.operations import (
    AddDataEdge,
    AddDataElement,
    DeleteDataEdge,
    DeleteDataElement,
    DeleteSyncEdge,
    InsertSyncEdge,
    OperationError,
    SerialInsertActivity,
    operation_from_dict,
)
from repro.schema.data import DataAccess, DataElement, DataType
from repro.schema.edges import EdgeType
from repro.schema.nodes import Node
from repro.verification import verify_schema


class TestInsertSyncEdge:
    def operation(self):
        return InsertSyncEdge(source="confirm_order", target="pack_goods")

    def test_apply_adds_sync_edge(self, order_schema):
        changed = order_schema.copy()
        self.operation().apply_checked(changed)
        assert changed.has_edge("confirm_order", "pack_goods", EdgeType.SYNC)
        assert verify_schema(changed).is_correct

    def test_precondition_rejects_ordered_nodes(self, order_schema):
        operation = InsertSyncEdge(source="get_order", target="deliver_goods")
        assert operation.check_preconditions(order_schema)

    def test_precondition_rejects_duplicate(self, order_schema):
        changed = order_schema.copy()
        self.operation().apply_checked(changed)
        assert self.operation().check_preconditions(changed)

    def test_precondition_rejects_missing_nodes(self, order_schema):
        assert InsertSyncEdge(source="ghost", target="pack_goods").check_preconditions(order_schema)

    def test_compliance_target_not_started(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        engine.complete_activity(instance, "get_order")
        assert self.operation().compliance_conflicts(instance) == []

    def test_compliance_conflict_target_started_first(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        for activity in ("get_order", "collect_data", "compose_order", "pack_goods"):
            engine.complete_activity(instance, activity)
        # pack_goods completed before confirm_order even started
        conflicts = self.operation().compliance_conflicts(instance)
        assert conflicts and conflicts[0].kind.value == "state"

    def test_compliance_ok_when_history_already_ordered(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        for activity in ("get_order", "collect_data", "confirm_order", "compose_order", "pack_goods"):
            engine.complete_activity(instance, activity)
        # confirm_order completed before pack_goods started -> the recorded
        # history already satisfies the new ordering constraint
        assert self.operation().compliance_conflicts(instance) == []

    def test_inverse(self):
        assert isinstance(self.operation().inverse(), DeleteSyncEdge)

    def test_roundtrip_serialization(self):
        restored = operation_from_dict(self.operation().to_dict())
        assert isinstance(restored, InsertSyncEdge)
        assert restored.source == "confirm_order"


class TestDeleteSyncEdge:
    def test_apply(self, order_schema):
        changed = order_schema.copy()
        InsertSyncEdge(source="confirm_order", target="pack_goods").apply_checked(changed)
        DeleteSyncEdge(source="confirm_order", target="pack_goods").apply_checked(changed)
        assert not changed.has_edge("confirm_order", "pack_goods", EdgeType.SYNC)

    def test_precondition_requires_existing_edge(self, order_schema):
        assert DeleteSyncEdge(source="confirm_order", target="pack_goods").check_preconditions(order_schema)

    def test_always_compliant(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        engine.run_to_completion(instance)
        assert DeleteSyncEdge(source="a", target="b").compliance_conflicts(instance) == []


class TestDataElementOperations:
    def test_add_element(self, order_schema):
        changed = order_schema.copy()
        AddDataElement(element=DataElement(name="priority", data_type=DataType.INTEGER, default=1)).apply_checked(changed)
        assert changed.has_data_element("priority")

    def test_add_duplicate_rejected(self, order_schema):
        operation = AddDataElement(element=DataElement(name="order"))
        assert operation.check_preconditions(order_schema)

    def test_delete_element(self, order_schema):
        changed = order_schema.copy()
        AddDataElement(element=DataElement(name="scratch")).apply_checked(changed)
        DeleteDataElement(name="scratch").apply_checked(changed)
        assert not changed.has_data_element("scratch")

    def test_delete_element_with_mandatory_readers_rejected(self, order_schema):
        assert DeleteDataElement(name="order").check_preconditions(order_schema)

    def test_element_ops_always_instance_compliant(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        assert AddDataElement(element=DataElement(name="x")).compliance_conflicts(instance) == []
        assert DeleteDataElement(name="x").compliance_conflicts(instance) == []

    def test_roundtrip_serialization(self):
        operation = AddDataElement(element=DataElement(name="x", data_type=DataType.FLOAT))
        restored = operation_from_dict(operation.to_dict())
        assert restored.element.data_type is DataType.FLOAT


class TestDataEdgeOperations:
    def test_add_read_edge(self, order_schema):
        changed = order_schema.copy()
        AddDataEdge(activity="deliver_goods", element="customer", access=DataAccess.READ).apply_checked(changed)
        assert "deliver_goods" in changed.readers_of("customer")
        assert verify_schema(changed).is_correct

    def test_add_write_edge(self, order_schema):
        changed = order_schema.copy()
        AddDataEdge(activity="confirm_order", element="customer", access=DataAccess.WRITE).apply_checked(changed)
        assert "confirm_order" in changed.writers_of("customer")

    def test_add_duplicate_rejected(self, order_schema):
        operation = AddDataEdge(activity="get_order", element="order", access=DataAccess.WRITE)
        assert operation.check_preconditions(order_schema)

    def test_delete_edge(self, order_schema):
        changed = order_schema.copy()
        DeleteDataEdge(activity="deliver_goods", element="confirmation", access=DataAccess.READ).apply_checked(changed)
        assert "deliver_goods" not in changed.readers_of("confirmation")

    def test_delete_missing_edge_rejected(self, order_schema):
        operation = DeleteDataEdge(activity="get_order", element="shipment", access=DataAccess.READ)
        assert operation.check_preconditions(order_schema)

    def test_add_mandatory_read_to_started_activity_conflicts(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        engine.complete_activity(instance, "get_order")
        operation = AddDataEdge(activity="get_order", element="customer", access=DataAccess.READ)
        conflicts = operation.compliance_conflicts(instance)
        assert conflicts and conflicts[0].kind.value == "data"

    def test_add_read_satisfied_by_existing_value(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        engine.complete_activity(instance, "get_order", outputs={"order": {"id": 1}})
        operation = AddDataEdge(activity="get_order", element="order", access=DataAccess.READ)
        # duplicate schema-wise, but compliance-wise the value exists
        assert operation.compliance_conflicts(instance) == []

    def test_add_write_to_completed_activity_conflicts(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        engine.complete_activity(instance, "get_order")
        operation = AddDataEdge(activity="get_order", element="customer", access=DataAccess.WRITE)
        conflicts = operation.compliance_conflicts(instance)
        assert conflicts and conflicts[0].kind.value == "state"

    def test_add_edge_to_untouched_activity_compliant(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        operation = AddDataEdge(activity="deliver_goods", element="customer", access=DataAccess.READ)
        assert operation.compliance_conflicts(instance) == []

    def test_inverse_pair(self):
        add = AddDataEdge(activity="a", element="x", access=DataAccess.READ)
        delete = add.inverse()
        assert isinstance(delete, DeleteDataEdge)
        assert isinstance(delete.inverse(), AddDataEdge)

    def test_roundtrip_serialization(self):
        operation = AddDataEdge(activity="a", element="x", access=DataAccess.WRITE, mandatory=False)
        restored = operation_from_dict(operation.to_dict())
        assert restored.access is DataAccess.WRITE
        assert restored.mandatory is False


class TestRegistry:
    def test_unknown_operation_rejected(self):
        with pytest.raises(OperationError):
            operation_from_dict({"op": "does_not_exist"})


class TestMalformedPayloads:
    """A bad stored or wire payload is an ``OperationError`` naming the operation and the key."""

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"op": "serial_insert_activity", "activity": {"node_id": "x"}, "succ": "b"}, "pred"),
            ({"op": "delete_activity", "supply_values": {}}, "activity_id"),
            ({"op": "add_data_edge", "activity": "a", "element": "x", "access": "modify"}, "access"),
            (
                {"op": "serial_insert_activity", "activity": {"node_id": "x", "node_type": "gateway"},
                 "pred": "a", "succ": "b"},
                "activity",
            ),
            ({"op": "parallel_insert_activity", "activity": "x", "parallel_to": "a"}, "activity"),
            ({"op": "add_data_element", "element": ["amount"]}, "element"),
        ],
        ids=["missing_pred", "missing_activity_id", "unknown_access", "unknown_node_type",
             "activity_not_a_mapping", "element_not_a_mapping"],
    )
    def test_names_operation_and_key(self, payload, key):
        with pytest.raises(OperationError) as refused:
            operation_from_dict(payload)
        assert payload["op"] in str(refused.value)
        assert repr(key) in str(refused.value)


def test_required_constructor_argument_is_enforced():
    # a placeholder default used to yield an operation inserting after ""
    with pytest.raises(TypeError):
        SerialInsertActivity(activity=Node(node_id="x"), succ="b")
