"""The field-driven operation codec equals the hand-written reference, byte for byte.

``ChangeOperation.to_dict`` / ``from_dict`` derive every payload from the
operation's dataclass fields.  The payloads are stored — WAL records,
snapshots, biased instance records, shard wire frames — so they must be
exactly what the twelve hand-written pairs produced
(``tests/baselines/reference_operation_codec.py``).  For every operation
the strategies draw, of every class: the JSON bytes equal the reference's,
the payload decodes to an equal operation, and the reference decoder reads
the same payload to the same operation.  The goldens pin one payload per
class with non-default optional fields, and that an absent optional key
decodes to the field's default as the reference did.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.operations import (
    AddDataEdge,
    AddDataElement,
    ChangeActivityAttributes,
    ConditionalInsertActivity,
    DeleteActivity,
    DeleteDataEdge,
    DeleteDataElement,
    DeleteSyncEdge,
    InsertSyncEdge,
    MoveActivity,
    ParallelInsertActivity,
    SerialInsertActivity,
    operation_from_dict,
)
from repro.schema.data import DataAccess, DataElement, DataType
from repro.schema.nodes import Node

from tests.baselines.reference_operation_codec import reference_from_dict, reference_to_dict

from .strategies import DRAWERS, random_schemas

TIER1 = settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
STRESS = settings(
    max_examples=3000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def check_codec(operation) -> None:
    encoded = json.dumps(operation.to_dict())
    assert encoded == json.dumps(reference_to_dict(operation))
    payload = json.loads(encoded)
    assert operation_from_dict(payload) == operation
    assert reference_from_dict(payload) == operation


def check_every_class(data) -> None:
    schema = data.draw(random_schemas(), label="schema")
    for drawer in DRAWERS.values():
        check_codec(drawer(data, schema))


class TestCodecParity:
    @TIER1
    @given(data=st.data())
    def test_every_class(self, data):
        check_every_class(data)

    @pytest.mark.stress
    @STRESS
    @given(data=st.data())
    def test_every_class_stress(self, data):
        check_every_class(data)


GOLDEN = [
    pytest.param(
        SerialInsertActivity(
            activity=Node(node_id="audit", name="Audit", staff_assignment="clerk", duration=2.5),
            pred="a", succ="b", reads=("x",), writes=("y", "z"),
        ),
        '{"op": "serial_insert_activity", "activity": {"node_id": "audit", "node_type": "activity", '
        '"name": "Audit", "duration": 2.5, "staff_assignment": "clerk"}, "pred": "a", "succ": "b", '
        '"reads": ["x"], "writes": ["y", "z"]}',
        id="serial_insert",
    ),
    pytest.param(
        ParallelInsertActivity(
            activity=Node(node_id="scan", properties={"tier": 1}), parallel_to="pack", writes=("w",)
        ),
        '{"op": "parallel_insert_activity", "activity": {"node_id": "scan", "node_type": "activity", '
        '"name": "scan", "duration": 1.0, "properties": {"tier": 1}}, "parallel_to": "pack", '
        '"reads": [], "writes": ["w"]}',
        id="parallel_insert",
    ),
    pytest.param(
        ConditionalInsertActivity(
            activity=Node(node_id="check", application="erp"), pred="a", succ="b", guard=None,
            reads=("x",),
        ),
        '{"op": "conditional_insert_activity", "activity": {"node_id": "check", "node_type": "activity", '
        '"name": "check", "duration": 1.0, "application": "erp"}, "pred": "a", "succ": "b", '
        '"guard": null, "reads": ["x"], "writes": []}',
        id="conditional_insert_guard_none",
    ),
    pytest.param(
        DeleteActivity(activity_id="pack", supply_values={"weight": 3, "label": "none"}),
        '{"op": "delete_activity", "activity_id": "pack", "supply_values": {"weight": 3, "label": "none"}}',
        id="delete_activity_supply_values",
    ),
    pytest.param(
        MoveActivity(activity_id="pack", new_pred="a", new_succ="b"),
        '{"op": "move_activity", "activity_id": "pack", "new_pred": "a", "new_succ": "b"}',
        id="move_activity",
    ),
    pytest.param(
        InsertSyncEdge(source="a", target="b"),
        '{"op": "insert_sync_edge", "source": "a", "target": "b"}',
        id="insert_sync_edge",
    ),
    pytest.param(
        DeleteSyncEdge(source="b", target="a"),
        '{"op": "delete_sync_edge", "source": "b", "target": "a"}',
        id="delete_sync_edge",
    ),
    pytest.param(
        AddDataElement(
            element=DataElement(name="amount", data_type=DataType.FLOAT, default=0.0, description="order total")
        ),
        '{"op": "add_data_element", "element": {"name": "amount", "data_type": "float", "default": 0.0, '
        '"description": "order total"}}',
        id="add_data_element",
    ),
    pytest.param(
        DeleteDataElement(name="amount"),
        '{"op": "delete_data_element", "name": "amount"}',
        id="delete_data_element",
    ),
    pytest.param(
        AddDataEdge(activity="a", element="amount", access=DataAccess.WRITE, mandatory=False),
        '{"op": "add_data_edge", "activity": "a", "element": "amount", "access": "write", "mandatory": false}',
        id="add_data_edge_optional",
    ),
    pytest.param(
        DeleteDataEdge(activity="a", element="amount", access=DataAccess.READ),
        '{"op": "delete_data_edge", "activity": "a", "element": "amount", "access": "read"}',
        id="delete_data_edge",
    ),
    pytest.param(
        ChangeActivityAttributes(activity_id="a", role="manager"),
        '{"op": "change_activity_attributes", "activity_id": "a", "name": null, "role": "manager", '
        '"duration": null}',
        id="change_attributes_two_none",
    ),
]


class TestGoldenPayloads:
    @pytest.mark.parametrize("operation, golden", GOLDEN)
    def test_encodes_to_golden(self, operation, golden):
        assert json.dumps(operation.to_dict()) == golden
        assert json.dumps(reference_to_dict(operation)) == golden

    @pytest.mark.parametrize("operation, golden", GOLDEN)
    def test_golden_decodes(self, operation, golden):
        assert operation_from_dict(json.loads(golden)) == operation
        assert reference_from_dict(json.loads(golden)) == operation

    @pytest.mark.parametrize("operation, golden", GOLDEN)
    def test_absent_optional_key_decodes_to_default(self, operation, golden):
        payload = json.loads(golden)
        for key in list(payload)[1:]:
            reduced = {k: v for k, v in payload.items() if k != key}
            try:
                expected = reference_from_dict(reduced)
            except KeyError:
                continue  # required: tests/core/test_operations_sync_data.py::TestMalformedPayloads
            assert operation_from_dict(reduced) == expected
