"""The operation payload codec the field-driven ``ChangeOperation`` codec is pinned against.

Change operations are persisted as these payloads — in WAL records,
snapshots, biased instance records and on the shard wire — so their bytes
must never drift.  This module keeps the twelve hand-written
``to_dict`` / ``from_dict`` pairs the operation classes carried before one
field-driven codec on ``ChangeOperation`` replaced them, verbatim up to
``self`` → ``op`` and ``cls`` → the class.  It shares no code with the
codec under test beyond the classes' constructors and the ``Node`` /
``DataElement`` codecs (``tests/properties/test_property_operation_codec.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Tuple

from repro.core.operations import (
    AddDataEdge,
    AddDataElement,
    ChangeActivityAttributes,
    ChangeOperation,
    ConditionalInsertActivity,
    DeleteActivity,
    DeleteDataEdge,
    DeleteDataElement,
    DeleteSyncEdge,
    InsertSyncEdge,
    MoveActivity,
    ParallelInsertActivity,
    SerialInsertActivity,
)
from repro.schema.data import DataAccess, DataElement
from repro.schema.nodes import Node


def _serial_insert_to_dict(op: SerialInsertActivity) -> Dict[str, Any]:
    return {
        "op": op.operation_name,
        "activity": op.activity.to_dict(),
        "pred": op.pred,
        "succ": op.succ,
        "reads": list(op.reads),
        "writes": list(op.writes),
    }


def _serial_insert_from_dict(payload: Mapping[str, Any]) -> SerialInsertActivity:
    return SerialInsertActivity(
        activity=Node.from_dict(payload["activity"]),
        pred=payload["pred"],
        succ=payload["succ"],
        reads=tuple(payload.get("reads", ())),
        writes=tuple(payload.get("writes", ())),
    )


def _parallel_insert_to_dict(op: ParallelInsertActivity) -> Dict[str, Any]:
    return {
        "op": op.operation_name,
        "activity": op.activity.to_dict(),
        "parallel_to": op.parallel_to,
        "reads": list(op.reads),
        "writes": list(op.writes),
    }


def _parallel_insert_from_dict(payload: Mapping[str, Any]) -> ParallelInsertActivity:
    return ParallelInsertActivity(
        activity=Node.from_dict(payload["activity"]),
        parallel_to=payload["parallel_to"],
        reads=tuple(payload.get("reads", ())),
        writes=tuple(payload.get("writes", ())),
    )


def _conditional_insert_to_dict(op: ConditionalInsertActivity) -> Dict[str, Any]:
    return {
        "op": op.operation_name,
        "activity": op.activity.to_dict(),
        "pred": op.pred,
        "succ": op.succ,
        "guard": op.guard,
        "reads": list(op.reads),
        "writes": list(op.writes),
    }


def _conditional_insert_from_dict(payload: Mapping[str, Any]) -> ConditionalInsertActivity:
    return ConditionalInsertActivity(
        activity=Node.from_dict(payload["activity"]),
        pred=payload["pred"],
        succ=payload["succ"],
        guard=payload.get("guard", "True"),
        reads=tuple(payload.get("reads", ())),
        writes=tuple(payload.get("writes", ())),
    )


def _delete_activity_to_dict(op: DeleteActivity) -> Dict[str, Any]:
    return {
        "op": op.operation_name,
        "activity_id": op.activity_id,
        "supply_values": dict(op.supply_values),
    }


def _delete_activity_from_dict(payload: Mapping[str, Any]) -> DeleteActivity:
    return DeleteActivity(
        activity_id=payload["activity_id"],
        supply_values=dict(payload.get("supply_values", {})),
    )


def _move_activity_to_dict(op: MoveActivity) -> Dict[str, Any]:
    return {
        "op": op.operation_name,
        "activity_id": op.activity_id,
        "new_pred": op.new_pred,
        "new_succ": op.new_succ,
    }


def _move_activity_from_dict(payload: Mapping[str, Any]) -> MoveActivity:
    return MoveActivity(
        activity_id=payload["activity_id"],
        new_pred=payload["new_pred"],
        new_succ=payload["new_succ"],
    )


def _insert_sync_edge_to_dict(op: InsertSyncEdge) -> Dict[str, Any]:
    return {"op": op.operation_name, "source": op.source, "target": op.target}


def _insert_sync_edge_from_dict(payload: Mapping[str, Any]) -> InsertSyncEdge:
    return InsertSyncEdge(source=payload["source"], target=payload["target"])


def _delete_sync_edge_to_dict(op: DeleteSyncEdge) -> Dict[str, Any]:
    return {"op": op.operation_name, "source": op.source, "target": op.target}


def _delete_sync_edge_from_dict(payload: Mapping[str, Any]) -> DeleteSyncEdge:
    return DeleteSyncEdge(source=payload["source"], target=payload["target"])


def _add_data_element_to_dict(op: AddDataElement) -> Dict[str, Any]:
    return {"op": op.operation_name, "element": op.element.to_dict()}


def _add_data_element_from_dict(payload: Mapping[str, Any]) -> AddDataElement:
    return AddDataElement(element=DataElement.from_dict(payload["element"]))


def _delete_data_element_to_dict(op: DeleteDataElement) -> Dict[str, Any]:
    return {"op": op.operation_name, "name": op.name}


def _delete_data_element_from_dict(payload: Mapping[str, Any]) -> DeleteDataElement:
    return DeleteDataElement(name=payload["name"])


def _add_data_edge_to_dict(op: AddDataEdge) -> Dict[str, Any]:
    return {
        "op": op.operation_name,
        "activity": op.activity,
        "element": op.element,
        "access": op.access.value,
        "mandatory": op.mandatory,
    }


def _add_data_edge_from_dict(payload: Mapping[str, Any]) -> AddDataEdge:
    return AddDataEdge(
        activity=payload["activity"],
        element=payload["element"],
        access=DataAccess(payload["access"]),
        mandatory=payload.get("mandatory", True),
    )


def _delete_data_edge_to_dict(op: DeleteDataEdge) -> Dict[str, Any]:
    return {
        "op": op.operation_name,
        "activity": op.activity,
        "element": op.element,
        "access": op.access.value,
    }


def _delete_data_edge_from_dict(payload: Mapping[str, Any]) -> DeleteDataEdge:
    return DeleteDataEdge(
        activity=payload["activity"],
        element=payload["element"],
        access=DataAccess(payload["access"]),
    )


def _change_attributes_to_dict(op: ChangeActivityAttributes) -> Dict[str, Any]:
    return {
        "op": op.operation_name,
        "activity_id": op.activity_id,
        "name": op.name,
        "role": op.role,
        "duration": op.duration,
    }


def _change_attributes_from_dict(payload: Mapping[str, Any]) -> ChangeActivityAttributes:
    return ChangeActivityAttributes(
        activity_id=payload["activity_id"],
        name=payload.get("name"),
        role=payload.get("role"),
        duration=payload.get("duration"),
    )


_CODECS: Dict[type, Tuple[Callable[[Any], Dict[str, Any]], Callable[[Mapping[str, Any]], Any]]] = {
    SerialInsertActivity: (_serial_insert_to_dict, _serial_insert_from_dict),
    ParallelInsertActivity: (_parallel_insert_to_dict, _parallel_insert_from_dict),
    ConditionalInsertActivity: (_conditional_insert_to_dict, _conditional_insert_from_dict),
    DeleteActivity: (_delete_activity_to_dict, _delete_activity_from_dict),
    MoveActivity: (_move_activity_to_dict, _move_activity_from_dict),
    InsertSyncEdge: (_insert_sync_edge_to_dict, _insert_sync_edge_from_dict),
    DeleteSyncEdge: (_delete_sync_edge_to_dict, _delete_sync_edge_from_dict),
    AddDataElement: (_add_data_element_to_dict, _add_data_element_from_dict),
    DeleteDataElement: (_delete_data_element_to_dict, _delete_data_element_from_dict),
    AddDataEdge: (_add_data_edge_to_dict, _add_data_edge_from_dict),
    DeleteDataEdge: (_delete_data_edge_to_dict, _delete_data_edge_from_dict),
    ChangeActivityAttributes: (_change_attributes_to_dict, _change_attributes_from_dict),
}
_BY_NAME = {kind.operation_name: decode for kind, (_, decode) in _CODECS.items()}


def reference_to_dict(operation: ChangeOperation) -> Dict[str, Any]:
    """The payload the hand-written ``to_dict`` of ``operation``'s class produced."""
    return _CODECS[type(operation)][0](operation)


def reference_from_dict(payload: Mapping[str, Any]) -> ChangeOperation:
    """The operation the hand-written ``from_dict`` of the payload's class produced."""
    return _BY_NAME[payload["op"]](payload)
