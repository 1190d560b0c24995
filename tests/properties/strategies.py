"""Hypothesis strategies shared by the property-based tests."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.changelog import ChangeLog
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
    OperationError,
    ParallelInsertActivity,
    SerialInsertActivity,
)
from repro.runtime.engine import ProcessEngine
from repro.schema.data import DataAccess, DataElement
from repro.schema.graph import ProcessSchema, SchemaError
from repro.schema.nodes import Node, NodeType
from repro.workloads.schema_generator import RandomSchemaGenerator, SchemaGeneratorConfig


@st.composite
def random_schemas(draw, min_activities: int = 4, max_activities: int = 18) -> ProcessSchema:
    """A random, verified block-structured schema."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    target = draw(st.integers(min_value=min_activities, max_value=max_activities))
    config = SchemaGeneratorConfig(
        target_activities=target,
        parallel_probability=draw(st.floats(min_value=0.0, max_value=0.3)),
        conditional_probability=draw(st.floats(min_value=0.0, max_value=0.3)),
        loop_probability=draw(st.floats(min_value=0.0, max_value=0.15)),
        max_depth=draw(st.integers(min_value=1, max_value=3)),
    )
    return RandomSchemaGenerator(config, seed=seed).generate(f"prop_{seed}_{target}")


@st.composite
def executed_instances(draw, schema: ProcessSchema, instance_id: str = "prop"):
    """An instance of ``schema`` advanced by a random number of steps."""
    engine = ProcessEngine()
    instance = engine.create_instance(schema, instance_id)
    total = len(schema.activity_ids())
    steps = draw(st.integers(min_value=0, max_value=total))
    engine.advance_instance(instance, steps)
    return engine, instance


#: ids an insert may use: reusing one after a delete exercises leftover ids
NEW_NODE_IDS = ("n1", "n2", "n3")
#: element names no random schema declares (created without a default)
FRESH_ELEMENTS = ("f1", "f2")


# --------------------------------------------------------------------------- #
# drawing operations against the current schema
# --------------------------------------------------------------------------- #


def _pick(data, values, label):
    return data.draw(st.sampled_from(sorted(values)), label=label)


def _node_ids(schema):
    return list(schema.nodes)


def _activities(schema):
    return schema.activity_ids() or _node_ids(schema)


def _control_edge(data, schema):
    edges = sorted((edge.source, edge.target) for edge in schema.control_edges())
    return data.draw(st.sampled_from(edges), label="control edge")


def _elements(schema):
    return set(schema.data_elements) | set(FRESH_ELEMENTS)


def _new_node(data):
    node_id = data.draw(st.sampled_from(NEW_NODE_IDS), label="new node")
    node_type = NodeType.ACTIVITY
    if data.draw(st.integers(0, 19), label="odd node type") == 11:
        node_type = data.draw(st.sampled_from(list(NodeType)), label="node type")
    return Node(node_id=node_id, node_type=node_type)


def _accesses(data, schema, label):
    names = sorted(_elements(schema))
    return tuple(data.draw(st.lists(st.sampled_from(names), max_size=2, unique=True), label=label))


def _serial_insert(data, schema):
    pred, succ = _control_edge(data, schema)
    return SerialInsertActivity(
        activity=_new_node(data), pred=pred, succ=succ,
        reads=_accesses(data, schema, "reads"), writes=_accesses(data, schema, "writes"),
    )


def _parallel_insert(data, schema):
    return ParallelInsertActivity(
        activity=_new_node(data), parallel_to=_pick(data, _activities(schema), "parallel to"),
        reads=_accesses(data, schema, "reads"), writes=_accesses(data, schema, "writes"),
    )


def _conditional_insert(data, schema):
    pred, succ = _control_edge(data, schema)
    guards = ["True", None] + sorted(_elements(schema))
    return ConditionalInsertActivity(
        activity=_new_node(data), pred=pred, succ=succ,
        guard=data.draw(st.sampled_from(guards), label="guard"),
        reads=_accesses(data, schema, "reads"), writes=_accesses(data, schema, "writes"),
    )


def _delete_activity(data, schema):
    activity = _pick(data, _activities(schema), "activity")
    written = sorted(edge.element for edge in schema.writes_of(activity))
    supply = {}
    if written and data.draw(st.booleans(), label="supply"):
        supply = {data.draw(st.sampled_from(written), label="supplied"): 1}
    return DeleteActivity(activity_id=activity, supply_values=supply)


def _move_activity(data, schema):
    pred, succ = _control_edge(data, schema)
    return MoveActivity(
        activity_id=_pick(data, _activities(schema), "activity"), new_pred=pred, new_succ=succ
    )


def _insert_sync_edge(data, schema):
    nodes = _node_ids(schema)
    unordered = sorted(
        (source, target)
        for source in schema.activity_ids()
        for target in schema.activity_ids()
        if schema.are_parallel(source, target)
    )
    if unordered and data.draw(st.booleans(), label="unordered pair"):
        source, target = data.draw(st.sampled_from(unordered), label="sync pair")
        return InsertSyncEdge(source=source, target=target)
    return InsertSyncEdge(source=_pick(data, nodes, "source"), target=_pick(data, nodes, "target"))


def _delete_sync_edge(data, schema):
    edges = sorted((edge.source, edge.target) for edge in schema.sync_edges())
    if edges:
        source, target = data.draw(st.sampled_from(edges), label="sync edge")
    else:
        source = target = _pick(data, _activities(schema), "endpoint")
    return DeleteSyncEdge(source=source, target=target)


def _add_data_element(data, schema):
    default = data.draw(st.sampled_from([None, 0]), label="default")
    name = _pick(data, _elements(schema), "name")
    return AddDataElement(element=DataElement(name=name, default=default))


def _delete_data_element(data, schema):
    return DeleteDataElement(name=_pick(data, _elements(schema), "name"))


def _add_data_edge(data, schema):
    return AddDataEdge(
        activity=_pick(data, _node_ids(schema), "node"),
        element=_pick(data, schema.data_elements or FRESH_ELEMENTS, "element"),
        access=data.draw(st.sampled_from(list(DataAccess)), label="access"),
        mandatory=data.draw(st.booleans(), label="mandatory"),
    )


def _delete_data_edge(data, schema):
    edges = sorted(edge.key for edge in schema.data_edges)
    if not edges:
        return DeleteDataEdge(
            activity=_pick(data, _activities(schema), "node"), element="f1", access=DataAccess.READ
        )
    activity, element, access = data.draw(st.sampled_from(edges), label="data edge")
    return DeleteDataEdge(activity=activity, element=element, access=DataAccess(access))


def _change_attributes(data, schema):
    return ChangeActivityAttributes(
        activity_id=_pick(data, _node_ids(schema), "node"),
        role=data.draw(st.sampled_from([None, "clerk"]), label="role"),
    )


DRAWERS = {
    SerialInsertActivity: _serial_insert,
    ParallelInsertActivity: _parallel_insert,
    ConditionalInsertActivity: _conditional_insert,
    DeleteActivity: _delete_activity,
    MoveActivity: _move_activity,
    InsertSyncEdge: _insert_sync_edge,
    DeleteSyncEdge: _delete_sync_edge,
    AddDataElement: _add_data_element,
    DeleteDataElement: _delete_data_element,
    AddDataEdge: _add_data_edge,
    DeleteDataEdge: _delete_data_edge,
    ChangeActivityAttributes: _change_attributes,
}


def draw_change_log(data, schema: ProcessSchema) -> ChangeLog:
    """1–4 operations, each drawn against the schema as the log left it."""
    working = schema
    operations = []
    for _ in range(data.draw(st.integers(1, 4), label="log length")):
        kind = data.draw(st.sampled_from(list(DRAWERS)), label="operation class")
        operation = DRAWERS[kind](data, working)
        operations.append(operation)
        candidate = working.copy()
        try:
            operation.apply(candidate)
        except (OperationError, SchemaError, KeyError, ValueError):
            continue
        working = candidate
    return ChangeLog(operations)
