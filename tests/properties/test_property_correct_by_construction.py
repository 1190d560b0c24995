"""Correctness by construction: the change operations' checks imply the verifier.

ADEPT2's change operations carry formal preconditions, so a schema
changed only through them needs no full re-check.  The ad-hoc and the
biased-migration paths rely on exactly that: they apply a change log with
``ChangeLog.apply_to(check=True)`` and run no :class:`SchemaVerifier`
afterwards.  This property is the evidence, judged per change log (the
way both paths judge one):

* **sound** — a log that ``apply_to(check=True)`` accepts yields a schema
  the verifier finds correct;
* **not stricter** — a refusal that names verification issues
  (``OperationError.issues``) names only codes the verifier reports on
  the *unchecked* result of the same log, so no change the verifier would
  accept is refused.

Logs of 1–4 operations are drawn from all twelve operation classes against
a random verified schema (some of whose data elements lose their default
values, so missing input data can arise), each operation against the
schema as the log has changed it so far.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
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
from repro.schema.builder import SchemaBuilder
from repro.schema.data import DataAccess, DataElement, DataType
from repro.schema.graph import ProcessSchema, SchemaError
from repro.schema.nodes import Node, NodeType
from repro.verification.report import IssueCode
from repro.verification.verifier import SchemaVerifier

from .strategies import random_schemas

#: ids an insert may use: reusing one after a delete exercises leftover ids
NEW_NODE_IDS = ("n1", "n2", "n3")
#: element names no random schema declares (created without a default)
FRESH_ELEMENTS = ("f1", "f2")

VERIFIER = SchemaVerifier()

TIER1 = settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
STRESS = settings(
    max_examples=5000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


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
        return DeleteDataEdge(activity=_pick(data, _activities(schema), "node"), element="f1")
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


def _without_some_defaults(data, schema: ProcessSchema) -> ProcessSchema:
    """``schema`` with a drawn subset of element defaults dropped, if it stays correct."""
    names = sorted(schema.data_elements)
    if not names:
        return schema
    dropped = data.draw(st.lists(st.sampled_from(names), unique=True), label="undefaulted")
    if not dropped:
        return schema
    stripped = schema.copy()
    for name in dropped:
        element = stripped.data_elements[name]
        stripped.data_elements[name] = DataElement(
            name=element.name, data_type=element.data_type, description=element.description
        )
    return stripped if VERIFIER.verify(stripped).is_correct else schema


def _draw_log(data, schema: ProcessSchema) -> ChangeLog:
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


# --------------------------------------------------------------------------- #
# the property
# --------------------------------------------------------------------------- #


def check_log(schema: ProcessSchema, log: ChangeLog) -> str:
    """Assert both directions for one log; returns how the log ended."""
    try:
        changed = log.apply_to(schema, check=True)
    except OperationError as exc:
        issues = exc.issues
        if not issues:
            return "precondition"
        # not stricter: the verifier reports every named code on the unchecked result
        try:
            unchecked = log.apply_to(schema, check=False)
        except (OperationError, SchemaError, KeyError, ValueError):
            return "refused"  # the operations cannot even be applied
        report = VERIFIER.verify(unchecked)
        reported = {issue.code for issue in report.errors}
        named = {issue.code for issue in issues}
        assert named <= reported, (
            f"refused with {sorted(c.value for c in named - reported)} the verifier does not "
            f"report for\n{log.describe()}\n{report.summary()}"
        )
        return "refused"
    except SchemaError:
        return "precondition"
    # sound: an accepted log yields a correct schema
    report = VERIFIER.verify(changed)
    assert report.is_correct, f"accepted but incorrect:\n{log.describe()}\n{report.summary()}"
    return "accepted"


def draw_case(data):
    """A random verified schema and a change log drawn against it."""
    schema = data.draw(random_schemas(min_activities=3, max_activities=14), label="schema")
    schema = _without_some_defaults(data, schema)
    return schema, _draw_log(data, schema)


class TestCorrectByConstruction:
    @TIER1
    @given(data=st.data())
    def test_checks_imply_the_verifier(self, data):
        check_log(*draw_case(data))

    @pytest.mark.stress
    @STRESS
    @given(data=st.data())
    def test_checks_imply_the_verifier_stress(self, data):
        check_log(*draw_case(data))


# --------------------------------------------------------------------------- #
# the gaps the property found, one example each
# --------------------------------------------------------------------------- #


def gap_schema() -> ProcessSchema:
    """w1 writes e, r reads it, w2 rewrites it; a ∥ b with sync a -> b carrying d."""
    builder = SchemaBuilder("gaps", name="gaps")
    builder.data("e")
    builder.data("flag", DataType.BOOLEAN, default=False)
    builder.activity("w1", writes=["e"]).activity("r", reads=["e"]).activity("w2", writes=["e"])
    builder.parallel(
        [
            lambda seq: seq.activity("a", writes=["d"]).loop(
                lambda body: body.activity("inner"), condition="flag", label="l"
            ),
            lambda seq: seq.activity("b", reads=["d"]),
        ],
        label="p",
    )
    builder.conditional(
        [("flag", lambda seq: seq.activity("c1")), (None, lambda seq: seq.activity("c2"))],
        label="x",
    )
    builder.sync("a", "b")
    return builder.build()


def _insert(node_id="n", pred="start", succ="w1", node_type=NodeType.ACTIVITY, **data):
    return SerialInsertActivity(
        activity=Node(node_id=node_id, node_type=node_type), pred=pred, succ=succ, **data
    )


GAPS = {
    "serial insert reads an unwritten element": (
        [_insert(reads=("e",))], IssueCode.MISSING_INPUT_DATA),
    "parallel insert reads an unwritten element": (
        [ParallelInsertActivity(activity=Node(node_id="n"), parallel_to="w1", reads=("e",))],
        IssueCode.MISSING_INPUT_DATA),
    "conditional insert guards on an unwritten element": (
        [ConditionalInsertActivity(activity=Node(node_id="n"), pred="start", succ="w1", guard="e")],
        IssueCode.MISSING_INPUT_DATA),
    "conditional insert guards on an unknown element": (
        [ConditionalInsertActivity(activity=Node(node_id="n"), pred="w1", succ="r", guard="ghost")],
        IssueCode.UNKNOWN_GUARD_ELEMENT),
    "conditional insert without a guard": (
        [ConditionalInsertActivity(activity=Node(node_id="n"), pred="w1", succ="r", guard=None)],
        IssueCode.DUPLICATE_GUARD_DEFAULT),
    "inserted node is no activity": (
        [_insert(node_type=NodeType.AND_SPLIT)], IssueCode.BAD_DEGREE),
    "inserted node is a loop start": (
        [_insert(node_type=NodeType.LOOP_START)], IssueCode.UNMATCHED_BLOCK),
    "delete an element a guard reads": (
        [DeleteDataElement(name="flag")], IssueCode.UNKNOWN_GUARD_ELEMENT),
    "sync edge across a loop boundary": (
        [InsertSyncEdge(source="inner", target="b")], IssueCode.SYNC_CROSSES_LOOP),
    "sync edge closing a cycle": (
        [InsertSyncEdge(source="b", target="a")], IssueCode.SYNC_CYCLE),
    "mandatory read added": (
        [AddDataEdge(activity="w1", element="e")], IssueCode.MISSING_INPUT_DATA),
    "delete the writer before the reader, keep one after it": (
        [DeleteActivity(activity_id="w1")], IssueCode.MISSING_INPUT_DATA),
    "delete the write edge before the reader": (
        [DeleteDataEdge(activity="w1", element="e", access=DataAccess.WRITE)],
        IssueCode.MISSING_INPUT_DATA),
    "delete the sync edge that carries an input": (
        [DeleteSyncEdge(source="a", target="b")], IssueCode.MISSING_INPUT_DATA),
    "move the reader before its writer": (
        [MoveActivity(activity_id="r", new_pred="start", new_succ="w1")],
        IssueCode.MISSING_INPUT_DATA),
    "delete the writer, then the node after it": (
        [DeleteActivity(activity_id="a"), DeleteActivity(activity_id="b")], None),
}


class TestKnownGaps:
    @pytest.mark.parametrize("name", sorted(GAPS))
    def test_refused_with_the_verifiers_code(self, name):
        operations, code = GAPS[name]
        schema, log = gap_schema(), ChangeLog(operations)
        if code is None:
            assert check_log(schema, log) in ("accepted", "precondition")
            return
        with pytest.raises(OperationError) as excinfo:
            log.apply_to(schema, check=True)
        assert code in {issue.code for issue in excinfo.value.issues}
        assert check_log(schema, log) == "refused"
        assert VERIFIER.verify(log.apply_to(schema, check=False)).has_issue(code)

    def test_a_read_added_before_its_writer_in_one_log_is_accepted(self):
        schema = gap_schema()
        log = ChangeLog([_insert("n1", reads=("g",)), _insert("n2", succ="n1", writes=("g",))])
        assert check_log(schema, log) == "accepted"

    def test_a_cycle_refusal_says_cycle(self):
        with pytest.raises(OperationError, match="cycle"):
            ChangeLog([InsertSyncEdge(source="b", target="a")]).apply_to(gap_schema())

    @pytest.mark.parametrize(
        "operation", [_insert(pred="w2", succ="and_split_p_1"), DeleteActivity(activity_id="c1")]
    )
    def test_a_change_without_data_or_sync_compiles_no_index(self, operation):
        """Like ``evolve``'s type changes: checked on the input, never queried after."""
        changed = ChangeLog([operation]).apply_to(gap_schema())
        assert changed._index is None
