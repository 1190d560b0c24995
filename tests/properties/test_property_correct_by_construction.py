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

from .strategies import draw_change_log, random_schemas

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
    return schema, draw_change_log(data, schema)


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
        [AddDataEdge(activity="w1", element="e", access=DataAccess.READ)],
        IssueCode.MISSING_INPUT_DATA),
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
