"""Data-flow correctness checks for WSM nets.

The paper lists "erroneous data flows" next to deadlocks as the defects
ruled out at buildtime.  The analysis here guarantees that

* every **mandatory read** is preceded by a write of the same data element
  on *every* control path (otherwise an activity could start with missing
  input data — the very problem ad-hoc deletions must not reintroduce);
* every data element referenced by an XOR guard or loop condition is
  definitely written before the decision is evaluated;
* concurrent writers of the same element are reported (lost updates);
* unused or never-written data elements are flagged as warnings.

The "definitely written before node n" sets are computed by a forward
data-flow analysis over the acyclic control graph (loop edges ignored,
which is conservative), intersecting over control predecessors and
including guaranteed sync-edge predecessors.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.schema.edges import EdgeType
from repro.schema.graph import ProcessSchema, SchemaError
from repro.schema.nodes import NodeType
from repro.verification.report import (
    IssueCode,
    VerificationReport,
    error,
    warning,
)


def expression_identifiers(expression: str) -> Set[str]:
    """Names referenced by a guard or loop-condition expression.

    Uses the Python AST so that ``"score >= 50 and not rejected"`` yields
    ``{"score", "rejected"}``.  Unparseable expressions yield the empty set
    (the runtime will reject them when evaluated).
    """
    try:
        tree = ast.parse(expression, mode="eval")
    except SyntaxError:
        return set()
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id not in ("True", "False", "None")
    }


def _conditional_interiors(schema: ProcessSchema) -> Set[str]:
    """Node ids lying strictly inside at least one XOR block.

    Such nodes are not guaranteed to execute in every run, so their writes
    only count towards availability along the branch they belong to — never
    via sync edges into other branches.
    """
    from repro.schema.blocks import BlockKind, BlockStructureError

    try:
        tree = schema.index.block_tree()
    except (BlockStructureError, SchemaError):
        return set()
    interiors: Set[str] = set()
    for block in tree.blocks:
        if block.kind is BlockKind.CONDITIONAL:
            interiors |= block.nodes
    return interiors


def written_before(schema: ProcessSchema) -> Dict[str, Set[str]]:
    """For every node, the data elements definitely written before it starts.

    A write performed *by* a node is visible to its successors, not to the
    node itself.  Loop-back edges are ignored (conservative: a value first
    written inside iteration ``k`` is not assumed available at iteration
    ``k`` entry).  At AND joins the branch contributions are united (all
    branches execute); at XOR joins they are intersected (only one branch
    executes).  Writes reaching a node via a sync edge count only when the
    sync source is guaranteed to execute (not inside a conditional block).
    """
    order = schema.topological_order(include_sync=True)
    writes_of: Dict[str, Set[str]] = {
        node_id: {edge.element for edge in schema.writes_of(node_id)}
        for node_id in schema.node_ids()
    }
    conditional_nodes = _conditional_interiors(schema)
    available: Dict[str, Set[str]] = {}
    for node_id in order:
        control_preds = schema.predecessors(node_id, EdgeType.CONTROL)
        sync_preds = schema.predecessors(node_id, EdgeType.SYNC)
        if not control_preds and not sync_preds:
            available[node_id] = set()
            continue
        node_type = schema.node(node_id).node_type
        combined: Optional[Set[str]] = None
        for pred in control_preds:
            incoming = available.get(pred, set()) | writes_of.get(pred, set())
            if combined is None:
                combined = set(incoming)
            elif node_type is NodeType.AND_JOIN:
                combined |= incoming
            else:
                combined &= incoming
        result = combined or set()
        for pred in sync_preds:
            if pred in conditional_nodes:
                continue
            result |= available.get(pred, set()) | writes_of.get(pred, set())
        available[node_id] = result
    return available


class DataFlowVerifier:
    """Verifies the data-flow correctness of a process schema."""

    def verify(self, schema: ProcessSchema) -> VerificationReport:
        """Run all data-flow checks and return the findings."""
        report = VerificationReport(schema_id=schema.schema_id)
        try:
            available = schema.index.written_before()
        except SchemaError:
            # A cyclic or endpoint-less schema is reported by the structural
            # and deadlock verifiers; data-flow analysis needs a DAG.
            return report
        self._check_reads(schema, available, report)
        self._check_guards(schema, available, report)
        self._check_parallel_writes(schema, report)
        self._check_element_usage(schema, report)
        return report

    # ------------------------------------------------------------------ #

    def _defaulted(self, schema: ProcessSchema, element: str) -> bool:
        """True when the element carries a default value (always available)."""
        return (
            schema.has_data_element(element)
            and schema.data_element(element).default is not None
        )

    def _check_reads(
        self,
        schema: ProcessSchema,
        available: Dict[str, Set[str]],
        report: VerificationReport,
    ) -> None:
        for data_edge in schema.data_edges:
            if not data_edge.is_read or not data_edge.mandatory:
                continue
            element = data_edge.element
            if element in available.get(data_edge.activity, set()):
                continue
            if self._defaulted(schema, element):
                continue
            report.add(
                error(
                    IssueCode.MISSING_INPUT_DATA,
                    f"activity {data_edge.activity!r} reads {element!r} which is not "
                    "written on every path leading to it",
                    nodes=(data_edge.activity,),
                    element=element,
                )
            )

    def _check_guards(
        self,
        schema: ProcessSchema,
        available: Dict[str, Set[str]],
        report: VerificationReport,
    ) -> None:
        for edge in schema.edges:
            expression = None
            decision_node = None
            if edge.is_control and edge.guard is not None:
                expression = edge.guard
                decision_node = edge.source
            elif edge.is_loop and edge.loop_condition is not None:
                expression = edge.loop_condition
                decision_node = edge.source
            if expression is None or decision_node is None:
                continue
            for name in sorted(expression_identifiers(expression)):
                if not schema.has_data_element(name):
                    report.add(
                        error(
                            IssueCode.UNKNOWN_GUARD_ELEMENT,
                            f"expression {expression!r} references unknown data element {name!r}",
                            nodes=(decision_node,),
                            element=name,
                        )
                    )
                    continue
                visible = available.get(decision_node, set()) | {
                    w.element for w in schema.writes_of(decision_node)
                }
                if name not in visible and not self._defaulted(schema, name):
                    report.add(
                        error(
                            IssueCode.MISSING_INPUT_DATA,
                            f"expression {expression!r} at {decision_node!r} reads {name!r} "
                            "which is not written on every path leading to it",
                            nodes=(decision_node,),
                            element=name,
                        )
                    )

    def _check_parallel_writes(self, schema: ProcessSchema, report: VerificationReport) -> None:
        from repro.schema.blocks import BlockKind, BlockStructureError

        try:
            tree = schema.index.block_tree()
        except (BlockStructureError, SchemaError):
            return
        for element in schema.data_elements:
            writers = schema.writers_of(element)
            for i, first in enumerate(writers):
                for second in writers[i + 1 :]:
                    if not schema.are_parallel(first, second):
                        continue
                    # Unordered writers are a lost-update risk only when they can
                    # really run concurrently, i.e. their smallest common block is
                    # an AND block (XOR branches are mutually exclusive).
                    try:
                        common = tree.minimal_block_containing({first, second})
                    except BlockStructureError:
                        continue
                    if common.kind is not BlockKind.PARALLEL:
                        continue
                    report.add(
                        warning(
                            IssueCode.PARALLEL_WRITE_CONFLICT,
                            f"activities {first!r} and {second!r} may write {element!r} "
                            "concurrently (potential lost update)",
                            nodes=(first, second),
                            element=element,
                        )
                    )

    def _check_element_usage(self, schema: ProcessSchema, report: VerificationReport) -> None:
        guard_names: Set[str] = set()
        for edge in schema.edges:
            if edge.guard:
                guard_names |= expression_identifiers(edge.guard)
            if edge.loop_condition:
                guard_names |= expression_identifiers(edge.loop_condition)
        for element in schema.data_elements:
            readers = schema.readers_of(element)
            writers = schema.writers_of(element)
            used_in_guard = element in guard_names
            if not readers and not used_in_guard:
                report.add(
                    warning(
                        IssueCode.UNUSED_ELEMENT,
                        f"data element {element!r} is never read",
                        element=element,
                    )
                )
            if (readers or used_in_guard) and not writers and not self._defaulted(schema, element):
                report.add(
                    warning(
                        IssueCode.UNWRITTEN_ELEMENT,
                        f"data element {element!r} is read but never written",
                        element=element,
                    )
                )
