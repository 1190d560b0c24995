"""What a change log touched, and the checks that judge it once per log.

Most conditions a change must keep are local to one operation and sit in
its preconditions.  A few can only be judged after the whole log: a read
added before its writer in the same log, a sync edge that closes a cycle
together with one added later, a writer deleted by one operation and
re-added by the next.  While :meth:`ChangeLog.apply_to` checks the
operations one by one, each records here what it may break — before it
applies, on the schema it applies to:

* ``nodes`` — nodes from which data availability may have shrunk (a
  writer, a sync edge or a read went away, an activity moved, a new read
  or guard appeared).  Their mandatory reads and decision expressions,
  and those of every node after them, are re-checked;
* ``sync_edges`` — sync edges added or moved, re-checked for a deadlock
  cycle and a loop crossing;
* ``issues`` — defects an operation can name on the spot.

:meth:`ChangeFootprint.issues_in` then runs those checks once on the
changed schema's compiled index — only on what the log touched.  A log
that touches no data flow and no sync edge runs no query at all.  Every
finding is a :class:`~repro.verification.report.VerificationIssue` with
the code :class:`~repro.verification.verifier.SchemaVerifier` reports for
the same defect, which ``tests/properties/test_property_correct_by_construction.py``
holds in both directions.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Set, Tuple

from repro.schema.edges import Edge, EdgeType
from repro.schema.graph import ProcessSchema, SchemaError
from repro.schema.index import SchemaIndex
from repro.verification.dataflow import expression_identifiers
from repro.verification.deadlock import find_cycle
from repro.verification.report import IssueCode, VerificationIssue, error


class ChangeFootprint:
    """The part of a schema one change log may have invalidated."""

    __slots__ = ("nodes", "sync_edges", "issues")

    def __init__(self) -> None:
        self.nodes: Set[str] = set()
        self.sync_edges: Set[Tuple[str, str]] = set()
        self.issues: List[VerificationIssue] = []

    def hand_over(self, index: SchemaIndex, node_id: str) -> None:
        """``node_id`` leaves its place: what follows it inherits its marks.

        Called for an activity about to be deleted or moved when it, its
        writes or its sync edges matter to the data flow after it.
        """
        self.nodes.discard(node_id)
        self.nodes.update(index.successors(node_id, EdgeType.CONTROL))
        self.nodes.update(index.successors(node_id, EdgeType.SYNC))

    def carries_data(self, index: SchemaIndex, node_id: str) -> bool:
        """True when taking ``node_id`` from its place may cost a later node an input."""
        return (
            node_id in self.nodes
            or bool(index.write_edges(node_id))
            or bool(index.out_edges(node_id, EdgeType.SYNC))
            or bool(index.in_edges(node_id, EdgeType.SYNC))
        )

    # ------------------------------------------------------------------ #
    # the once-per-log checks
    # ------------------------------------------------------------------ #

    def issues_in(self, schema: ProcessSchema) -> List[VerificationIssue]:
        """Every defect the log left in ``schema`` (its changed result)."""
        if self.issues:
            return list(self.issues)  # a malformed block: no analysis applies
        issues = []
        if self.sync_edges:
            issues.extend(self._sync_issues(schema))
        if self.nodes:
            issues.extend(self._data_issues(schema))
        return issues

    def _sync_issues(self, schema: ProcessSchema) -> List[VerificationIssue]:
        index = schema.index
        edges = sorted(
            (source, target)
            for source, target in self.sync_edges
            if any(edge.target == target for edge in index.out_edges(source, EdgeType.SYNC))
        )
        issues = []
        if any(
            source in index.transitive_successors(target, include_sync=True)
            for source, target in edges
        ):
            # named like the verifier names it: by the first cycle it finds
            issues.append(
                error(
                    IssueCode.SYNC_CYCLE,
                    "sync edges close a deadlock-causing cycle over the control flow",
                    nodes=tuple(find_cycle(schema, include_sync=True)),
                )
            )
        if edges and index.loop_edges():
            loops = [block.all_nodes() for block in index.block_tree().loop_blocks()]
            for source, target in edges:
                if any((source in inside) != (target in inside) for inside in loops):
                    issues.append(
                        error(
                            IssueCode.SYNC_CROSSES_LOOP,
                            "sync edge crosses a loop boundary",
                            edges=((source, target),),
                        )
                    )
        return issues

    def _data_issues(self, schema: ProcessSchema) -> List[VerificationIssue]:
        index = schema.index
        try:
            available = index.written_before()
        except SchemaError:
            return []  # a cycle: reported by the sync check
        region: Set[str] = set()
        for node_id in self.nodes:
            if index.has_node(node_id):
                region.add(node_id)
                region |= index.transitive_successors(node_id, include_sync=True)
        elements = schema.data_elements

        def supplied(name: str, visible: Set[str]) -> bool:
            return name in visible or elements[name].default is not None

        issues = []
        for node_id in index.node_ids:
            if node_id not in region:
                continue
            visible = available.get(node_id, set())
            for read in index.read_edges(node_id):
                if read.mandatory and not supplied(read.element, visible):
                    issues.append(
                        error(
                            IssueCode.MISSING_INPUT_DATA,
                            f"activity {node_id!r} reads {read.element!r} which is not "
                            "written on every path leading to it",
                            nodes=(node_id,),
                            element=read.element,
                        )
                    )
            for expression in _decision_expressions(index, node_id):
                decided = visible | index.written_elements(node_id)
                for name in sorted(expression_identifiers(expression)):
                    if name not in elements:
                        issues.append(
                            error(
                                IssueCode.UNKNOWN_GUARD_ELEMENT,
                                f"expression {expression!r} references unknown data "
                                f"element {name!r}",
                                nodes=(node_id,),
                                element=name,
                            )
                        )
                    elif not supplied(name, decided):
                        issues.append(
                            error(
                                IssueCode.MISSING_INPUT_DATA,
                                f"expression {expression!r} at {node_id!r} reads {name!r} "
                                "which is not written on every path leading to it",
                                nodes=(node_id,),
                                element=name,
                            )
                        )
        return issues


def _decision_expressions(index: SchemaIndex, node_id: str) -> Iterator[str]:
    """The guards and loop conditions evaluated at ``node_id``."""
    for edge in index.out_edges(node_id):
        expression = _expression(edge)
        if expression is not None:
            yield expression


def decision_nodes_reading(schema: ProcessSchema, element: str) -> Set[str]:
    """Nodes whose guard or loop condition names ``element``."""
    return {
        edge.source
        for edge in schema.raw_edges()
        if element in expression_identifiers(_expression(edge) or "")
    }


def _expression(edge: Edge) -> Optional[str]:
    if edge.is_control:
        return edge.guard
    if edge.is_loop:
        return edge.loop_condition
    return None
