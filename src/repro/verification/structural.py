"""Structural well-formedness checks for WSM nets.

Checks the static shape of a schema: unique start and end node, node
degree rules per node type, reachability of every node, matched and
properly nested blocks, well-formed loop edges and XOR guards.
"""

from __future__ import annotations

from typing import List

from repro.schema.blocks import BlockStructureError
from repro.schema.edges import EdgeType
from repro.schema.graph import ProcessSchema, SchemaError
from repro.schema.nodes import NodeType
from repro.verification.report import (
    IssueCode,
    VerificationIssue,
    VerificationReport,
    error,
    warning,
)


class StructuralVerifier:
    """Verifies the static structure of a process schema."""

    def verify(self, schema: ProcessSchema) -> VerificationReport:
        """Run all structural checks and return the findings."""
        report = VerificationReport(schema_id=schema.schema_id)
        self._check_endpoints(schema, report)
        self._check_degrees(schema, report)
        self._check_loop_edges(schema, report)
        self._check_guards(schema, report)
        self._check_reachability(schema, report)
        self._check_blocks(schema, report)
        return report

    # ------------------------------------------------------------------ #

    def _check_endpoints(self, schema: ProcessSchema, report: VerificationReport) -> None:
        starts = [n for n in schema.nodes.values() if n.node_type is NodeType.START]
        ends = [n for n in schema.nodes.values() if n.node_type is NodeType.END]
        if not starts:
            report.add(error(IssueCode.MISSING_START, "schema has no start node"))
        elif len(starts) > 1:
            report.add(
                error(
                    IssueCode.MULTIPLE_START,
                    "schema has more than one start node",
                    nodes=tuple(n.node_id for n in starts),
                )
            )
        if not ends:
            report.add(error(IssueCode.MISSING_END, "schema has no end node"))
        elif len(ends) > 1:
            report.add(
                error(
                    IssueCode.MULTIPLE_END,
                    "schema has more than one end node",
                    nodes=tuple(n.node_id for n in ends),
                )
            )

    def _check_degrees(self, schema: ProcessSchema, report: VerificationReport) -> None:
        for node in schema.nodes.values():
            incoming = len(schema.edges_to(node.node_id, EdgeType.CONTROL))
            outgoing = len(schema.edges_from(node.node_id, EdgeType.CONTROL))
            node_type = node.node_type
            problem = ""
            if node_type is NodeType.START:
                if incoming != 0 or outgoing != 1:
                    problem = f"start node must have 0 incoming / 1 outgoing control edges, has {incoming}/{outgoing}"
            elif node_type is NodeType.END:
                if incoming != 1 or outgoing != 0:
                    problem = f"end node must have 1 incoming / 0 outgoing control edges, has {incoming}/{outgoing}"
            elif node_type in (NodeType.ACTIVITY, NodeType.LOOP_START, NodeType.LOOP_END):
                if incoming != 1 or outgoing != 1:
                    problem = (
                        f"{node_type.value} node must have exactly one incoming and one outgoing "
                        f"control edge, has {incoming}/{outgoing}"
                    )
            elif node_type.is_split:
                if incoming != 1 or outgoing < 2:
                    problem = f"split node must have 1 incoming and >=2 outgoing control edges, has {incoming}/{outgoing}"
            elif node_type.is_join:
                if incoming < 2 or outgoing != 1:
                    problem = f"join node must have >=2 incoming and 1 outgoing control edge, has {incoming}/{outgoing}"
            if problem:
                report.add(error(IssueCode.BAD_DEGREE, problem, nodes=(node.node_id,)))

    def _check_loop_edges(self, schema: ProcessSchema, report: VerificationReport) -> None:
        loop_starts = {n.node_id for n in schema.nodes.values() if n.node_type is NodeType.LOOP_START}
        loop_ends = {n.node_id for n in schema.nodes.values() if n.node_type is NodeType.LOOP_END}
        seen_sources = set()
        seen_targets = set()
        for edge in schema.loop_edges():
            if edge.source not in loop_ends or edge.target not in loop_starts:
                report.add(
                    error(
                        IssueCode.BAD_LOOP_EDGE,
                        "loop edges must run from a loop-end node back to a loop-start node",
                        edges=((edge.source, edge.target),),
                    )
                )
            if edge.loop_condition is None:
                report.add(
                    error(
                        IssueCode.BAD_LOOP_EDGE,
                        "loop edge is missing its loop condition",
                        edges=((edge.source, edge.target),),
                    )
                )
            seen_sources.add(edge.source)
            seen_targets.add(edge.target)
        for loop_start in sorted(loop_starts - seen_targets):
            report.add(
                error(
                    IssueCode.UNMATCHED_BLOCK,
                    "loop-start node has no loop edge pointing back to it",
                    nodes=(loop_start,),
                )
            )
        for loop_end in sorted(loop_ends - seen_sources):
            report.add(
                error(
                    IssueCode.UNMATCHED_BLOCK,
                    "loop-end node has no outgoing loop edge",
                    nodes=(loop_end,),
                )
            )

    def _check_guards(self, schema: ProcessSchema, report: VerificationReport) -> None:
        for node in schema.nodes.values():
            if node.node_type is not NodeType.XOR_SPLIT:
                continue
            branches = schema.edges_from(node.node_id, EdgeType.CONTROL)
            defaults = [e for e in branches if e.guard is None]
            if len(defaults) > 1:
                report.add(
                    error(
                        IssueCode.DUPLICATE_GUARD_DEFAULT,
                        "an XOR split may have at most one unguarded (default) branch",
                        nodes=(node.node_id,),
                    )
                )
            if not defaults and branches:
                report.add(
                    warning(
                        IssueCode.MISSING_GUARD,
                        "XOR split has no default branch; execution blocks if no guard holds",
                        nodes=(node.node_id,),
                    )
                )

    def _check_reachability(self, schema: ProcessSchema, report: VerificationReport) -> None:
        try:
            start_id = schema.start_node().node_id
            end_id = schema.end_node().node_id
        except SchemaError:
            return
        reachable = schema.transitive_successors(start_id, include_sync=False) | {start_id}
        for node_id in schema.node_ids():
            if node_id not in reachable:
                report.add(
                    error(
                        IssueCode.UNREACHABLE_NODE,
                        "node cannot be reached from the start node via control edges",
                        nodes=(node_id,),
                    )
                )
        reaches_end = schema.transitive_predecessors(end_id, include_sync=False) | {end_id}
        for node_id in schema.node_ids():
            if node_id not in reaches_end:
                report.add(
                    error(
                        IssueCode.NO_PATH_TO_END,
                        "node has no control path leading to the end node",
                        nodes=(node_id,),
                    )
                )

    def _check_blocks(self, schema: ProcessSchema, report: VerificationReport) -> None:
        try:
            schema.start_node()
            schema.end_node()
            schema.topological_order(include_sync=False)
        except SchemaError:
            # endpoint or cycle problems are reported elsewhere; block analysis
            # needs an acyclic control graph with unique endpoints.
            return
        for node in schema.nodes.values():
            if not node.node_type.is_split:
                continue
            try:
                schema.index.matching_join(node.node_id)
            except BlockStructureError as exc:
                report.add(
                    error(IssueCode.UNMATCHED_BLOCK, str(exc), nodes=(node.node_id,))
                )
        try:
            tree = schema.index.block_tree()
        except SchemaError:
            # includes BlockStructureError and dangling loop-edge problems,
            # which are reported by the loop-edge checks above
            return
        blocks = [b for b in tree.blocks if b.kind.value != "process"]
        for i, first in enumerate(blocks):
            for second in blocks[i + 1 :]:
                first_nodes = first.all_nodes()
                second_nodes = second.all_nodes()
                overlap = first_nodes & second_nodes
                if not overlap:
                    continue
                nested = first_nodes <= second_nodes or second_nodes <= first_nodes
                boundary_only = overlap <= {first.entry, first.exit, second.entry, second.exit}
                if not nested and not boundary_only:
                    report.add(
                        error(
                            IssueCode.BLOCK_OVERLAP,
                            "blocks overlap without being nested",
                            nodes=(first.entry, second.entry),
                        )
                    )
