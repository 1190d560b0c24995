"""Deadlock analysis of WSM nets.

The paper highlights "the absence of deadlock-causing cycles" as a core
buildtime guarantee and uses exactly this property to reject the
structurally conflicting instance I2 in Fig. 1: combining the instance's
ad-hoc sync edge with the type change's new sync edge would close a cycle
over control and sync edges, so the two activities would wait for each
other forever.

The verifier searches for cycles in the combined control+sync graph (loop
edges excluded, they are the only legal cycles), and additionally checks
that sync edges are used as intended: between concurrent nodes of a
parallel block, never crossing a loop boundary.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.schema.blocks import BlockKind, BlockStructureError
from repro.schema.edges import EdgeType
from repro.schema.graph import ProcessSchema, SchemaError
from repro.schema.nodes import NodeType
from repro.verification.report import (
    IssueCode,
    VerificationReport,
    error,
    warning,
)


def find_cycle(schema: ProcessSchema, include_sync: bool = True) -> Optional[List[str]]:
    """Return one cycle of the control(+sync) graph, or ``None``.

    Loop edges are excluded; they form the only intentional cycles of a
    correct WSM net.  The returned list contains the node ids along the
    cycle, starting and ending with the same node.
    """
    # out_edges() preserves global edge-insertion order, which fixes which
    # cycle is reported when there are several
    index = schema.index
    adjacency: Dict[str, List[str]] = {
        node_id: [
            edge.target
            for edge in index.out_edges(node_id)
            if not edge.is_loop and (include_sync or not edge.is_sync)
        ]
        for node_id in index.node_ids
    }

    WHITE, GREY, BLACK = 0, 1, 2
    colour: Dict[str, int] = {node_id: WHITE for node_id in adjacency}
    parent: Dict[str, Optional[str]] = {}

    def visit(start: str) -> Optional[List[str]]:
        stack: List[Tuple[str, int]] = [(start, 0)]
        parent[start] = None
        colour[start] = GREY
        while stack:
            node, index = stack[-1]
            neighbours = adjacency[node]
            if index < len(neighbours):
                stack[-1] = (node, index + 1)
                nxt = neighbours[index]
                if colour[nxt] == WHITE:
                    colour[nxt] = GREY
                    parent[nxt] = node
                    stack.append((nxt, 0))
                elif colour[nxt] == GREY:
                    cycle = [nxt]
                    walker: Optional[str] = node
                    while walker is not None and walker != nxt:
                        cycle.append(walker)
                        walker = parent.get(walker)
                    cycle.append(nxt)
                    cycle.reverse()
                    return cycle
            else:
                colour[node] = BLACK
                stack.pop()
        return None

    for node_id in adjacency:
        if colour[node_id] == WHITE:
            cycle = visit(node_id)
            if cycle is not None:
                return cycle
    return None


class DeadlockVerifier:
    """Detects deadlock-causing cycles and misplaced sync edges."""

    def verify(self, schema: ProcessSchema) -> VerificationReport:
        """Run all deadlock-related checks and return the findings."""
        report = VerificationReport(schema_id=schema.schema_id)
        control_cycle = find_cycle(schema, include_sync=False)
        if control_cycle is not None:
            report.add(
                error(
                    IssueCode.CONTROL_CYCLE,
                    "control edges form a cycle (only loop edges may close cycles)",
                    nodes=tuple(control_cycle),
                )
            )
            return report
        combined_cycle = find_cycle(schema, include_sync=True)
        if combined_cycle is not None:
            report.add(
                error(
                    IssueCode.SYNC_CYCLE,
                    "sync edges close a deadlock-causing cycle over the control flow",
                    nodes=tuple(combined_cycle),
                )
            )
        self._check_sync_placement(schema, report)
        return report

    def _check_sync_placement(self, schema: ProcessSchema, report: VerificationReport) -> None:
        sync_edges = schema.sync_edges()
        if not sync_edges:
            return
        try:
            tree = schema.index.block_tree()
        except (BlockStructureError, SchemaError):
            tree = None
        loop_blocks = tree.loop_blocks() if tree is not None else []
        for edge in sync_edges:
            if not schema.has_node(edge.source) or not schema.has_node(edge.target):
                report.add(
                    error(
                        IssueCode.DANGLING_EDGE,
                        "sync edge references a missing node",
                        edges=((edge.source, edge.target),),
                    )
                )
                continue
            ordered = schema.control_path_exists(edge.source, edge.target) or schema.control_path_exists(
                edge.target, edge.source
            )
            if ordered:
                report.add(
                    warning(
                        IssueCode.SYNC_WITHIN_BRANCH,
                        "sync edge connects nodes that are already ordered by control edges",
                        edges=((edge.source, edge.target),),
                    )
                )
            for block in loop_blocks:
                inside = block.all_nodes()
                source_in = edge.source in inside
                target_in = edge.target in inside
                if source_in != target_in:
                    report.add(
                        error(
                            IssueCode.SYNC_CROSSES_LOOP,
                            "sync edge crosses a loop boundary",
                            edges=((edge.source, edge.target),),
                        )
                    )
            if tree is not None:
                self._warn_if_source_conditional(schema, tree, edge, report)

    def _warn_if_source_conditional(self, schema, tree, edge, report) -> None:
        """Warn when a sync edge starts inside an XOR branch.

        ADEPT handles this via dead-path elimination (a skipped source
        signals the sync edge), so it is legal — but worth flagging because
        the target then only *waits* in runs that execute the source.
        """
        for block in tree.blocks:
            if block.kind is BlockKind.CONDITIONAL and block.contains(edge.source, include_boundary=False):
                report.add(
                    warning(
                        IssueCode.SYNC_FROM_CONDITIONAL,
                        "sync edge starts inside a conditional branch; the dependency only "
                        "applies in runs that execute the source activity",
                        edges=((edge.source, edge.target),),
                    )
                )
                return
