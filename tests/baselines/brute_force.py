"""Brute-force structural definitions over a schema's raw node and edge lists.

The reference the compiled :class:`~repro.schema.index.SchemaIndex` is
pinned against: every function recomputes its answer from scratch by
scanning ``schema.nodes`` / ``schema.edges`` / ``schema.data_edges`` —
O(E) per query, no caching, no adjacency tables.  Nothing here goes
through ``schema.index`` or through a ``ProcessSchema`` query method
that answers from it.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.schema.edges import Edge, EdgeType
from repro.schema.graph import ProcessSchema, SchemaError
from repro.schema.nodes import NodeType


def edges_from(schema: ProcessSchema, node_id: str, edge_type: Optional[EdgeType] = None) -> List[Edge]:
    return [
        e
        for e in schema.edges
        if e.source == node_id and (edge_type is None or e.edge_type is edge_type)
    ]


def edges_to(schema: ProcessSchema, node_id: str, edge_type: Optional[EdgeType] = None) -> List[Edge]:
    return [
        e
        for e in schema.edges
        if e.target == node_id and (edge_type is None or e.edge_type is edge_type)
    ]


def successors(schema: ProcessSchema, node_id: str, edge_type: EdgeType = EdgeType.CONTROL) -> List[str]:
    return [e.target for e in edges_from(schema, node_id, edge_type)]


def predecessors(schema: ProcessSchema, node_id: str, edge_type: EdgeType = EdgeType.CONTROL) -> List[str]:
    return [e.source for e in edges_to(schema, node_id, edge_type)]


def loop_edges(schema: ProcessSchema) -> List[Edge]:
    return [e for e in schema.edges if e.is_loop]


def _unique_node(schema: ProcessSchema, node_type: NodeType, label: str) -> str:
    found = [n.node_id for n in schema.nodes.values() if n.node_type is node_type]
    if len(found) != 1:
        raise SchemaError(f"schema must have exactly one {label} node, found {len(found)}")
    return found[0]


def start_node_id(schema: ProcessSchema) -> str:
    return _unique_node(schema, NodeType.START, "start")


def end_node_id(schema: ProcessSchema) -> str:
    return _unique_node(schema, NodeType.END, "end")


def reach(schema: ProcessSchema, node_id: str, forward: bool, include_sync: bool) -> Set[str]:
    """Nodes reachable from (or reaching) ``node_id``; loop edges excluded."""
    schema.node(node_id)  # SchemaError for unknown nodes
    step = successors if forward else predecessors
    seen: Set[str] = set()
    frontier = [node_id]
    while frontier:
        current = frontier.pop()
        neighbours = step(schema, current, EdgeType.CONTROL)
        if include_sync:
            neighbours += step(schema, current, EdgeType.SYNC)
        for nxt in neighbours:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    seen.discard(node_id)
    return seen


def topological_order(schema: ProcessSchema, include_sync: bool = True) -> List[str]:
    """Kahn's algorithm, ties broken by node id; loop edges ignored."""
    indegree = {node_id: 0 for node_id in schema.nodes}
    adjacency = {node_id: [] for node_id in schema.nodes}
    for edge in schema.edges:
        if edge.is_loop or (edge.is_sync and not include_sync):
            continue
        adjacency[edge.source].append(edge.target)
        indegree[edge.target] += 1
    ready = sorted(node_id for node_id, degree in indegree.items() if degree == 0)
    order: List[str] = []
    while ready:
        current = ready.pop(0)
        order.append(current)
        for nxt in adjacency[current]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
        ready.sort()
    if len(order) != len(schema.nodes):
        raise SchemaError("schema contains a cycle not formed by loop edges")
    return order


def matching_loop_end(schema: ProcessSchema, loop_start_id: str) -> str:
    for edge in loop_edges(schema):
        if edge.target == loop_start_id:
            return edge.source
    raise SchemaError(f"no loop edge back to {loop_start_id!r}")


def matching_loop_start(schema: ProcessSchema, loop_end_id: str) -> str:
    for edge in loop_edges(schema):
        if edge.source == loop_end_id:
            return edge.target
    raise SchemaError(f"no loop edge from {loop_end_id!r}")


def loop_body(schema: ProcessSchema, loop_start_id: str) -> Set[str]:
    """Nodes strictly inside the loop block, plus its loop-end node."""
    loop_end_id = matching_loop_end(schema, loop_start_id)
    inside = reach(schema, loop_start_id, forward=True, include_sync=False)
    after_end = reach(schema, loop_end_id, forward=True, include_sync=False)
    return (inside - after_end) | {loop_end_id}


def innermost_loop_start(schema: ProcessSchema, node_id: str) -> Optional[str]:
    """Loop start of the smallest loop containing ``node_id`` (first wins ties)."""
    best = None
    for edge in loop_edges(schema):
        body = loop_body(schema, edge.target)
        if node_id in body or node_id == edge.target:
            if best is None or len(body) < best[0]:
                best = (len(body), edge.target)
    return best[1] if best is not None else None


def data_edges_of(schema: ProcessSchema, activity: str) -> list:
    return [d for d in schema.data_edges if d.activity == activity]


def reads_of(schema: ProcessSchema, activity: str) -> list:
    return [d for d in data_edges_of(schema, activity) if d.is_read]


def writes_of(schema: ProcessSchema, activity: str) -> list:
    return [d for d in data_edges_of(schema, activity) if d.is_write]


def writers_of(schema: ProcessSchema, element: str) -> List[str]:
    return [d.activity for d in schema.data_edges if d.element == element and d.is_write]


def readers_of(schema: ProcessSchema, element: str) -> List[str]:
    return [d.activity for d in schema.data_edges if d.element == element and d.is_read]
