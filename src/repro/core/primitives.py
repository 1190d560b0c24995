"""Low-level graph transformation primitives.

The high-level change operations (:mod:`repro.core.operations`) are
composed from a handful of primitives that keep the block structure of a
WSM net intact: inserting a node into a control edge, removing an
activity and bridging its neighbours, or wrapping an activity into a new
AND/XOR block.  The primitives mutate the schema they are given — change
operations always work on copies.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.schema.edges import Edge, EdgeType
from repro.schema.graph import ProcessSchema, SchemaError
from repro.schema.nodes import Node, NodeType


def insert_node_between(schema: ProcessSchema, node: Node, pred: str, succ: str) -> None:
    """Insert ``node`` into the control edge ``pred -> succ``.

    The edge must exist; it is removed and replaced by the two edges
    ``pred -> node`` and ``node -> succ``.  Guards on the original edge
    stay on the first of the two new edges so XOR branch entry semantics
    are preserved.
    """
    if not schema.has_edge(pred, succ, EdgeType.CONTROL):
        raise SchemaError(f"no control edge {pred!r} -> {succ!r} to insert into")
    original = schema.edge(pred, succ, EdgeType.CONTROL)
    schema.add_node(node)
    schema.remove_edge(pred, succ, EdgeType.CONTROL)
    schema.add_edge(Edge(source=pred, target=node.node_id, edge_type=EdgeType.CONTROL, guard=original.guard))
    schema.add_edge(Edge(source=node.node_id, target=succ, edge_type=EdgeType.CONTROL))


def _sole_control_edges(schema: ProcessSchema, node_id: str) -> Tuple[Edge, Edge]:
    """The one incoming and the one outgoing control edge of an activity.

    Read from the raw edge list rather than the compiled index: the
    schema is a copy about to change, and an index compiled for this one
    lookup would be discarded by the change.
    """
    incoming: List[Edge] = []
    outgoing: List[Edge] = []
    for edge in schema.raw_edges():
        if edge.edge_type is EdgeType.CONTROL:
            if edge.target == node_id:
                incoming.append(edge)
            elif edge.source == node_id:
                outgoing.append(edge)
    if len(incoming) != 1 or len(outgoing) != 1:
        raise SchemaError(
            f"activity {node_id!r} must have exactly one incoming and outgoing control edge"
        )
    return incoming[0], outgoing[0]


def remove_activity_and_bridge(schema: ProcessSchema, node_id: str) -> Tuple[str, str]:
    """Remove an activity and reconnect its control predecessor and successor.

    Returns the ``(pred, succ)`` pair that was bridged.  The activity must
    have exactly one incoming and one outgoing control edge (guaranteed
    for activities of block-structured schemas).  If the bridge edge
    already exists (the neighbouring split/join pair already has an empty
    branch) a :class:`SchemaError` is raised.
    """
    node = schema.node(node_id)
    if not node.is_activity:
        raise SchemaError(f"only activity nodes can be deleted, {node_id!r} is {node.node_type.value}")
    incoming, outgoing = _sole_control_edges(schema, node_id)
    pred, succ = incoming.source, outgoing.target
    guard = incoming.guard
    if schema.has_edge(pred, succ, EdgeType.CONTROL):
        raise SchemaError(
            f"removing {node_id!r} would duplicate the control edge {pred!r} -> {succ!r}"
        )
    schema.remove_node(node_id)
    schema.add_edge(Edge(source=pred, target=succ, edge_type=EdgeType.CONTROL, guard=guard))
    return pred, succ


def wrap_in_parallel_block(
    schema: ProcessSchema,
    existing: str,
    new_node: Node,
    split_id: str,
    join_id: str,
) -> None:
    """Put ``new_node`` in parallel to the existing activity ``existing``.

    The single control edge into and out of ``existing`` are re-routed
    through a freshly created AND split/join pair::

        pred -> AND_split -> existing -> AND_join -> succ
                        \\-> new_node --/
    """
    target = schema.node(existing)
    if not target.is_activity:
        raise SchemaError(f"can only parallel-insert next to activities, {existing!r} is {target.node_type.value}")
    pred_edge, succ_edge = _sole_control_edges(schema, existing)
    pred, succ = pred_edge.source, succ_edge.target
    schema.add_node(Node(node_id=split_id, node_type=NodeType.AND_SPLIT, name=split_id))
    schema.add_node(Node(node_id=join_id, node_type=NodeType.AND_JOIN, name=join_id))
    schema.add_node(new_node)
    schema.remove_edge(pred, existing, EdgeType.CONTROL)
    schema.remove_edge(existing, succ, EdgeType.CONTROL)
    schema.add_edge(Edge(source=pred, target=split_id, edge_type=EdgeType.CONTROL, guard=pred_edge.guard))
    schema.add_edge(Edge(source=split_id, target=existing, edge_type=EdgeType.CONTROL))
    schema.add_edge(Edge(source=split_id, target=new_node.node_id, edge_type=EdgeType.CONTROL))
    schema.add_edge(Edge(source=existing, target=join_id, edge_type=EdgeType.CONTROL))
    schema.add_edge(Edge(source=new_node.node_id, target=join_id, edge_type=EdgeType.CONTROL))
    schema.add_edge(Edge(source=join_id, target=succ, edge_type=EdgeType.CONTROL))


def insert_conditional_block(
    schema: ProcessSchema,
    new_node: Node,
    pred: str,
    succ: str,
    guard: Optional[str],
    split_id: str,
    join_id: str,
) -> None:
    """Insert ``new_node`` conditionally between ``pred`` and ``succ``.

    Creates an XOR block whose guarded branch contains the new activity
    and whose default branch is empty::

        pred -> XOR_split -[guard]-> new_node -> XOR_join -> succ
                        \\--(default)------------/
    """
    if not schema.has_edge(pred, succ, EdgeType.CONTROL):
        raise SchemaError(f"no control edge {pred!r} -> {succ!r} to insert into")
    original = schema.edge(pred, succ, EdgeType.CONTROL)
    schema.add_node(Node(node_id=split_id, node_type=NodeType.XOR_SPLIT, name=split_id))
    schema.add_node(Node(node_id=join_id, node_type=NodeType.XOR_JOIN, name=join_id))
    schema.add_node(new_node)
    schema.remove_edge(pred, succ, EdgeType.CONTROL)
    schema.add_edge(Edge(source=pred, target=split_id, edge_type=EdgeType.CONTROL, guard=original.guard))
    schema.add_edge(Edge(source=split_id, target=new_node.node_id, edge_type=EdgeType.CONTROL, guard=guard))
    schema.add_edge(Edge(source=new_node.node_id, target=join_id, edge_type=EdgeType.CONTROL))
    schema.add_edge(Edge(source=split_id, target=join_id, edge_type=EdgeType.CONTROL))
    schema.add_edge(Edge(source=join_id, target=succ, edge_type=EdgeType.CONTROL))


def control_edge_between(schema: ProcessSchema, pred: str, succ: str) -> Optional[Edge]:
    """The control edge ``pred -> succ`` if present, else ``None``."""
    if schema.has_edge(pred, succ, EdgeType.CONTROL):
        return schema.edge(pred, succ, EdgeType.CONTROL)
    return None
