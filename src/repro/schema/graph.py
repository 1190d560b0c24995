"""The :class:`ProcessSchema` graph — the central schema object of ADEPT2.

A process schema (also called a *process template* in the paper) combines
nodes, control/sync/loop edges and the data-flow model into one graph.
Schemas are identified by a process type name and a version counter so
the schema repository (:mod:`repro.storage.repository`) can manage
schema evolution (V1, V2, ... in the paper's Fig. 3).

The class offers purely structural queries (successors, predecessors,
reachability, topological order); correctness checks live in
:mod:`repro.verification` and change operations in :mod:`repro.core`.
"""

from __future__ import annotations

import copy as _copy
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.schema.data import DataEdge, DataElement
from repro.schema.edges import Edge, EdgeType
from repro.schema.index import SchemaIndex
from repro.schema.nodes import Node


class SchemaError(ReproError):
    """Raised when a schema is manipulated in a structurally invalid way."""


class ProcessSchema:
    """A block-structured WSM-net process schema.

    Args:
        schema_id: Unique identifier of this schema object.
        name: Process type name (e.g. ``"online_order"``).
        version: Version counter within the process type (1-based).

    The schema is mutable while it is built: change operations and the
    builder add and remove nodes and edges.  Once a process type releases
    it as a version it is frozen (:meth:`freeze`) and every mutation raises
    :class:`SchemaError`; change operations work on a copy.  Runtime
    components never mutate schemas; they hold references and
    instance-specific markings instead (the redundancy-free storage
    representation of the paper's Fig. 2).
    """

    def __init__(self, schema_id: str, name: str = "", version: int = 1) -> None:
        if not schema_id:
            raise SchemaError("schema_id must be non-empty")
        if version < 1:
            raise SchemaError(f"version must be >= 1, got {version}")
        self.schema_id = schema_id
        self.name = name or schema_id
        self.version = version
        self._nodes: Dict[str, Node] = {}
        self._edges: Dict[Tuple[str, str, str], Edge] = {}
        self._data_elements: Dict[str, DataElement] = {}
        self._data_edges: Dict[Tuple[str, str, str], DataEdge] = {}
        self._generation: int = 0
        self._index: Optional[SchemaIndex] = None
        self._frozen = False

    # ------------------------------------------------------------------ #
    # compiled index and invalidation
    # ------------------------------------------------------------------ #

    @property
    def generation(self) -> int:
        """Monotonic counter bumped by every structural mutation."""
        return self._generation

    @property
    def index(self) -> SchemaIndex:
        """The compiled :class:`SchemaIndex` of this schema.

        Rebuilt lazily whenever the schema mutated since the index was
        compiled (generation-counter invalidation).  All structural query
        methods of the schema answer from this index; hot-path callers
        hold it directly to reuse its cached structures across many
        queries.
        """
        index = self._index
        if index is None or index.generation != self._generation:
            index = SchemaIndex(self)
            self._index = index
        return index

    def shed_analyses(self) -> None:
        """Drop the index's release-time analyses (:meth:`SchemaIndex.shed_analyses`).

        A schema that was never indexed holds none, and gets no index.
        """
        if self._index is not None:
            self._index.shed_analyses()

    def drop_index(self) -> None:
        """Drop the compiled index with its layout and kernel; :attr:`index` rebuilds it."""
        self._index = None

    def freeze(self) -> None:
        """Refuse every later mutation: a released version never changes.

        A rebuilt index of a frozen schema therefore has the node and edge
        positions of every earlier one, so positionally stored markings
        decode onto it unchanged.
        """
        self._frozen = True

    def _bump(self) -> None:
        """Invalidate the compiled index before a structural mutation."""
        if self._frozen:
            raise SchemaError(
                f"schema {self.schema_id!r} is a released version and cannot change; "
                f"change a copy"
            )
        self._generation += 1

    def raw_edges(self) -> Iterable[Edge]:
        """All edges in insertion order, without copying (index builder)."""
        return self._edges.values()

    def raw_data_edges(self) -> Iterable[DataEdge]:
        """All data edges in insertion order, without copying (index builder)."""
        return self._data_edges.values()

    # ------------------------------------------------------------------ #
    # basic collection accessors
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> Dict[str, Node]:
        """Mapping of node id to node (do not mutate directly)."""
        return self._nodes

    @property
    def edges(self) -> List[Edge]:
        """All edges of the schema in insertion order."""
        return list(self._edges.values())

    @property
    def data_elements(self) -> Dict[str, DataElement]:
        """Mapping of data element name to element."""
        return self._data_elements

    @property
    def data_edges(self) -> List[DataEdge]:
        """All data edges of the schema."""
        return list(self._data_edges.values())

    def node_ids(self) -> List[str]:
        """All node ids in insertion order."""
        return list(self._nodes)

    def activity_ids(self) -> List[str]:
        """Ids of all activity (non-structural) nodes."""
        return [n.node_id for n in self._nodes.values() if n.is_activity]

    def node(self, node_id: str) -> Node:
        """Return the node with ``node_id`` or raise :class:`SchemaError`."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise SchemaError(f"unknown node: {node_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def has_edge(self, source: str, target: str, edge_type: EdgeType = EdgeType.CONTROL) -> bool:
        return (source, target, edge_type.value) in self._edges

    def edge(self, source: str, target: str, edge_type: EdgeType = EdgeType.CONTROL) -> Edge:
        """Return the edge identified by its endpoints and type."""
        try:
            return self._edges[(source, target, edge_type.value)]
        except KeyError:
            raise SchemaError(
                f"unknown {edge_type.value} edge: {source!r} -> {target!r}"
            ) from None

    def has_data_element(self, name: str) -> bool:
        return name in self._data_elements

    def data_element(self, name: str) -> DataElement:
        try:
            return self._data_elements[name]
        except KeyError:
            raise SchemaError(f"unknown data element: {name!r}") from None

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def add_node(self, node: Node) -> None:
        """Add a node; its id must not already exist."""
        if node.node_id in self._nodes:
            raise SchemaError(f"duplicate node id: {node.node_id!r}")
        self._bump()
        self._nodes[node.node_id] = node

    def replace_node(self, node: Node) -> None:
        """Replace an existing node (same id) with a new definition."""
        if node.node_id not in self._nodes:
            raise SchemaError(f"unknown node: {node.node_id!r}")
        self._bump()
        self._nodes[node.node_id] = node

    def remove_node(self, node_id: str) -> None:
        """Remove a node and every control/sync/loop/data edge touching it."""
        if node_id not in self._nodes:
            raise SchemaError(f"unknown node: {node_id!r}")
        self._bump()
        del self._nodes[node_id]
        self._edges = {
            key: edge
            for key, edge in self._edges.items()
            if edge.source != node_id and edge.target != node_id
        }
        self._data_edges = {
            key: dedge
            for key, dedge in self._data_edges.items()
            if dedge.activity != node_id
        }

    def add_edge(self, edge: Edge) -> None:
        """Add an edge; endpoints must exist and the edge must be new."""
        if edge.source not in self._nodes:
            raise SchemaError(f"edge source does not exist: {edge.source!r}")
        if edge.target not in self._nodes:
            raise SchemaError(f"edge target does not exist: {edge.target!r}")
        if edge.key in self._edges:
            raise SchemaError(
                f"duplicate {edge.edge_type.value} edge: {edge.source!r} -> {edge.target!r}"
            )
        self._bump()
        self._edges[edge.key] = edge

    def remove_edge(self, source: str, target: str, edge_type: EdgeType = EdgeType.CONTROL) -> None:
        """Remove the edge identified by its endpoints and type."""
        key = (source, target, edge_type.value)
        if key not in self._edges:
            raise SchemaError(f"unknown {edge_type.value} edge: {source!r} -> {target!r}")
        self._bump()
        del self._edges[key]

    def replace_edge(self, edge: Edge) -> None:
        """Replace an existing edge (same key) with a new definition."""
        if edge.key not in self._edges:
            raise SchemaError(
                f"unknown {edge.edge_type.value} edge: {edge.source!r} -> {edge.target!r}"
            )
        self._bump()
        self._edges[edge.key] = edge

    def add_data_element(self, element: DataElement) -> None:
        if element.name in self._data_elements:
            raise SchemaError(f"duplicate data element: {element.name!r}")
        self._bump()
        self._data_elements[element.name] = element

    def remove_data_element(self, name: str) -> None:
        """Remove a data element and all data edges referring to it."""
        if name not in self._data_elements:
            raise SchemaError(f"unknown data element: {name!r}")
        self._bump()
        del self._data_elements[name]
        self._data_edges = {
            key: dedge for key, dedge in self._data_edges.items() if dedge.element != name
        }

    def add_data_edge(self, data_edge: DataEdge) -> None:
        if data_edge.activity not in self._nodes:
            raise SchemaError(f"data edge activity does not exist: {data_edge.activity!r}")
        if data_edge.element not in self._data_elements:
            raise SchemaError(f"data edge element does not exist: {data_edge.element!r}")
        if data_edge.key in self._data_edges:
            raise SchemaError(
                f"duplicate data edge: {data_edge.activity!r} {data_edge.access.value} "
                f"{data_edge.element!r}"
            )
        self._bump()
        self._data_edges[data_edge.key] = data_edge

    def remove_data_edge(self, activity: str, element: str, access) -> None:
        key = (activity, element, getattr(access, "value", access))
        if key not in self._data_edges:
            raise SchemaError(f"unknown data edge: {key!r}")
        self._bump()
        del self._data_edges[key]

    # ------------------------------------------------------------------ #
    # structural queries
    # ------------------------------------------------------------------ #

    def start_node(self) -> Node:
        """The unique start node of the schema."""
        return self.node(self.index.start_node_id())

    def end_node(self) -> Node:
        """The unique end node of the schema."""
        return self.node(self.index.end_node_id())

    def edges_from(self, node_id: str, edge_type: Optional[EdgeType] = None) -> List[Edge]:
        """Outgoing edges of ``node_id``, optionally filtered by type."""
        return self.index.edges_from(node_id, edge_type)

    def edges_to(self, node_id: str, edge_type: Optional[EdgeType] = None) -> List[Edge]:
        """Incoming edges of ``node_id``, optionally filtered by type."""
        return self.index.edges_to(node_id, edge_type)

    def successors(self, node_id: str, edge_type: EdgeType = EdgeType.CONTROL) -> List[str]:
        """Direct successors of ``node_id`` via edges of ``edge_type``."""
        return self.index.successors(node_id, edge_type)

    def predecessors(self, node_id: str, edge_type: EdgeType = EdgeType.CONTROL) -> List[str]:
        """Direct predecessors of ``node_id`` via edges of ``edge_type``."""
        return self.index.predecessors(node_id, edge_type)

    def control_edges(self) -> List[Edge]:
        return self.index.control_edges()

    def sync_edges(self) -> List[Edge]:
        return self.index.sync_edges()

    def loop_edges(self) -> List[Edge]:
        return self.index.loop_edges()

    def transitive_successors(self, node_id: str, include_sync: bool = False) -> Set[str]:
        """All nodes reachable from ``node_id`` via control (and optionally
        sync) edges, excluding loop-back edges and the node itself."""
        return set(self.index.transitive_successors(node_id, include_sync))

    def transitive_predecessors(self, node_id: str, include_sync: bool = False) -> Set[str]:
        """All nodes from which ``node_id`` is reachable via control (and
        optionally sync) edges, excluding loop-back edges and the node itself."""
        return set(self.index.transitive_predecessors(node_id, include_sync))

    def is_predecessor(self, earlier: str, later: str, include_sync: bool = True) -> bool:
        """True when ``earlier`` precedes ``later`` in the (acyclic) flow."""
        return later in self.index.transitive_successors(earlier, include_sync)

    def are_parallel(self, first: str, second: str) -> bool:
        """True when neither node precedes the other (concurrent nodes)."""
        if first == second:
            return False
        return not self.is_predecessor(first, second) and not self.is_predecessor(second, first)

    def topological_order(self, include_sync: bool = True) -> List[str]:
        """Node ids in a topological order of the control (+sync) graph.

        Loop edges are ignored, because they are the only intentional
        cycles of a correct WSM net.  Raises :class:`SchemaError` if the
        remaining graph is cyclic (which verification reports as a
        deadlock-causing cycle).
        """
        return self.index.topological_order(include_sync)

    def control_path_exists(self, source: str, target: str) -> bool:
        """True when a pure control-edge path leads from source to target."""
        return target in self.index.transitive_successors(source, include_sync=False)

    def loop_body(self, loop_start_id: str) -> Set[str]:
        """All nodes strictly inside the loop block opened by ``loop_start_id``."""
        return set(self.index.loop_body(loop_start_id))

    def matching_loop_end(self, loop_start_id: str) -> str:
        """The loop-end node whose loop edge points back to ``loop_start_id``."""
        return self.index.matching_loop_end(loop_start_id)

    def matching_loop_start(self, loop_end_id: str) -> str:
        """The loop-start node targeted by the loop edge of ``loop_end_id``."""
        return self.index.matching_loop_start(loop_end_id)

    # ------------------------------------------------------------------ #
    # data-flow queries
    # ------------------------------------------------------------------ #

    def writers_of(self, element: str) -> List[str]:
        """Activities writing ``element``."""
        return self.index.writers_of(element)

    def readers_of(self, element: str) -> List[str]:
        """Activities reading ``element``."""
        return self.index.readers_of(element)

    def data_edges_of(self, activity: str) -> List[DataEdge]:
        """All data edges attached to ``activity``."""
        return self.index.data_edges_of(activity)

    def reads_of(self, activity: str) -> List[DataEdge]:
        return self.index.reads_of(activity)

    def writes_of(self, activity: str) -> List[DataEdge]:
        return self.index.writes_of(activity)

    # ------------------------------------------------------------------ #
    # copy / compare / serialize
    # ------------------------------------------------------------------ #

    def copy(self, schema_id: Optional[str] = None, version: Optional[int] = None) -> "ProcessSchema":
        """Deep copy of the schema, optionally re-identified."""
        clone = ProcessSchema(
            schema_id=schema_id or self.schema_id,
            name=self.name,
            version=version if version is not None else self.version,
        )
        clone._nodes = dict(self._nodes)
        clone._edges = dict(self._edges)
        clone._data_elements = dict(self._data_elements)
        clone._data_edges = dict(self._data_edges)
        return clone

    def structurally_equals(self, other: "ProcessSchema") -> bool:
        """Graph equality ignoring schema id, name and version."""
        if set(self._nodes) != set(other._nodes):
            return False
        for node_id, node in self._nodes.items():
            theirs = other._nodes[node_id]
            if node.node_type != theirs.node_type or node.name != theirs.name:
                return False
        if set(self._edges) != set(other._edges):
            return False
        for key, edge in self._edges.items():
            theirs = other._edges[key]
            if edge.guard != theirs.guard or edge.loop_condition != theirs.loop_condition:
                return False
        if set(self._data_elements) != set(other._data_elements):
            return False
        if set(self._data_edges) != set(other._data_edges):
            return False
        return True

    def size(self) -> Tuple[int, int, int, int]:
        """(node count, edge count, data element count, data edge count)."""
        return (
            len(self._nodes),
            len(self._edges),
            len(self._data_elements),
            len(self._data_edges),
        )

    def to_dict(self) -> dict:
        """Serialize the complete schema to a JSON-compatible dictionary."""
        return {
            "schema_id": self.schema_id,
            "name": self.name,
            "version": self.version,
            "nodes": [n.to_dict() for n in self._nodes.values()],
            "edges": [e.to_dict() for e in self._edges.values()],
            "data_elements": [d.to_dict() for d in self._data_elements.values()],
            "data_edges": [d.to_dict() for d in self._data_edges.values()],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ProcessSchema":
        """Reconstruct a schema from :meth:`to_dict` output."""
        schema = cls(
            schema_id=payload["schema_id"],
            name=payload.get("name", ""),
            version=payload.get("version", 1),
        )
        for node_payload in payload.get("nodes", []):
            schema.add_node(Node.from_dict(node_payload))
        for element_payload in payload.get("data_elements", []):
            schema.add_data_element(DataElement.from_dict(element_payload))
        for edge_payload in payload.get("edges", []):
            schema.add_edge(Edge.from_dict(edge_payload))
        for dedge_payload in payload.get("data_edges", []):
            schema.add_data_edge(DataEdge.from_dict(dedge_payload))
        return schema

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        nodes, edges, elements, dedges = self.size()
        return (
            f"ProcessSchema({self.schema_id!r}, name={self.name!r}, version={self.version}, "
            f"nodes={nodes}, edges={edges}, data={elements}/{dedges})"
        )
