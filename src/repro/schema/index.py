"""The compiled :class:`SchemaIndex` — indexed structural view of a schema.

Every structural question the engine, the verifiers, the change
operations or the migration manager ask (successors, predecessors,
topological order, reachability, block structure, data-flow maps) is
answered from structures compiled once per schema instead of scanning
the schema's full edge list — O(E) — per query.  Given a
:class:`~repro.schema.graph.ProcessSchema`,
a :class:`SchemaIndex` builds per-node adjacency maps for all three edge
types (forward and backward), caches start/end nodes, topological orders
and ranks, reachability sets, dominator/post-dominator sets, the block
nesting tree, loop-body sets and per-activity read/write data-flow maps.

Invalidation is by **generation counter**: every structural mutation of a
:class:`ProcessSchema` bumps ``schema.generation``; ``schema.index``
lazily rebuilds its index when the cached one is stale.  All instances of
a process type share the type schema object and therefore one compiled
index — exactly the redundancy-free sharing of the paper's storage model.

Contract for callers holding an index across operations: an index is a
snapshot of one generation.  Holding it across *reads* (stepping many
instances, verifying, migrating a population) is the intended use; after
any structural mutation of the schema, re-fetch ``schema.index``.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.schema.data import DataEdge
from repro.schema.edges import Edge, EdgeType
from repro.schema.nodes import Node, NodeType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (graph imports index)
    from repro.schema.blocks import BlockTree
    from repro.schema.graph import ProcessSchema

EdgeKey = Tuple[str, str, str]


class SchemaIndex:
    """Compiled structural index of one schema at one generation.

    The constructor eagerly builds the cheap O(N + E) structures
    (adjacency, edge-type partitions, data-flow maps); everything
    quadratic or failure-prone (topological orders, reachability,
    dominators, blocks) is computed lazily on first use and cached; a
    superseded schema version sheds the release-time caches
    (:meth:`shed_analyses`).
    Obtain instances through ``schema.index`` (or :meth:`SchemaIndex.of`),
    which reuses the cached index while ``schema.generation`` is
    unchanged.
    """

    __slots__ = (
        "_schema_ref",
        "generation",
        "node_ids",
        "_nodes",
        "_out_all",
        "_in_all",
        "_out_control",
        "_in_control",
        "_out_sync",
        "_in_sync",
        "_out_loop",
        "_in_loop",
        "_control_edge_list",
        "_sync_edge_list",
        "_loop_edge_list",
        "_non_loop_edge_keys",
        "_loop_start_of",
        "_loop_end_of",
        "_data_edges_of",
        "_reads_of",
        "_writes_of",
        "_writers_of",
        "_readers_of",
        "_activity_ids",
        "_start_id",
        "_end_id",
        "_topo_cache",
        "_rank_cache",
        "_reach_cache",
        "_loop_body_cache",
        "_loop_internal_edges",
        "_innermost_loop",
        "_dominators",
        "_post_dominators",
        "_matching_join",
        "_matching_split",
        "_block_tree",
        "_written_before",
        "_entry_specs",
        "_marking_layout",
        "_step_kernel",
        "_round_bound",
    )

    def __init__(self, schema: "ProcessSchema") -> None:
        # weak: the schema owns its index.  A strong back-reference would make
        # every discarded schema (an evicted or re-migrated biased case's private
        # execution schema, ~40 KB with index and kernel) a reference cycle
        # that waits for a full collection instead of being freed on the spot
        self._schema_ref = weakref.ref(schema)
        self.generation = schema.generation

        nodes = schema.nodes
        self._nodes: Dict[str, Node] = dict(nodes)
        self.node_ids: Tuple[str, ...] = tuple(nodes)
        self._activity_ids: Tuple[str, ...] = tuple(
            node_id for node_id, node in nodes.items() if node.is_activity
        )

        # sparse: a node appears in an adjacency map only once it has an
        # edge of that kind (most nodes have no sync or loop edge); every
        # reader asks with ``.get(node_id, _EMPTY_EDGES)``
        out_all: Dict[str, List[Edge]] = {}
        in_all: Dict[str, List[Edge]] = {}
        out_control: Dict[str, List[Edge]] = {}
        in_control: Dict[str, List[Edge]] = {}
        out_sync: Dict[str, List[Edge]] = {}
        in_sync: Dict[str, List[Edge]] = {}
        out_loop: Dict[str, List[Edge]] = {}
        in_loop: Dict[str, List[Edge]] = {}
        control_edges: List[Edge] = []
        sync_edges: List[Edge] = []
        loop_edges: List[Edge] = []
        non_loop_keys: List[EdgeKey] = []
        loop_start_of: Dict[str, str] = {}
        loop_end_of: Dict[str, str] = {}

        for edge in schema.raw_edges():
            source, target = edge.source, edge.target
            if source not in nodes or target not in nodes:
                # cannot occur (remove_node prunes a node's edges); a
                # dangling endpoint would otherwise pass unnoticed
                raise KeyError(f"edge {edge.key!r} has an endpoint outside the schema")
            out_all.setdefault(source, []).append(edge)
            in_all.setdefault(target, []).append(edge)
            if edge.edge_type is EdgeType.CONTROL:
                out_control.setdefault(source, []).append(edge)
                in_control.setdefault(target, []).append(edge)
                control_edges.append(edge)
                non_loop_keys.append(edge.key)
            elif edge.edge_type is EdgeType.SYNC:
                out_sync.setdefault(source, []).append(edge)
                in_sync.setdefault(target, []).append(edge)
                sync_edges.append(edge)
                non_loop_keys.append(edge.key)
            else:
                out_loop.setdefault(source, []).append(edge)
                in_loop.setdefault(target, []).append(edge)
                loop_edges.append(edge)
                # first loop edge (in insertion order) wins
                loop_start_of.setdefault(source, target)
                loop_end_of.setdefault(target, source)

        self._out_all = out_all
        self._in_all = in_all
        self._out_control = out_control
        self._in_control = in_control
        self._out_sync = out_sync
        self._in_sync = in_sync
        self._out_loop = out_loop
        self._in_loop = in_loop
        self._control_edge_list = control_edges
        self._sync_edge_list = sync_edges
        self._loop_edge_list = loop_edges
        self._non_loop_edge_keys: Tuple[EdgeKey, ...] = tuple(non_loop_keys)
        self._loop_start_of = loop_start_of
        self._loop_end_of = loop_end_of

        data_edges_of: Dict[str, List[DataEdge]] = {}
        reads_of: Dict[str, List[DataEdge]] = {}
        writes_of: Dict[str, List[DataEdge]] = {}
        writers_of: Dict[str, List[str]] = {}
        readers_of: Dict[str, List[str]] = {}
        for dedge in schema.raw_data_edges():
            data_edges_of.setdefault(dedge.activity, []).append(dedge)
            if dedge.is_read:
                reads_of.setdefault(dedge.activity, []).append(dedge)
                readers_of.setdefault(dedge.element, []).append(dedge.activity)
            if dedge.is_write:
                writes_of.setdefault(dedge.activity, []).append(dedge)
                writers_of.setdefault(dedge.element, []).append(dedge.activity)
        self._data_edges_of = data_edges_of
        self._reads_of = reads_of
        self._writes_of = writes_of
        self._writers_of = writers_of
        self._readers_of = readers_of

        # lazily populated caches
        self._start_id: Optional[str] = None
        self._end_id: Optional[str] = None
        self._topo_cache: Dict[bool, List[str]] = {}
        self._rank_cache: Dict[bool, Dict[str, int]] = {}
        self._reach_cache: Dict[Tuple[str, bool, bool], FrozenSet[str]] = {}
        self._loop_body_cache: Dict[str, Set[str]] = {}
        self._loop_internal_edges: Dict[str, Tuple[Edge, ...]] = {}
        self._innermost_loop: Dict[str, Optional[str]] = {}
        self._dominators: Optional[Dict[str, Set[str]]] = None
        self._post_dominators: Optional[Dict[str, Set[str]]] = None
        self._matching_join: Dict[str, str] = {}
        self._matching_split: Dict[str, str] = {}
        self._block_tree: Optional["BlockTree"] = None
        self._written_before: Optional[Dict[str, Set[str]]] = None
        self._entry_specs: Optional[Dict[str, Tuple[int, Tuple[EdgeKey, ...], Tuple[EdgeKey, ...]]]] = None
        self._marking_layout = None  # lazily built MarkingLayout (runtime.kernel)
        self._step_kernel = None  # lazily compiled StepKernel (runtime.kernel)
        self._round_bound: Optional[int] = None

    # ------------------------------------------------------------------ #
    # acquisition
    # ------------------------------------------------------------------ #

    @classmethod
    def of(cls, schema: "ProcessSchema") -> "SchemaIndex":
        """The (cached) index of ``schema`` at its current generation."""
        return schema.index

    @property
    def schema(self) -> "ProcessSchema":
        return self._schema_ref()

    @property
    def stale(self) -> bool:
        """True once the schema mutated past this index's generation."""
        return self.generation != self.schema.generation

    # ------------------------------------------------------------------ #
    # nodes
    # ------------------------------------------------------------------ #

    def node(self, node_id: str) -> Node:
        """The node object behind ``node_id`` (raises ``SchemaError``)."""
        try:
            return self._nodes[node_id]
        except KeyError:
            from repro.schema.graph import SchemaError

            raise SchemaError(f"unknown node: {node_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def activity_ids(self) -> List[str]:
        return list(self._activity_ids)

    def start_node_id(self) -> str:
        """Id of the unique start node (cached; raises ``SchemaError``)."""
        if self._start_id is None:
            starts = [n for n in self._nodes.values() if n.node_type is NodeType.START]
            if len(starts) != 1:
                from repro.schema.graph import SchemaError

                raise SchemaError(
                    f"schema must have exactly one start node, found {len(starts)}"
                )
            self._start_id = starts[0].node_id
        return self._start_id

    def end_node_id(self) -> str:
        """Id of the unique end node (cached; raises ``SchemaError``)."""
        if self._end_id is None:
            ends = [n for n in self._nodes.values() if n.node_type is NodeType.END]
            if len(ends) != 1:
                from repro.schema.graph import SchemaError

                raise SchemaError(
                    f"schema must have exactly one end node, found {len(ends)}"
                )
            self._end_id = ends[0].node_id
        return self._end_id

    # ------------------------------------------------------------------ #
    # adjacency (hot path: the returned lists are the internal ones —
    # treat them as immutable)
    # ------------------------------------------------------------------ #

    def out_edges(self, node_id: str, edge_type: Optional[EdgeType] = None) -> List[Edge]:
        """Outgoing edges of ``node_id`` (internal list, do not mutate)."""
        table = self._out_table(edge_type)
        return table.get(node_id, _EMPTY_EDGES)

    def in_edges(self, node_id: str, edge_type: Optional[EdgeType] = None) -> List[Edge]:
        """Incoming edges of ``node_id`` (internal list, do not mutate)."""
        table = self._in_table(edge_type)
        return table.get(node_id, _EMPTY_EDGES)

    def _out_table(self, edge_type: Optional[EdgeType]) -> Dict[str, List[Edge]]:
        if edge_type is None:
            return self._out_all
        if edge_type is EdgeType.CONTROL:
            return self._out_control
        if edge_type is EdgeType.SYNC:
            return self._out_sync
        return self._out_loop

    def _in_table(self, edge_type: Optional[EdgeType]) -> Dict[str, List[Edge]]:
        if edge_type is None:
            return self._in_all
        if edge_type is EdgeType.CONTROL:
            return self._in_control
        if edge_type is EdgeType.SYNC:
            return self._in_sync
        return self._in_loop

    def edges_from(self, node_id: str, edge_type: Optional[EdgeType] = None) -> List[Edge]:
        """Copy-returning variant of :meth:`out_edges` (schema API parity)."""
        return list(self.out_edges(node_id, edge_type))

    def edges_to(self, node_id: str, edge_type: Optional[EdgeType] = None) -> List[Edge]:
        """Copy-returning variant of :meth:`in_edges` (schema API parity)."""
        return list(self.in_edges(node_id, edge_type))

    def successors(self, node_id: str, edge_type: EdgeType = EdgeType.CONTROL) -> List[str]:
        return [edge.target for edge in self.out_edges(node_id, edge_type)]

    def predecessors(self, node_id: str, edge_type: EdgeType = EdgeType.CONTROL) -> List[str]:
        return [edge.source for edge in self.in_edges(node_id, edge_type)]

    def control_edges(self) -> List[Edge]:
        return list(self._control_edge_list)

    def sync_edges(self) -> List[Edge]:
        return list(self._sync_edge_list)

    def loop_edges(self) -> List[Edge]:
        return list(self._loop_edge_list)

    def non_loop_edge_keys(self) -> Tuple[EdgeKey, ...]:
        """Keys of all control and sync edges (marking initialisation)."""
        return self._non_loop_edge_keys

    # entry-spec kinds consumed by the step-kernel compiler
    ENTRY_START = 0
    ENTRY_AND_JOIN = 1
    ENTRY_XOR_JOIN = 2
    ENTRY_SINGLE = 3

    def entry_specs(self) -> Dict[str, Tuple[int, Tuple[EdgeKey, ...], Tuple[EdgeKey, ...]]]:
        """Per-node ``(kind, control edge keys, sync edge keys)`` triples.

        Compile input of :class:`repro.runtime.kernel.StepKernel`, which
        turns each triple into a decider closure over dense positions:
        whether a still-untouched node activates, skips or waits depends
        only on its kind and its incoming control/sync edge states.
        """
        specs = self._entry_specs
        if specs is None:
            specs = {}
            for node_id, node in self._nodes.items():
                node_type = node.node_type
                if node_type is NodeType.START:
                    kind = self.ENTRY_START
                elif node_type is NodeType.AND_JOIN:
                    kind = self.ENTRY_AND_JOIN
                elif node_type is NodeType.XOR_JOIN:
                    kind = self.ENTRY_XOR_JOIN
                else:
                    kind = self.ENTRY_SINGLE
                specs[node_id] = (
                    kind,
                    tuple(edge.key for edge in self._in_control.get(node_id, _EMPTY_EDGES)),
                    tuple(edge.key for edge in self._in_sync.get(node_id, _EMPTY_EDGES)),
                )
            self._entry_specs = specs
        return specs

    def marking_layout(self):
        """The dense marking coordinates of this generation (cached).

        One :class:`~repro.runtime.kernel.MarkingLayout` per index: the
        step kernel, the dense marking views and the positional stored
        form of a marking all share this object, so "same layout" is an
        identity check.  Building it needs no kernel compilation — the
        instance store decodes records of schemas that are never stepped.
        """
        layout = self._marking_layout
        if layout is None:
            from repro.runtime.kernel import MarkingLayout

            layout = MarkingLayout(
                self.schema.schema_id, self.generation, self.node_ids, self._non_loop_edge_keys
            )
            self._marking_layout = layout
        return layout

    def step_kernel(self):
        """The compiled per-schema stepping kernel (cached per generation).

        Compilation specialises every node's entry decision into a closure
        over dense marking positions; see :mod:`repro.runtime.kernel`.
        The kernel shares this index's lifetime: it is rebuilt together
        with the index when the schema generation moves on, and the engine
        refuses to run a stale kernel against a newer schema.
        """
        kernel = self._step_kernel
        if kernel is None:
            from repro.runtime.kernel import StepKernel

            kernel = StepKernel(self)
            self._step_kernel = kernel
        return kernel

    def propagation_round_bound(self) -> int:
        """Schema-derived bound on marking-propagation rounds (cached).

        Topological depth times the schema's total loop-iteration budget,
        floored at the legacy engine constant — see
        :func:`repro.runtime.kernel.derive_round_bound`.  The depth is at
        most the node count, so the topological pass that measures it runs
        only when the node count would lift the bound above the floor.
        """
        bound = self._round_bound
        if bound is None:
            from repro.runtime.kernel import (
                LEGACY_ROUND_BOUND,
                derive_round_bound,
                _control_depth,
                _loop_budget,
            )

            node_count = len(self._nodes)
            budget = _loop_budget(self._loop_edge_list, self)
            bound = derive_round_bound(node_count, max(node_count, 1), budget)
            if bound > LEGACY_ROUND_BOUND:
                bound = derive_round_bound(node_count, _control_depth(self), budget)
            self._round_bound = bound
        return bound

    # ------------------------------------------------------------------ #
    # loop structure
    # ------------------------------------------------------------------ #

    def matching_loop_end(self, loop_start_id: str) -> str:
        """The loop-end node whose loop edge points back to ``loop_start_id``."""
        try:
            return self._loop_end_of[loop_start_id]
        except KeyError:
            from repro.schema.graph import SchemaError

            raise SchemaError(f"no loop edge back to {loop_start_id!r}") from None

    def matching_loop_start(self, loop_end_id: str) -> str:
        """The loop-start node targeted by the loop edge of ``loop_end_id``."""
        try:
            return self._loop_start_of[loop_end_id]
        except KeyError:
            from repro.schema.graph import SchemaError

            raise SchemaError(f"no loop edge from {loop_end_id!r}") from None

    def loop_body(self, loop_start_id: str) -> Set[str]:
        """Nodes strictly inside the loop opened by ``loop_start_id`` (cached)."""
        body = self._loop_body_cache.get(loop_start_id)
        if body is None:
            loop_start = self.node(loop_start_id)
            if loop_start.node_type is not NodeType.LOOP_START:
                from repro.schema.graph import SchemaError

                raise SchemaError(f"{loop_start_id!r} is not a loop start node")
            loop_end_id = self.matching_loop_end(loop_start_id)
            inside = self.transitive_successors(loop_start_id, include_sync=False)
            after_end = self.transitive_successors(loop_end_id, include_sync=False)
            body = set(inside - after_end) - {loop_end_id}
            body.add(loop_end_id)
            self._loop_body_cache[loop_start_id] = body
        return body

    def loop_internal_edges(self, loop_start_id: str) -> Tuple[Edge, ...]:
        """Non-loop edges with both endpoints inside the loop block.

        These are exactly the edge states the engine resets on loop-back.
        """
        cached = self._loop_internal_edges.get(loop_start_id)
        if cached is None:
            reset_nodes = set(self.loop_body(loop_start_id)) | {loop_start_id}
            cached = tuple(
                edge
                for node_id in reset_nodes
                for edge in self._out_all.get(node_id, _EMPTY_EDGES)
                if not edge.is_loop and edge.target in reset_nodes
            )
            self._loop_internal_edges[loop_start_id] = cached
        return cached

    def innermost_loop_start(self, node_id: str) -> Optional[str]:
        """Loop-start id of the smallest loop containing ``node_id``, if any."""
        if node_id not in self._innermost_loop:
            best: Optional[Tuple[int, str]] = None
            for edge in self._loop_edge_list:
                loop_start_id = edge.target
                body = self.loop_body(loop_start_id)
                if node_id in body or node_id == loop_start_id:
                    size = len(body)
                    if best is None or size < best[0]:
                        best = (size, loop_start_id)
            self._innermost_loop[node_id] = best[1] if best is not None else None
        return self._innermost_loop[node_id]

    # ------------------------------------------------------------------ #
    # reachability and order
    # ------------------------------------------------------------------ #

    def transitive_successors(self, node_id: str, include_sync: bool = False) -> FrozenSet[str]:
        """All nodes reachable from ``node_id`` (loop edges excluded, cached)."""
        return self._reach(node_id, forward=True, include_sync=include_sync)

    def transitive_predecessors(self, node_id: str, include_sync: bool = False) -> FrozenSet[str]:
        """All nodes reaching ``node_id`` (loop edges excluded, cached)."""
        return self._reach(node_id, forward=False, include_sync=include_sync)

    def _reach(self, node_id: str, forward: bool, include_sync: bool) -> FrozenSet[str]:
        key = (node_id, forward, include_sync)
        cached = self._reach_cache.get(key)
        if cached is None:
            self.node(node_id)  # raise SchemaError for unknown nodes
            control = self._out_control if forward else self._in_control
            sync = self._out_sync if forward else self._in_sync
            seen: Set[str] = set()
            frontier = [node_id]
            while frontier:
                current = frontier.pop()
                edges = control.get(current, _EMPTY_EDGES)
                if include_sync:
                    edges = edges + sync.get(current, _EMPTY_EDGES)
                for edge in edges:
                    nxt = edge.target if forward else edge.source
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            seen.discard(node_id)
            cached = frozenset(seen)
            self._reach_cache[key] = cached
        return cached

    def topological_order(self, include_sync: bool = True) -> List[str]:
        """Cached topological order (ties broken by node id)."""
        cached = self._topo_cache.get(include_sync)
        if cached is None:
            cached = self._compute_topological_order(include_sync)
            self._topo_cache[include_sync] = cached
        return list(cached)

    def topo_rank(self, include_sync: bool = True) -> Dict[str, int]:
        """Mapping of node id to its position in the topological order."""
        cached = self._rank_cache.get(include_sync)
        if cached is None:
            cached = {
                node_id: rank
                for rank, node_id in enumerate(self.topological_order(include_sync))
            }
            self._rank_cache[include_sync] = cached
        return cached

    def _compute_topological_order(self, include_sync: bool) -> List[str]:
        indegree: Dict[str, int] = {node_id: 0 for node_id in self._nodes}
        adjacency: Dict[str, List[str]] = {node_id: [] for node_id in self._nodes}
        for edge in self._control_edge_list:
            adjacency[edge.source].append(edge.target)
            indegree[edge.target] += 1
        if include_sync:
            for edge in self._sync_edge_list:
                adjacency[edge.source].append(edge.target)
                indegree[edge.target] += 1
        ready = sorted(node_id for node_id, deg in indegree.items() if deg == 0)
        order: List[str] = []
        while ready:
            current = ready.pop(0)
            order.append(current)
            for nxt in adjacency[current]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
            ready.sort()
        if len(order) != len(self._nodes):
            from repro.schema.graph import SchemaError

            raise SchemaError("schema contains a cycle not formed by loop edges")
        return order

    # ------------------------------------------------------------------ #
    # dominators and blocks
    # ------------------------------------------------------------------ #

    def dominators(self) -> Dict[str, Set[str]]:
        """Cached dominator sets on the control DAG."""
        if self._dominators is None:
            from repro.schema.blocks import dominators

            self._dominators = dominators(
                self.schema, order=self.topological_order(include_sync=False)
            )
        return self._dominators

    def post_dominators(self) -> Dict[str, Set[str]]:
        """Cached post-dominator sets on the control DAG."""
        if self._post_dominators is None:
            from repro.schema.blocks import post_dominators

            self._post_dominators = post_dominators(
                self.schema, order=self.topological_order(include_sync=False)
            )
        return self._post_dominators

    def matching_join(self, split_id: str) -> str:
        """Cached matching join of ``split_id`` (see ``blocks.matching_join``)."""
        join_id = self._matching_join.get(split_id)
        if join_id is None:
            from repro.schema.blocks import matching_join

            join_id = matching_join(
                self.schema,
                split_id,
                postdom=self.post_dominators(),
                order=self.topological_order(include_sync=False),
            )
            self._matching_join[split_id] = join_id
        return join_id

    def matching_split(self, join_id: str) -> str:
        """Cached matching split of ``join_id`` (see ``blocks.matching_split``)."""
        split_id = self._matching_split.get(join_id)
        if split_id is None:
            from repro.schema.blocks import matching_split

            split_id = matching_split(
                self.schema,
                join_id,
                dom=self.dominators(),
                order=self.topological_order(include_sync=False),
            )
            self._matching_split[join_id] = split_id
        return split_id

    def block_tree(self) -> "BlockTree":
        """The cached block nesting tree of the schema."""
        if self._block_tree is None:
            from repro.schema.blocks import BlockTree

            self._block_tree = BlockTree.build(self.schema)
        return self._block_tree

    # ------------------------------------------------------------------ #
    # data flow
    # ------------------------------------------------------------------ #

    def data_edges_of(self, activity: str) -> List[DataEdge]:
        return list(self._data_edges_of.get(activity, _EMPTY_DATA_EDGES))

    def reads_of(self, activity: str) -> List[DataEdge]:
        return list(self._reads_of.get(activity, _EMPTY_DATA_EDGES))

    def writes_of(self, activity: str) -> List[DataEdge]:
        return list(self._writes_of.get(activity, _EMPTY_DATA_EDGES))

    def read_edges(self, activity: str) -> List[DataEdge]:
        """No-copy variant of :meth:`reads_of` (do not mutate)."""
        return self._reads_of.get(activity, _EMPTY_DATA_EDGES)

    def write_edges(self, activity: str) -> List[DataEdge]:
        """No-copy variant of :meth:`writes_of` (do not mutate)."""
        return self._writes_of.get(activity, _EMPTY_DATA_EDGES)

    def writers_of(self, element: str) -> List[str]:
        return list(self._writers_of.get(element, _EMPTY_IDS))

    def readers_of(self, element: str) -> List[str]:
        return list(self._readers_of.get(element, _EMPTY_IDS))

    def written_elements(self, activity: str) -> Set[str]:
        """Elements written by ``activity`` (fresh set)."""
        return {dedge.element for dedge in self.write_edges(activity)}

    def written_before(self) -> Dict[str, Set[str]]:
        """Cached "definitely written before node n" data-flow solution."""
        if self._written_before is None:
            from repro.verification.dataflow import written_before

            self._written_before = written_before(self.schema)
        return self._written_before

    # ------------------------------------------------------------------ #
    # superseded versions
    # ------------------------------------------------------------------ #

    def shed_analyses(self) -> None:
        """Drop the release-time analyses; any of them rebuilds lazily if asked.

        A superseded schema version keeps what stepping its stragglers
        needs — adjacency, data-flow and loop maps, topological order, the
        marking layout, the step kernel and its round bound — and forgets
        what releasing a version from it and migrating off it asked for:
        reachability, (post-)dominators, matching splits and joins, the
        block tree and the written-before sets, and the entry specs once
        the kernel they compile into exists.
        """
        self._reach_cache = {}
        self._dominators = None
        self._post_dominators = None
        self._matching_join = {}
        self._matching_split = {}
        self._block_tree = None
        self._written_before = None
        if self._step_kernel is not None:
            self._entry_specs = None

    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        return (
            f"SchemaIndex({self.schema.schema_id!r}, generation={self.generation}, "
            f"nodes={len(self._nodes)}, edges="
            f"{len(self._control_edge_list) + len(self._sync_edge_list) + len(self._loop_edge_list)})"
        )


_EMPTY_EDGES: List[Edge] = []
_EMPTY_DATA_EDGES: List[DataEdge] = []
_EMPTY_IDS: List[str] = []
