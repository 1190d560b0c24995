"""The compiled per-schema stepping kernel.

The engine's marking propagation asks one question per node and round:
given the states of the node's incoming control and sync edges, does the
node *activate*, *skip* (dead-path elimination) or *wait*?  Answering it
from the marking dicts means one lookup per edge per node per round.
This module compiles the question away: once per
:class:`~repro.schema.index.SchemaIndex` every node is specialised into
a small closure over **dense positions** — integer offsets into an
index-ordered marking array — so the hot-path entry decision becomes a
handful of ``bytearray`` reads with no dict lookups, no enum traffic and
no per-edge objects.

Two pieces:

* :class:`MarkingLayout` — the dense coordinate system of one schema
  generation: node ids and non-loop edge keys in index order plus their
  reverse position maps.  A :class:`repro.runtime.markings.Marking` *is*
  two code arrays in this order.
* :class:`StepKernel` — the compiled kernel: one decider closure per
  node (by position), the positional metadata the engine needs to act on
  a decision, and the schema-derived propagation round bound.

The reference these closures are pinned against is the full-scan oracle
under ``tests/baselines`` (``pytest -m kernel``).

Decision codes (shared with the dense edge-state encoding):

====  ==========================  =========================
code  as an edge state            as an entry decision
====  ==========================  =========================
0     NOT_SIGNALED                wait
1     TRUE_SIGNALED               activate
2     FALSE_SIGNALED              skip
3     —                           mixed AND-join signals
====  ==========================  =========================

The identity of edge-state codes and decision codes is what makes the
single-incoming-edge case (the overwhelming majority of nodes) literally
branch-free: the decider returns ``marking.edges[position]``.

Code 3 is the explicit surfacing of a real bug class: an AND join whose
incoming control edges are all signalled but disagree (some TRUE, some
FALSE) can never fire *and* can never be skipped — the engine used to
wait forever on such markings with a comment claiming they "cannot
happen".  Ill-formed schemas and buggy migrations do produce them; the
engine raises :class:`~repro.runtime.engine.JoinSignalConflictError`.
"""

from __future__ import annotations

import json
import zlib
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.schema.nodes import Node, NodeType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.schema.index import SchemaIndex

EdgeKey = Tuple[str, str, str]

#: Decision codes returned by compiled deciders.
DECIDE_WAIT = 0
DECIDE_ACTIVATE = 1
DECIDE_SKIP = 2
DECIDE_CONFLICT = 3

#: Action dispatch codes (``StepKernel.action_kind``): what the engine
#: does with a node whose entry decision said "activate".
ACTION_ACTIVITY = 0
ACTION_XOR_SPLIT = 1
ACTION_LOOP_END = 2
ACTION_END = 3
ACTION_STRUCTURAL = 4

_ACTION_OF = {
    NodeType.XOR_SPLIT: ACTION_XOR_SPLIT,
    NodeType.LOOP_END: ACTION_LOOP_END,
    NodeType.END: ACTION_END,
}

#: Legacy engine-wide round cap; the schema-derived bound never goes
#: below it so existing deep-loop schemas keep converging.
LEGACY_ROUND_BOUND = 10000


# ---------------------------------------------------------------------- #
# the dense coordinate system
# ---------------------------------------------------------------------- #


class MarkingLayout:
    """Dense, index-ordered coordinates of one schema generation.

    Node positions follow ``SchemaIndex.node_ids`` and edge positions
    follow ``SchemaIndex.non_loop_edge_keys()``.  A marking's code arrays,
    its positional stored form, the kernel's deciders and the migration
    fingerprint all use these coordinates: one layout object per schema
    generation, so "same layout" is an identity check.
    """

    __slots__ = (
        "schema_id",
        "generation",
        "node_ids",
        "edge_keys",
        "node_pos",
        "edge_pos",
        "_checksum",
    )

    def __init__(
        self,
        schema_id: str,
        generation: int,
        node_ids: Tuple[str, ...],
        edge_keys: Tuple[EdgeKey, ...],
    ) -> None:
        self.schema_id = schema_id
        self.generation = generation
        self.node_ids = node_ids
        self.edge_keys = edge_keys
        self.node_pos: Dict[str, int] = {node_id: i for i, node_id in enumerate(node_ids)}
        self.edge_pos: Dict[EdgeKey, int] = {key: i for i, key in enumerate(edge_keys)}
        self._checksum: Optional[str] = None

    @property
    def checksum(self) -> str:
        """crc32 of the coordinates, computed on first use (never, for a
        biased case's private schema: its marking is stored keyed).

        A positionally stored marking names the layout it was written
        against, so a record can never be decoded onto a schema whose node
        or edge order differs.
        """
        checksum = self._checksum
        if checksum is None:
            checksum = self._checksum = "%08x" % zlib.crc32(
                json.dumps([self.node_ids, self.edge_keys], separators=(",", ":")).encode("ascii")
            )
        return checksum

    def __repr__(self) -> str:
        return (
            f"MarkingLayout({self.schema_id!r}, generation={self.generation}, "
            f"nodes={len(self.node_ids)}, edges={len(self.edge_keys)})"
        )


# ---------------------------------------------------------------------- #
# decider compilation
# ---------------------------------------------------------------------- #

Decider = Callable[[bytearray], int]


def _compile_decider(
    kind: int,
    control_positions: Tuple[int, ...],
    sync_positions: Tuple[int, ...],
) -> Decider:
    """Specialise one node's entry decision against its dense positions.

    The returned closure reads only the dense edge-state array; all
    structural facts (node kind, edge positions, arity) are baked in at
    compile time.
    """
    # entry-spec kinds, mirroring SchemaIndex.ENTRY_*
    if kind == 0:  # START — always ready
        return lambda edge_values: 1
    if not control_positions:  # unreachable node fragment: never fires
        return lambda edge_values: 0

    if kind == 3:  # single incoming control edge (the overwhelming majority)
        position = control_positions[0]
        if not sync_positions:
            # branch-free: the edge-state code IS the decision code
            return lambda edge_values, p=position: edge_values[p]

        def decide_single_synced(
            edge_values: bytearray, p: int = position, sync: Tuple[int, ...] = sync_positions
        ) -> int:
            value = edge_values[p]
            if value == 1:
                for s in sync:
                    if not edge_values[s]:
                        return 0
                return 1
            return value  # 2 skips regardless of sync, 0 waits

        return decide_single_synced

    if kind == 1:  # AND join

        def decide_and(
            edge_values: bytearray,
            control: Tuple[int, ...] = control_positions,
            sync: Tuple[int, ...] = sync_positions,
        ) -> int:
            low = 3
            high = 0
            for p in control:
                value = edge_values[p]
                if value == 0:
                    return 0  # some branch still unsignalled: wait
                if value < low:
                    low = value
                if value > high:
                    high = value
            if low != high:
                return 3  # mixed TRUE/FALSE signals: structurally dead join
            if high == 2:
                return 2  # every branch dead-path-eliminated
            for s in sync:
                if not edge_values[s]:
                    return 0
            return 1

        return decide_and

    # XOR join
    def decide_xor(
        edge_values: bytearray,
        control: Tuple[int, ...] = control_positions,
        sync: Tuple[int, ...] = sync_positions,
    ) -> int:
        any_true = False
        for p in control:
            value = edge_values[p]
            if value == 0:
                return 0
            if value == 1:
                any_true = True
        if not any_true:
            return 2
        for s in sync:
            if not edge_values[s]:
                return 0
        return 1

    return decide_xor


class StepKernel:
    """The compiled stepping kernel of one schema at one generation.

    Everything the marking propagation touches per node is precompiled
    into position-indexed structures; the engine never translates a node
    id or an edge key while it steps:

    * ``deciders[p]`` — the entry-decision closure of the node at
      position ``p`` (reads the marking's edge codes, returns a decision
      code);
    * ``nodes[p]`` / ``node_ids[p]`` — the node object / id for acting
      on a non-wait decision (workers, events, history);
    * ``is_activity[p]`` — 1 for activity nodes (activate instead of
      auto-executing); ``action_kind[p]`` — what executing it means;
    * ``out_control[p]`` / ``out_sync[p]`` — ``(edge position, target
      position)`` of every outgoing control / sync edge: signalling is an
      array write, and the targets are the nodes to re-decide;
    * ``facts[p]`` — the :data:`ActivityFacts` of the activity at ``p``,
      filled in by :meth:`facts_of` the first time it is stepped;
    * ``round_bound`` — the schema-derived propagation bound:
      control-flow depth × total loop-iteration budget, floored at the
      legacy engine-wide constant.

    Kernels are cached on the :class:`~repro.schema.index.SchemaIndex`
    and invalidated with it by the schema generation counter.  Every
    published schema version keeps its kernel alive, so a kernel holds no
    reference to its index or schema (no cycle for the collector) and
    nothing per node heavier than a tuple.
    """

    __slots__ = (
        "layout",
        "deciders",
        "nodes",
        "node_ids",
        "is_activity",
        "action_kind",
        "out_control",
        "out_sync",
        "facts",
        "round_bound",
    )

    def __init__(self, index: "SchemaIndex") -> None:
        from repro.schema.edges import EdgeType

        layout = self.layout = index.marking_layout()
        edge_pos = layout.edge_pos
        node_pos = layout.node_pos
        specs = index.entry_specs()
        deciders: List[Decider] = []
        out: Dict[EdgeType, List[Tuple[Tuple[int, int], ...]]] = {
            EdgeType.CONTROL: [],
            EdgeType.SYNC: [],
        }
        for node_id in layout.node_ids:
            kind, control_keys, sync_keys = specs[node_id]
            deciders.append(
                _compile_decider(
                    kind,
                    tuple(edge_pos[key] for key in control_keys),
                    tuple(edge_pos[key] for key in sync_keys),
                )
            )
            for edge_type, compiled in out.items():
                compiled.append(
                    tuple(
                        (edge_pos[edge.key], node_pos[edge.target])
                        for edge in index.out_edges(node_id, edge_type)
                    )
                )
        self.deciders: Tuple[Decider, ...] = tuple(deciders)
        self.nodes: Tuple[Node, ...] = tuple(index.node(node_id) for node_id in layout.node_ids)
        self.node_ids: Tuple[str, ...] = layout.node_ids
        self.is_activity = bytearray(node.is_activity for node in self.nodes)
        self.action_kind = bytearray(
            ACTION_ACTIVITY if node.is_activity else _ACTION_OF.get(node.node_type, ACTION_STRUCTURAL)
            for node in self.nodes
        )
        self.out_control = tuple(out[EdgeType.CONTROL])
        self.out_sync = tuple(out[EdgeType.SYNC])
        self.facts: List[Optional[ActivityFacts]] = [None] * len(self.nodes)
        self.round_bound = index.propagation_round_bound()

    def facts_of(self, position: int, index: "SchemaIndex") -> "ActivityFacts":
        """The facts of the activity at ``position``, compiled on first use.

        ``index`` is the index this kernel was compiled from (the caller
        has it at hand; the kernel keeps no reference to it).
        """
        facts = self.facts[position]
        if facts is None:
            facts = self.facts[position] = _compile_facts(index, self.node_ids[position])
        return facts

    def __repr__(self) -> str:
        return f"StepKernel({self.layout!r}, round_bound={self.round_bound})"


# ---------------------------------------------------------------------- #
# per-activity facts
# ---------------------------------------------------------------------- #

#: What a step of one activity needs from its schema, resolved once:
#: ``(activity id, read elements, written elements, data type value of each
#: written element, innermost loop start or None)`` — strings and tuples
#: only, so equal activities of successive schema versions share one
#: object (see :func:`_compile_facts`).
ActivityFacts = Tuple[str, Tuple[str, ...], Tuple[str, ...], Tuple[str, ...], Optional[str]]

_FACTS: Dict[ActivityFacts, ActivityFacts] = {}
_FACTS_CAP = 8192


def _compile_facts(index: "SchemaIndex", node_id: str) -> ActivityFacts:
    writes = tuple(edge.element for edge in index.write_edges(node_id))
    data_elements = index.schema.data_elements
    facts: ActivityFacts = (
        node_id,
        tuple(edge.element for edge in index.read_edges(node_id)),
        writes,
        tuple(data_elements[element].data_type.value for element in writes),
        index.innermost_loop_start(node_id),
    )
    # interned by value: a type with hundreds of published versions keeps
    # one tuple per activity, not one per activity and version
    if len(_FACTS) >= _FACTS_CAP:
        _FACTS.clear()
    return _FACTS.setdefault(facts, facts)


def _control_depth(index: "SchemaIndex") -> int:
    """Longest control-flow chain of the schema (its topological depth)."""
    from repro.schema.edges import EdgeType
    from repro.schema.graph import SchemaError

    try:
        order = index.topological_order(include_sync=True)
    except SchemaError:
        # a cyclic (ill-formed) schema has no topo order; fall back to the
        # node count so the bound stays defined and the engine can still
        # report non-convergence with diagnostics instead of spinning
        return len(index.node_ids)
    depth: Dict[str, int] = {}
    for node_id in order:
        best = 0
        for edge in index.in_edges(node_id, EdgeType.CONTROL):
            d = depth.get(edge.source, 0)
            if d > best:
                best = d
        for edge in index.in_edges(node_id, EdgeType.SYNC):
            d = depth.get(edge.source, 0)
            if d > best:
                best = d
        depth[node_id] = best + 1
    return max(depth.values(), default=1)


def _loop_budget(loop_edges, node_source) -> int:
    """Total loop-iteration budget: sum of every loop's max_iterations."""
    budget = 0
    for edge in loop_edges:
        loop_start = node_source.node(edge.target)
        budget += int(loop_start.properties.get("max_iterations", 100))
    return budget


def derive_round_bound(node_count: int, depth: int, loop_budget: int) -> int:
    """The schema-derived propagation round bound.

    Each "era" between loop-backs needs at most ``depth + 1`` rounds (one
    per level of the control DAG plus the final no-change round), and the
    loop-iteration budget bounds how many eras a run can open.  The
    legacy engine-wide constant stays as a floor so schemas that
    converged before keep converging.
    """
    derived = (depth + 2) * (loop_budget + 1) + node_count
    return max(LEGACY_ROUND_BOUND, derived)


__all__ = [
    "DECIDE_ACTIVATE",
    "DECIDE_CONFLICT",
    "DECIDE_SKIP",
    "DECIDE_WAIT",
    "MarkingLayout",
    "StepKernel",
    "derive_round_bound",
]
