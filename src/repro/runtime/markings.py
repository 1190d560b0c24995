"""Instance markings: the per-instance state of all nodes and edges.

A marking assigns a :class:`~repro.runtime.states.NodeState` to every node
and an :class:`~repro.runtime.states.EdgeState` to every control and sync
edge of the instance's execution schema.  Markings are the
instance-specific data the redundancy-free storage representation keeps
next to the schema reference (paper Fig. 2), and the object on which the
per-operation compliance conditions are evaluated (paper Fig. 1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.runtime.states import EdgeState, NodeState
from repro.schema.edges import EdgeType
from repro.schema.graph import ProcessSchema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.kernel import MarkingLayout

EdgeKey = Tuple[str, str, str]

# dense edge-state codes, mirrored from repro.runtime.kernel.EDGE_CODE
# (inlined here to keep the mutator hot path free of imports)
_EDGE_CODE = {
    EdgeState.NOT_SIGNALED: 0,
    EdgeState.TRUE_SIGNALED: 1,
    EdgeState.FALSE_SIGNALED: 2,
}

# The positional stored form writes one code character per node / edge in
# layout order.  The characters are part of the store format: spelled out,
# never derived from enum order; the edge characters are the dense codes.
_NODE_CHAR = {
    NodeState.NOT_ACTIVATED: "0",
    NodeState.ACTIVATED: "1",
    NodeState.RUNNING: "2",
    NodeState.SUSPENDED: "3",
    NodeState.COMPLETED: "4",
    NodeState.SKIPPED: "5",
    NodeState.FAILED: "6",
}
_EDGE_CHAR = {state: str(code) for state, code in _EDGE_CODE.items()}
_NODE_OF_CHAR = {char: state for state, char in _NODE_CHAR.items()}
_EDGE_OF_CHAR = {char: state for state, char in _EDGE_CHAR.items()}
# code string -> dense arrays, one C-speed pass each
_EDGE_VALUES = bytes.maketrans(b"012", bytes((0, 1, 2)))
_UNTOUCHED = bytes.maketrans(b"0123456", bytes((1, 0, 0, 0, 0, 0, 0)))
_ACTIVATED = bytes.maketrans(b"0123456", bytes((0, 1, 0, 0, 0, 0, 0)))


class DenseMarking:
    """Dense, positionally-indexed projection of a :class:`Marking`.

    Built against a :class:`~repro.runtime.kernel.MarkingLayout` (one per
    schema generation) and kept coherent by the marking's mutators:

    * ``edge_values[p]`` — the dense state code (0 NOT / 1 TRUE / 2 FALSE)
      of the edge at layout position ``p``;
    * ``untouched[p]`` — 1 while the node at position ``p`` is
      NOT_ACTIVATED, i.e. still eligible for an entry decision;
    * ``at_fixpoint`` — True when a propagation pass has run to quiescence
      since the last mutation; lets ``complete_activity`` seed the next
      pass with only the nodes its signals touched;
    * ``stale`` — set when the marking mutates structurally (node/edge
      added or removed), which invalidates the positional mapping; the
      next ``dense_view`` call rebuilds against the current layout.

    The positional order is exactly ``SchemaIndex.node_ids`` /
    ``non_loop_edge_keys()`` — the same layout the migration fingerprints
    project, so a dense view and a fingerprint of the same generation
    always agree on coordinates.
    """

    __slots__ = (
        "layout",
        "edge_values",
        "untouched",
        "activated",
        "aligned",
        "at_fixpoint",
        "stale",
    )

    def __init__(
        self,
        layout: "MarkingLayout",
        edge_values: bytearray,
        untouched: bytearray,
        activated: bytearray,
        aligned: bool,
    ) -> None:
        self.layout = layout
        self.edge_values = edge_values
        self.untouched = untouched
        self.activated = activated
        # True when the marking holds exactly the layout's nodes in the
        # layout's order — then a positional scan visits nodes in the same
        # order as a marking-dict scan, and dense answers (e.g. "first
        # activated activity") replicate the dict-based ones exactly
        self.aligned = aligned
        self.at_fixpoint = False
        self.stale = False

    @classmethod
    def of_marking(cls, layout: "MarkingLayout", marking: "Marking") -> "DenseMarking":
        """Project the marking's dicts onto ``layout`` (one pass over each)."""
        edge_values = bytearray(len(layout.edge_keys))
        edge_states = marking.edge_states
        for key, state in edge_states.items():
            position = layout.edge_pos.get(key)
            if position is not None:
                edge_values[position] = _EDGE_CODE[state]
        untouched = bytearray(len(layout.node_ids))
        activated = bytearray(len(layout.node_ids))
        node_states = marking.node_states
        not_activated = NodeState.NOT_ACTIVATED
        is_activated = NodeState.ACTIVATED
        for position, node_id in enumerate(layout.node_ids):
            state = node_states.get(node_id, not_activated)
            if state is not_activated:
                untouched[position] = 1
            elif state is is_activated:
                activated[position] = 1
        aligned = list(node_states) == list(layout.node_ids)
        return cls(layout, edge_values, untouched, activated, aligned)

    @classmethod
    def from_codes(
        cls, layout: "MarkingLayout", node_codes: str, edge_codes: str
    ) -> "DenseMarking":
        """The view of the marking two validated code strings spell out.

        Byte for byte what :meth:`of_marking` builds from the decoded
        dicts, without walking them; always ``aligned``.
        """
        nodes = node_codes.encode("ascii")
        return cls(
            layout,
            bytearray(edge_codes.encode("ascii").translate(_EDGE_VALUES)),
            bytearray(nodes.translate(_UNTOUCHED)),
            bytearray(nodes.translate(_ACTIVATED)),
            True,
        )

    # mutator mirror hooks (called from Marking's setters) ------------- #

    def on_node(self, node_id: str, state: NodeState) -> None:
        position = self.layout.node_pos.get(node_id)
        if position is None:
            self.stale = True
            return
        if state is NodeState.NOT_ACTIVATED:
            # a reset re-arms the node for entry decisions (loop back,
            # migration, ad-hoc change): the fixpoint no longer holds
            self.untouched[position] = 1
            self.activated[position] = 0
            self.at_fixpoint = False
        else:
            self.untouched[position] = 0
            self.activated[position] = 1 if state is NodeState.ACTIVATED else 0

    def on_edge(self, key: EdgeKey, state: EdgeState) -> None:
        position = self.layout.edge_pos.get(key)
        if position is None:
            self.stale = True
            return
        self.edge_values[position] = _EDGE_CODE[state]
        self.at_fixpoint = False


class Marking:
    """State assignment for all nodes and (control/sync) edges of a schema."""

    def __init__(
        self,
        node_states: Optional[Mapping[str, NodeState]] = None,
        edge_states: Optional[Mapping[EdgeKey, EdgeState]] = None,
    ) -> None:
        self._node_states: Dict[str, NodeState] = dict(node_states or {})
        self._edge_states: Dict[EdgeKey, EdgeState] = dict(edge_states or {})
        # dense projection, built on demand by dense_view() and kept
        # coherent by the mutators below
        self._dense: Optional[DenseMarking] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def initial(cls, schema: ProcessSchema) -> "Marking":
        """The marking of a freshly created instance: everything untouched."""
        index = schema.index
        return cls(
            dict.fromkeys(index.node_ids, NodeState.NOT_ACTIVATED),
            dict.fromkeys(index.non_loop_edge_keys(), EdgeState.NOT_SIGNALED),
        )

    def copy(self) -> "Marking":
        """An independent copy of this marking."""
        return Marking(dict(self._node_states), dict(self._edge_states))

    # ------------------------------------------------------------------ #
    # node state accessors
    # ------------------------------------------------------------------ #

    @property
    def node_states(self) -> Dict[str, NodeState]:
        return self._node_states

    @property
    def edge_states(self) -> Dict[EdgeKey, EdgeState]:
        return self._edge_states

    def node_state(self, node_id: str) -> NodeState:
        """State of ``node_id`` (untouched nodes default to NOT_ACTIVATED)."""
        return self._node_states.get(node_id, NodeState.NOT_ACTIVATED)

    def set_node_state(self, node_id: str, state: NodeState) -> None:
        self._node_states[node_id] = state
        if self._dense is not None:
            self._dense.on_node(node_id, state)

    def remove_node(self, node_id: str) -> None:
        """Forget the state of a node (used when a change deletes it)."""
        self._node_states.pop(node_id, None)
        self._edge_states = {
            key: state
            for key, state in self._edge_states.items()
            if key[0] != node_id and key[1] != node_id
        }
        self._dense = None  # positional mapping no longer valid

    def nodes_in_state(self, *states: NodeState) -> List[str]:
        """All node ids currently in one of ``states``."""
        wanted = set(states)
        return [node_id for node_id, state in self._node_states.items() if state in wanted]

    def activated_nodes(self) -> List[str]:
        return self.nodes_in_state(NodeState.ACTIVATED)

    def running_nodes(self) -> List[str]:
        return self.nodes_in_state(NodeState.RUNNING, NodeState.SUSPENDED)

    def completed_nodes(self) -> List[str]:
        return self.nodes_in_state(NodeState.COMPLETED)

    def started_nodes(self) -> List[str]:
        """Nodes whose execution has begun (running, suspended, completed, failed)."""
        return [
            node_id for node_id, state in self._node_states.items() if state.is_started
        ]

    # ------------------------------------------------------------------ #
    # edge state accessors
    # ------------------------------------------------------------------ #

    def edge_state(self, source: str, target: str, edge_type: EdgeType = EdgeType.CONTROL) -> EdgeState:
        """State of the edge (untouched edges default to NOT_SIGNALED)."""
        return self._edge_states.get((source, target, edge_type.value), EdgeState.NOT_SIGNALED)

    def edge_state_key(self, key: EdgeKey) -> EdgeState:
        """State of the edge by its precomputed key (engine hot path).

        Avoids rebuilding the ``(source, target, type)`` tuple per lookup;
        the engine feeds it the ``Edge.key`` tuples held by the compiled
        :class:`~repro.schema.index.SchemaIndex`.
        """
        return self._edge_states.get(key, EdgeState.NOT_SIGNALED)

    def set_edge_state_key(self, key: EdgeKey, state: EdgeState) -> None:
        """Set the state of the edge by its precomputed key (engine hot path)."""
        self._edge_states[key] = state
        if self._dense is not None:
            self._dense.on_edge(key, state)

    def set_edge_state(
        self, source: str, target: str, state: EdgeState, edge_type: EdgeType = EdgeType.CONTROL
    ) -> None:
        key = (source, target, edge_type.value)
        self._edge_states[key] = state
        if self._dense is not None:
            self._dense.on_edge(key, state)

    def ensure_edge(self, source: str, target: str, edge_type: EdgeType = EdgeType.CONTROL) -> None:
        """Register a (new) edge with the default NOT_SIGNALED state."""
        key = (source, target, edge_type.value)
        if key not in self._edge_states:
            self._edge_states[key] = EdgeState.NOT_SIGNALED
            self._dense = None  # a structurally new edge invalidates positions

    def ensure_node(self, node_id: str) -> None:
        """Register a (new) node with the default NOT_ACTIVATED state."""
        if node_id not in self._node_states:
            self._node_states[node_id] = NodeState.NOT_ACTIVATED
            self._dense = None  # a structurally new node invalidates positions

    # ------------------------------------------------------------------ #
    # dense projection (compiled stepping kernel)
    # ------------------------------------------------------------------ #

    def dense_view(self, layout: "MarkingLayout") -> DenseMarking:
        """The dense projection of this marking against ``layout``.

        The view is cached and mirrored through every mutator; it is
        rebuilt when the layout changes (schema evolved to a new
        generation) or after a structural marking mutation
        (``ensure_node`` / ``ensure_edge`` / ``remove_node``) made the
        cached positions unreliable.
        """
        view = self._dense
        if view is None or view.layout is not layout or view.stale:
            view = DenseMarking.of_marking(layout, self)
            self._dense = view
        return view

    # ------------------------------------------------------------------ #
    # comparison / serialization
    # ------------------------------------------------------------------ #

    def differences(self, other: "Marking") -> List[str]:
        """Human readable differences between two markings (for tests)."""
        problems: List[str] = []
        node_ids = set(self._node_states) | set(other._node_states)
        for node_id in sorted(node_ids):
            mine = self.node_state(node_id)
            theirs = other.node_state(node_id)
            if mine is not theirs:
                problems.append(f"node {node_id}: {mine.value} != {theirs.value}")
        edge_keys = set(self._edge_states) | set(other._edge_states)
        for key in sorted(edge_keys):
            mine_edge = self._edge_states.get(key, EdgeState.NOT_SIGNALED)
            theirs_edge = other._edge_states.get(key, EdgeState.NOT_SIGNALED)
            if mine_edge is not theirs_edge:
                problems.append(f"edge {key}: {mine_edge.value} != {theirs_edge.value}")
        return problems

    def equivalent_to(self, other: "Marking") -> bool:
        """True when both markings assign the same states everywhere."""
        return not self.differences(other)

    def to_dict(self) -> dict:
        """Serialize the marking to a JSON-compatible dictionary (keyed form).

        Edges are listed in sorted key order, so the output depends on the
        states alone, not on the order the dicts were filled in.
        """
        return {
            "node_states": {node_id: state.value for node_id, state in self._node_states.items()},
            "edge_states": [
                {"source": key[0], "target": key[1], "edge_type": key[2], "state": state.value}
                for key, state in sorted(self._edge_states.items())
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Marking":
        """Reconstruct a marking from :meth:`to_dict` output."""
        node_states = {
            node_id: NodeState(value) for node_id, value in payload.get("node_states", {}).items()
        }
        edge_states = {
            (entry["source"], entry["target"], entry["edge_type"]): EdgeState(entry["state"])
            for entry in payload.get("edge_states", [])
        }
        return cls(node_states, edge_states)

    # -- the stored form ------------------------------------------------ #
    #
    # A marking that covers exactly a layout is stored *positionally*:
    # ``{"layout": <checksum>, "nodes": "4441…", "edges": "1102…"}`` — one
    # code character per node / edge in layout order; the schema version the
    # record references spells the names (paper Fig. 2).  Any other marking
    # is stored in the keyed :meth:`to_dict` form, which is also what stores
    # written before the positional form hold.

    def to_codes(self, layout: "MarkingLayout") -> Optional[Tuple[str, str]]:
        """Node and edge code strings in layout order.

        ``None`` when the marking does not hold exactly the layout's nodes
        and edges (positions would not identify them).
        """
        node_states = self._node_states
        edge_states = self._edge_states
        if len(node_states) != len(layout.node_ids) or len(edge_states) != len(layout.edge_keys):
            return None
        try:
            return (
                "".join(map(_NODE_CHAR.__getitem__, map(node_states.__getitem__, layout.node_ids))),
                "".join(map(_EDGE_CHAR.__getitem__, map(edge_states.__getitem__, layout.edge_keys))),
            )
        except KeyError:
            return None

    @classmethod
    def from_codes(cls, layout: "MarkingLayout", node_codes: str, edge_codes: str) -> "Marking":
        """The marking two code strings spell out against ``layout``.

        Its dicts are in layout order and its dense view is pre-built
        from the strings.  Raises ``ValueError`` when a string does not fit
        the layout or holds an unknown code.
        """
        if len(node_codes) != len(layout.node_ids) or len(edge_codes) != len(layout.edge_keys):
            raise ValueError(
                f"marking codes ({len(node_codes)} nodes, {len(edge_codes)} edges) do not fit "
                f"{layout!r}"
            )
        marking = cls()
        try:
            marking._node_states = dict(
                zip(layout.node_ids, map(_NODE_OF_CHAR.__getitem__, node_codes))
            )
            marking._edge_states = dict(
                zip(layout.edge_keys, map(_EDGE_OF_CHAR.__getitem__, edge_codes))
            )
        except KeyError as exc:
            raise ValueError(f"unknown marking state code {exc.args[0]!r}") from None
        marking._dense = DenseMarking.from_codes(layout, node_codes, edge_codes)
        return marking

    def to_stored(self, layout: Optional["MarkingLayout"]) -> dict:
        """The stored form: positional against ``layout`` when it is covered.

        ``layout=None`` asks for the keyed form outright — the caller knows
        positions will not be reproducible on load (a biased case's
        execution schema is re-materialised in another order).
        """
        codes = self.to_codes(layout) if layout is not None else None
        if codes is None:
            return self.to_dict()
        return {"layout": layout.checksum, "nodes": codes[0], "edges": codes[1]}

    @classmethod
    def from_stored(cls, payload: Mapping, layout: "MarkingLayout") -> "Marking":
        """Reconstruct a marking from either stored form, in layout order.

        A positional payload must name ``layout``'s checksum — a mismatch
        raises ``ValueError`` instead of assigning states to the wrong
        nodes.  A keyed payload that covers the layout is re-ordered onto
        it (JSON snapshots sort the keys), so scans of a loaded marking
        visit nodes in the order a never-stored one does.
        """
        if "layout" in payload:
            if payload["layout"] != layout.checksum:
                raise ValueError(
                    f"marking was stored against layout {payload['layout']}, "
                    f"but {layout!r} has checksum {layout.checksum}"
                )
            return cls.from_codes(layout, payload["nodes"], payload["edges"])
        marking = cls.from_dict(payload)
        codes = marking.to_codes(layout)
        return marking if codes is None else cls.from_codes(layout, *codes)

    @staticmethod
    def stored_key(payload: Mapping, layout: Optional["MarkingLayout"] = None) -> tuple:
        """Hashable, order-canonical projection of a stored marking.

        Equal keys ⇔ equal markings on the same coordinates.  A positional
        payload *is* its key (checksum + the two code strings).  A keyed
        payload that covers ``layout`` yields the key its next write-back
        would have, so records written before and after the positional
        form classify together; otherwise its sorted items.
        """
        if "layout" in payload:
            return (payload["layout"], payload["nodes"], payload["edges"])
        if layout is not None:
            codes = Marking.from_dict(payload).to_codes(layout)
            if codes is not None:
                return (layout.checksum,) + codes
        return (
            tuple(sorted(payload.get("node_states", {}).items())),
            tuple(
                sorted(
                    (e["source"], e["target"], e["edge_type"], e["state"])
                    for e in payload.get("edge_states", [])
                )
            ),
        )

    def __repr__(self) -> str:
        active = len(self.nodes_in_state(NodeState.ACTIVATED, NodeState.RUNNING))
        done = len(self.completed_nodes())
        return f"Marking(nodes={len(self._node_states)}, active={active}, completed={done})"
