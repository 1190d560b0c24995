"""Instance markings: the per-instance state of all nodes and edges.

A marking assigns a :class:`~repro.runtime.states.NodeState` to every node
and an :class:`~repro.runtime.states.EdgeState` to every control and sync
edge of the instance's execution schema.  Markings are the
instance-specific data the redundancy-free storage representation keeps
next to the schema reference (paper Fig. 2), and the object on which the
per-operation compliance conditions are evaluated (paper Fig. 1).

There is one representation: two ``bytearray`` s of state codes in the
order of the schema's :class:`~repro.runtime.kernel.MarkingLayout`.  The
codes are the store format's own, so the stepping kernel reads the arrays
directly, the stored form is the arrays as two digit strings, and the
name-based API the rest of the system uses is a position lookup away.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.runtime.states import EdgeState, NodeState
from repro.schema.edges import EdgeType
from repro.schema.graph import ProcessSchema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.kernel import MarkingLayout

EdgeKey = Tuple[str, str, str]

# A state's code is its position below.  The codes are part of the store
# format (the stored form writes them as the digits "0"…"6" / "0"…"2"), so
# the tuples are spelled out, never derived from enum order.  The edge codes
# double as the kernel's entry-decision codes.
NODE_STATES = (
    NodeState.NOT_ACTIVATED,
    NodeState.ACTIVATED,
    NodeState.RUNNING,
    NodeState.SUSPENDED,
    NodeState.COMPLETED,
    NodeState.SKIPPED,
    NodeState.FAILED,
)
EDGE_STATES = (EdgeState.NOT_SIGNALED, EdgeState.TRUE_SIGNALED, EdgeState.FALSE_SIGNALED)
NODE_CODE: Dict[NodeState, int] = {state: code for code, state in enumerate(NODE_STATES)}
EDGE_CODE: Dict[EdgeState, int] = {state: code for code, state in enumerate(EDGE_STATES)}
_STARTED = tuple(state for state in NODE_STATES if state.is_started)
_COMPLETED = NODE_CODE[NodeState.COMPLETED]


def _digit_tables(count: int) -> Tuple[bytes, bytes]:
    """``(codes -> digits, digits -> codes)``; any other character maps to 255."""
    decode = bytearray(b"\xff" * 256)
    decode[ord("0") : ord("0") + count] = range(count)
    return bytes.maketrans(bytes(range(count)), b"0123456"[:count]), bytes(decode)


_NODE_DIGITS, _NODE_CODES = _digit_tables(len(NODE_STATES))
_EDGE_DIGITS, _EDGE_CODES = _digit_tables(len(EDGE_STATES))


def lay_codes(
    codes: bytearray, old_pos: Mapping[Any, int], names: Sequence[Any]
) -> Tuple[bytearray, List[int]]:
    """``codes`` (positioned by ``old_pos``) moved by name into ``names``'s order
    — a new name's code is 0, untouched — and the positions of the new names."""
    missing = len(codes)
    where = [old_pos.get(name, missing) for name in names]
    laid = bytearray(map((codes + b"\0").__getitem__, where))
    return laid, [position for position, old in enumerate(where) if old == missing]


def _decode(digits: str, table: bytes) -> bytearray:
    codes = digits.encode("ascii").translate(table)  # non-ASCII: a ValueError too
    bad = codes.find(255)
    if bad != -1:
        raise ValueError(f"unknown marking state code {digits[bad]!r}")
    return bytearray(codes)


class Marking:
    """State assignment for all nodes and (control/sync) edges of a schema.

    ``nodes[p]`` / ``edges[p]`` hold the state code of the node / edge at
    position ``p`` of ``layout``.  ``settled`` is True while the marking is
    a fixpoint of the engine's propagation — no untouched node's entry
    decision is anything but "wait" — so the next step need only re-examine
    the nodes its own signals reach.  The engine sets it when a pass runs
    to quiescence; every write that can re-arm a decision (an edge state, a
    node reset to NOT_ACTIVATED) clears it; :meth:`copy` and the cache
    write-back keep it.  It is not part of the marking's value: equality,
    the keyed form and the stored key ignore it.
    """

    __slots__ = ("layout", "nodes", "edges", "settled")

    def __init__(
        self, layout: "MarkingLayout", nodes: bytearray, edges: bytearray, settled: bool = False
    ) -> None:
        self.layout = layout
        self.nodes = nodes
        self.edges = edges
        self.settled = settled

    @classmethod
    def initial(cls, schema: ProcessSchema) -> "Marking":
        """The marking of a freshly created instance: everything untouched."""
        layout = schema.index.marking_layout()
        return cls(layout, bytearray(len(layout.node_ids)), bytearray(len(layout.edge_keys)))

    def copy(self) -> "Marking":
        """An independent copy of this marking (on the same layout)."""
        return Marking(self.layout, self.nodes[:], self.edges[:], self.settled)

    def lay_onto(self, layout: "MarkingLayout") -> None:
        """Move this marking onto ``layout``, matching nodes and edges by name.

        For a marking whose schema changed under it: what the layout adds
        starts untouched, what it no longer holds is dropped.
        """
        nodes, _ = lay_codes(self.nodes, self.layout.node_pos, layout.node_ids)
        edges, _ = lay_codes(self.edges, self.layout.edge_pos, layout.edge_keys)
        self.layout, self.nodes, self.edges, self.settled = layout, nodes, edges, False

    # ------------------------------------------------------------------ #
    # node states
    # ------------------------------------------------------------------ #

    @property
    def node_states(self) -> Dict[str, NodeState]:
        """``{node id: state}`` in layout order — a snapshot, not a view."""
        return dict(zip(self.layout.node_ids, map(NODE_STATES.__getitem__, self.nodes)))

    def node_state(self, node_id: str) -> NodeState:
        """State of ``node_id`` (a node the layout lacks is NOT_ACTIVATED)."""
        position = self.layout.node_pos.get(node_id)
        return NodeState.NOT_ACTIVATED if position is None else NODE_STATES[self.nodes[position]]

    def set_node_state(self, node_id: str, state: NodeState) -> None:
        code = NODE_CODE[state]
        self.nodes[self.layout.node_pos[node_id]] = code
        if not code:  # a reset (loop back, rollback) re-arms the node's entry decision
            self.settled = False

    def nodes_in_state(self, *states: NodeState) -> List[str]:
        """All node ids currently in one of ``states``, in layout order."""
        wanted = {NODE_CODE[state] for state in states}
        node_ids = self.layout.node_ids
        return [node_ids[p] for p, code in enumerate(self.nodes) if code in wanted]

    def activated_nodes(self) -> List[str]:
        return self.nodes_in_state(NodeState.ACTIVATED)

    def running_nodes(self) -> List[str]:
        return self.nodes_in_state(NodeState.RUNNING, NodeState.SUSPENDED)

    def completed_nodes(self) -> List[str]:
        return self.nodes_in_state(NodeState.COMPLETED)

    def started_nodes(self) -> List[str]:
        """Nodes whose execution has begun (running, suspended, completed, failed)."""
        return self.nodes_in_state(*_STARTED)

    def reached_end(self, schema: ProcessSchema) -> bool:
        """True when ``schema``'s end node is COMPLETED: the case has finished."""
        position = self.layout.node_pos.get(schema.index.end_node_id())
        return position is not None and self.nodes[position] == _COMPLETED

    # ------------------------------------------------------------------ #
    # edge states
    # ------------------------------------------------------------------ #

    @property
    def edge_states(self) -> Dict[EdgeKey, EdgeState]:
        """``{edge key: state}`` in layout order — a snapshot, not a view."""
        return dict(zip(self.layout.edge_keys, map(EDGE_STATES.__getitem__, self.edges)))

    def edge_state(
        self, source: str, target: str, edge_type: EdgeType = EdgeType.CONTROL
    ) -> EdgeState:
        """State of the edge (an edge the layout lacks is NOT_SIGNALED)."""
        return self.edge_state_key((source, target, edge_type.value))

    def edge_state_key(self, key: EdgeKey) -> EdgeState:
        """State of the edge by its ``Edge.key`` tuple."""
        position = self.layout.edge_pos.get(key)
        return EdgeState.NOT_SIGNALED if position is None else EDGE_STATES[self.edges[position]]

    def set_edge_state_key(self, key: EdgeKey, state: EdgeState) -> None:
        self.edges[self.layout.edge_pos[key]] = EDGE_CODE[state]
        self.settled = False

    def set_edge_state(
        self, source: str, target: str, state: EdgeState, edge_type: EdgeType = EdgeType.CONTROL
    ) -> None:
        self.set_edge_state_key((source, target, edge_type.value), state)

    # ------------------------------------------------------------------ #
    # comparison / the keyed form
    # ------------------------------------------------------------------ #

    def differences(self, other: "Marking") -> List[str]:
        """Human readable differences between two markings, by name (for tests)."""
        problems: List[str] = []
        for node_id in sorted(set(self.layout.node_ids) | set(other.layout.node_ids)):
            mine, theirs = self.node_state(node_id), other.node_state(node_id)
            if mine is not theirs:
                problems.append(f"node {node_id}: {mine.value} != {theirs.value}")
        for key in sorted(set(self.layout.edge_keys) | set(other.layout.edge_keys)):
            mine_edge, theirs_edge = self.edge_state_key(key), other.edge_state_key(key)
            if mine_edge is not theirs_edge:
                problems.append(f"edge {key}: {mine_edge.value} != {theirs_edge.value}")
        return problems

    def equivalent_to(self, other: "Marking") -> bool:
        """True when both markings assign the same states everywhere."""
        return not self.differences(other)

    def to_dict(self) -> dict:
        """The keyed form: states by name, JSON-compatible.

        What a biased case stores (its execution schema is re-materialised
        in another order on load) and what stores written before the
        positional form hold.  Edges are listed in sorted key order.
        """
        return {
            "node_states": {node_id: state.value for node_id, state in self.node_states.items()},
            "edge_states": [
                {"source": key[0], "target": key[1], "edge_type": key[2], "state": state.value}
                for key, state in sorted(self.edge_states.items())
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Marking":
        """The marking a keyed payload spells, on a layout of exactly its names."""
        from repro.runtime.kernel import MarkingLayout

        layout = MarkingLayout(
            "",
            0,
            tuple(payload.get("node_states", {})),
            tuple((e["source"], e["target"], e["edge_type"]) for e in payload.get("edge_states", [])),
        )
        return cls._from_keyed(payload, layout)

    @classmethod
    def _from_keyed(cls, payload: Mapping, layout: "MarkingLayout") -> "Marking":
        """Lay a keyed payload onto ``layout`` by name.

        A name the payload omits is untouched; one the layout does not
        hold, or an unknown state, raises ``ValueError``.
        """
        nodes = bytearray(len(layout.node_ids))
        edges = bytearray(len(layout.edge_keys))
        try:
            for node_id, value in payload.get("node_states", {}).items():
                nodes[layout.node_pos[node_id]] = NODE_CODE[NodeState(value)]
            for entry in payload.get("edge_states", []):
                key = (entry["source"], entry["target"], entry["edge_type"])
                edges[layout.edge_pos[key]] = EDGE_CODE[EdgeState(entry["state"])]
        except KeyError as exc:
            raise ValueError(f"{layout!r} does not hold {exc.args[0]!r}") from None
        return cls(layout, nodes, edges)

    # -- the stored form ------------------------------------------------ #
    #
    # Against the layout it lives on, a marking is stored *positionally*:
    # ``{"layout": <checksum>, "nodes": "4441…", "edges": "1102…"}`` — one
    # digit per node / edge in layout order; the schema version the record
    # references spells the names (paper Fig. 2).  The cache write-back adds
    # ``"fix": 1`` to either form while the marking is settled.

    def to_stored(self, layout: Optional["MarkingLayout"]) -> dict:
        """The stored form: positional when ``layout`` has this marking's coordinates.

        ``layout=None`` asks for the keyed form outright — the caller knows
        positions will not be reproducible on load (a biased case's
        execution schema is re-materialised in another order).
        """
        if layout is None or layout.checksum != self.layout.checksum:
            return self.to_dict()
        return {
            "layout": layout.checksum,
            "nodes": self.nodes.translate(_NODE_DIGITS).decode("ascii"),
            "edges": self.edges.translate(_EDGE_DIGITS).decode("ascii"),
        }

    @classmethod
    def from_stored(cls, payload: Mapping, layout: "MarkingLayout") -> "Marking":
        """Reconstruct a marking from either stored form, on ``layout``.

        A positional payload must name ``layout``'s checksum and fit its
        lengths — a mismatch raises ``ValueError`` instead of assigning
        states to the wrong nodes, as does an unknown code.  A keyed
        payload is laid onto the layout by name.
        """
        if "layout" not in payload:
            marking = cls._from_keyed(payload, layout)
        elif payload["layout"] != layout.checksum:
            raise ValueError(
                f"marking was stored against layout {payload['layout']}, "
                f"but {layout!r} has checksum {layout.checksum}"
            )
        else:
            nodes, edges = payload["nodes"], payload["edges"]
            if len(nodes) != len(layout.node_ids) or len(edges) != len(layout.edge_keys):
                raise ValueError(
                    f"marking codes ({len(nodes)} nodes, {len(edges)} edges) do not fit {layout!r}"
                )
            marking = cls(layout, _decode(nodes, _NODE_CODES), _decode(edges, _EDGE_CODES))
        marking.settled = bool(payload.get("fix"))
        return marking

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
        node_states = payload.get("node_states", {})
        edge_states = payload.get("edge_states", [])
        if (
            layout is not None
            and len(node_states) == len(layout.node_ids)
            and len(edge_states) == len(layout.edge_keys)
        ):
            try:
                stored = Marking._from_keyed(payload, layout).to_stored(layout)
                return (stored["layout"], stored["nodes"], stored["edges"])
            except ValueError:
                pass
        return (
            tuple(sorted(node_states.items())),
            tuple(
                sorted((e["source"], e["target"], e["edge_type"], e["state"]) for e in edge_states)
            ),
        )

    def __repr__(self) -> str:
        active = len(self.nodes_in_state(NodeState.ACTIVATED, NodeState.RUNNING))
        done = len(self.completed_nodes())
        return f"Marking(nodes={len(self.nodes)}, active={active}, completed={done})"
