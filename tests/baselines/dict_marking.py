"""Reference marking: two plain dicts, the plainest statement of the contract.

:class:`DictMarking` is the dict-backed marking the runtime used before
the marking became two byte arrays — ``{node id: NodeState}`` and
``{edge key: EdgeState}``, every answer computed by walking them, the
stored forms spelled character by character.  It is reference code, not
production code: ``tests/properties/test_property_marking_parity.py``
drives it and :class:`repro.runtime.markings.Marking` through the same
random operation sequences and requires equal answers and equal stored
bytes.

Two things the array marking has and this one does not: a layout (the
dicts hold whatever was put into them, so writing an unknown node grows
the dict instead of raising) and the ``settled`` flag (a property of the
stepping kernel's fixpoint, not of the states).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.runtime.states import EdgeState, NodeState
from repro.schema.edges import EdgeType

EdgeKey = Tuple[str, str, str]

# the store format's code characters, spelled out independently of src/
NODE_CHAR = {
    NodeState.NOT_ACTIVATED: "0",
    NodeState.ACTIVATED: "1",
    NodeState.RUNNING: "2",
    NodeState.SUSPENDED: "3",
    NodeState.COMPLETED: "4",
    NodeState.SKIPPED: "5",
    NodeState.FAILED: "6",
}
EDGE_CHAR = {
    EdgeState.NOT_SIGNALED: "0",
    EdgeState.TRUE_SIGNALED: "1",
    EdgeState.FALSE_SIGNALED: "2",
}
NODE_OF_CHAR = {char: state for state, char in NODE_CHAR.items()}
EDGE_OF_CHAR = {char: state for state, char in EDGE_CHAR.items()}


class DictMarking:
    """State assignment for all nodes and (control/sync) edges of a schema."""

    def __init__(
        self,
        node_states: Optional[Mapping[str, NodeState]] = None,
        edge_states: Optional[Mapping[EdgeKey, EdgeState]] = None,
    ) -> None:
        self.node_states: Dict[str, NodeState] = dict(node_states or {})
        self.edge_states: Dict[EdgeKey, EdgeState] = dict(edge_states or {})

    @classmethod
    def initial(cls, schema) -> "DictMarking":
        index = schema.index
        return cls(
            dict.fromkeys(index.node_ids, NodeState.NOT_ACTIVATED),
            dict.fromkeys(index.non_loop_edge_keys(), EdgeState.NOT_SIGNALED),
        )

    def copy(self) -> "DictMarking":
        return DictMarking(self.node_states, self.edge_states)

    # -- nodes ----------------------------------------------------------- #

    def node_state(self, node_id: str) -> NodeState:
        return self.node_states.get(node_id, NodeState.NOT_ACTIVATED)

    def set_node_state(self, node_id: str, state: NodeState) -> None:
        self.node_states[node_id] = state

    def nodes_in_state(self, *states: NodeState) -> List[str]:
        wanted = set(states)
        return [node_id for node_id, state in self.node_states.items() if state in wanted]

    def activated_nodes(self) -> List[str]:
        return self.nodes_in_state(NodeState.ACTIVATED)

    def running_nodes(self) -> List[str]:
        return self.nodes_in_state(NodeState.RUNNING, NodeState.SUSPENDED)

    def completed_nodes(self) -> List[str]:
        return self.nodes_in_state(NodeState.COMPLETED)

    def started_nodes(self) -> List[str]:
        return [node_id for node_id, state in self.node_states.items() if state.is_started]

    # -- edges ----------------------------------------------------------- #

    def edge_state(
        self, source: str, target: str, edge_type: EdgeType = EdgeType.CONTROL
    ) -> EdgeState:
        return self.edge_state_key((source, target, edge_type.value))

    def edge_state_key(self, key: EdgeKey) -> EdgeState:
        return self.edge_states.get(key, EdgeState.NOT_SIGNALED)

    def set_edge_state_key(self, key: EdgeKey, state: EdgeState) -> None:
        self.edge_states[key] = state

    def set_edge_state(
        self, source: str, target: str, state: EdgeState, edge_type: EdgeType = EdgeType.CONTROL
    ) -> None:
        self.edge_states[(source, target, edge_type.value)] = state

    # -- comparison / keyed form ---------------------------------------- #

    def differences(self, other) -> List[str]:
        problems: List[str] = []
        for node_id in sorted(set(self.node_states) | set(other.node_states)):
            mine, theirs = self.node_state(node_id), other.node_state(node_id)
            if mine is not theirs:
                problems.append(f"node {node_id}: {mine.value} != {theirs.value}")
        for key in sorted(set(self.edge_states) | set(other.edge_states)):
            mine_edge, theirs_edge = self.edge_state_key(key), other.edge_state_key(key)
            if mine_edge is not theirs_edge:
                problems.append(f"edge {key}: {mine_edge.value} != {theirs_edge.value}")
        return problems

    def equivalent_to(self, other) -> bool:
        return not self.differences(other)

    def to_dict(self) -> dict:
        return {
            "node_states": {node_id: state.value for node_id, state in self.node_states.items()},
            "edge_states": [
                {"source": key[0], "target": key[1], "edge_type": key[2], "state": state.value}
                for key, state in sorted(self.edge_states.items())
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "DictMarking":
        return cls(
            {
                node_id: NodeState(value)
                for node_id, value in payload.get("node_states", {}).items()
            },
            {
                (entry["source"], entry["target"], entry["edge_type"]): EdgeState(entry["state"])
                for entry in payload.get("edge_states", [])
            },
        )

    # -- the stored form -------------------------------------------------- #

    def to_codes(self, layout) -> Optional[Tuple[str, str]]:
        """Code strings in layout order; ``None`` unless the dicts hold
        exactly the layout's nodes and edges."""
        if set(self.node_states) != set(layout.node_ids):
            return None
        if set(self.edge_states) != set(layout.edge_keys):
            return None
        return (
            "".join(NODE_CHAR[self.node_states[node_id]] for node_id in layout.node_ids),
            "".join(EDGE_CHAR[self.edge_states[key]] for key in layout.edge_keys),
        )

    @classmethod
    def from_codes(cls, layout, node_codes: str, edge_codes: str) -> "DictMarking":
        if len(node_codes) != len(layout.node_ids) or len(edge_codes) != len(layout.edge_keys):
            raise ValueError(
                f"marking codes ({len(node_codes)} nodes, {len(edge_codes)} edges) do not fit "
                f"{layout!r}"
            )
        for char in node_codes:
            if char not in NODE_OF_CHAR:
                raise ValueError(f"unknown marking state code {char!r}")
        for char in edge_codes:
            if char not in EDGE_OF_CHAR:
                raise ValueError(f"unknown marking state code {char!r}")
        return cls(
            {node_id: NODE_OF_CHAR[char] for node_id, char in zip(layout.node_ids, node_codes)},
            {key: EDGE_OF_CHAR[char] for key, char in zip(layout.edge_keys, edge_codes)},
        )

    def to_stored(self, layout) -> dict:
        codes = self.to_codes(layout) if layout is not None else None
        if codes is None:
            return self.to_dict()
        return {"layout": layout.checksum, "nodes": codes[0], "edges": codes[1]}

    @classmethod
    def from_stored(cls, payload: Mapping, layout) -> "DictMarking":
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
    def stored_key(payload: Mapping, layout=None) -> tuple:
        if "layout" in payload:
            return (payload["layout"], payload["nodes"], payload["edges"])
        if layout is not None:
            codes = DictMarking.from_dict(payload).to_codes(layout)
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
