"""Node, edge and instance states of the ADEPT2 runtime.

The paper's Fig. 1 legend shows the node states relevant for compliance
(``completed``, ``activated``, ``running``, ``TRUE signaled`` edges);
this module defines the full state model together with the legal state
transitions the engine enforces.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, FrozenSet, Set


class NodeState(str, Enum):
    """Execution state of a single node within an instance marking."""

    NOT_ACTIVATED = "not_activated"
    ACTIVATED = "activated"
    RUNNING = "running"
    SUSPENDED = "suspended"
    COMPLETED = "completed"
    SKIPPED = "skipped"
    FAILED = "failed"

    @property
    def is_started(self) -> bool:
        """True once work on the node has begun (running or beyond)."""
        return self in (NodeState.RUNNING, NodeState.SUSPENDED, NodeState.COMPLETED, NodeState.FAILED)

    @property
    def is_finished(self) -> bool:
        """True when the node will not execute (again) in this iteration."""
        return self in (NodeState.COMPLETED, NodeState.SKIPPED, NodeState.FAILED)

    @property
    def is_changeable(self) -> bool:
        """True when the node may still be affected by a change.

        Nodes that have not yet been started (and were not skipped) can be
        deleted, re-ordered or preceded by newly inserted activities
        without rewriting history — the key ingredient of the
        per-operation compliance conditions.
        """
        return self in (NodeState.NOT_ACTIVATED, NodeState.ACTIVATED)


class EdgeState(str, Enum):
    """Signalling state of a control or sync edge within a marking."""

    NOT_SIGNALED = "not_signaled"
    TRUE_SIGNALED = "true_signaled"
    FALSE_SIGNALED = "false_signaled"

    @property
    def is_signaled(self) -> bool:
        return self is not EdgeState.NOT_SIGNALED


class InstanceStatus(str, Enum):
    """Lifecycle state of a whole process instance."""

    CREATED = "created"
    RUNNING = "running"
    SUSPENDED = "suspended"
    COMPLETED = "completed"
    ABORTED = "aborted"

    @property
    def is_active(self) -> bool:
        """True while the instance may still execute activities."""
        return self in ACTIVE_STATUSES


#: The statuses of an instance that may still execute activities
#: (``status in ACTIVE_STATUSES`` is ``status.is_active`` without the call)
ACTIVE_STATUSES: FrozenSet[InstanceStatus] = frozenset(
    {InstanceStatus.CREATED, InstanceStatus.RUNNING, InstanceStatus.SUSPENDED}
)

#: ``InstanceStatus.is_active`` over the string form stored records and indexes hold
ACTIVE_STATUS_VALUES: FrozenSet[str] = frozenset(status.value for status in ACTIVE_STATUSES)

_NODE_TRANSITIONS: Dict[NodeState, FrozenSet[NodeState]] = {
    NodeState.NOT_ACTIVATED: frozenset({NodeState.ACTIVATED, NodeState.SKIPPED}),
    NodeState.ACTIVATED: frozenset(
        {NodeState.RUNNING, NodeState.COMPLETED, NodeState.SKIPPED, NodeState.NOT_ACTIVATED}
    ),
    NodeState.RUNNING: frozenset({NodeState.SUSPENDED, NodeState.COMPLETED, NodeState.FAILED}),
    NodeState.SUSPENDED: frozenset({NodeState.RUNNING, NodeState.FAILED}),
    NodeState.COMPLETED: frozenset({NodeState.NOT_ACTIVATED}),  # loop reset only
    NodeState.SKIPPED: frozenset({NodeState.NOT_ACTIVATED}),  # loop reset only
    NodeState.FAILED: frozenset({NodeState.NOT_ACTIVATED}),
}


def is_valid_node_transition(current: NodeState, target: NodeState) -> bool:
    """True when the engine may move a node from ``current`` to ``target``."""
    if current is target:
        return True
    return target in _NODE_TRANSITIONS[current]


def allowed_node_transitions(current: NodeState) -> Set[NodeState]:
    """All states reachable from ``current`` in one step."""
    return set(_NODE_TRANSITIONS[current])
