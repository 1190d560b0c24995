"""High-level change operations with pre/post and compliance conditions.

ADEPT2 "offers a complete set of operations for defining changes at a high
semantic level and ensures correctness by introducing pre-/post-conditions
for these operations".  Every operation in this module knows how to

* check its **schema preconditions** (does the change make sense on this
  schema at all?),
* mark its **footprint** — what it may break that only the whole change
  log can judge (see :mod:`repro.core.footprint`),
* **apply** itself to a schema (always a copy owned by the caller),
* report its **compliance conflicts** for a concrete instance — the
  precise, easy-to-implement conditions over the instance marking and
  history that the paper's Fig. 1 illustrates for ``addActivity``,
* name the schema elements it **affects** (used for semantic overlap
  detection between concurrent type and instance changes), and
* serialise itself to a plain dictionary (change logs are persisted) —
  one codec on the base class, driven by the dataclass fields.

Together, preconditions and footprint make a change correct by
construction: a change log that ``ChangeLog.apply_to(check=True)``
accepts yields a schema the buildtime verifier would accept, so the
ad-hoc and migration paths run no verifier after a change
(``tests/properties/test_property_correct_by_construction.py``).
"""

from __future__ import annotations

import collections.abc
from abc import ABC, abstractmethod
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum
from operator import attrgetter, methodcaller
from typing import Any, Callable, ClassVar, Dict, List, Mapping, Optional, Sequence, Set, Tuple
from typing import get_origin, get_type_hints

from repro.core.conflicts import Conflict, data_conflict, state_conflict, structural_conflict
from repro.core.footprint import ChangeFootprint, decision_nodes_reading
from repro.core.primitives import (
    insert_conditional_block,
    insert_node_between,
    remove_activity_and_bridge,
    wrap_in_parallel_block,
)
from repro.errors import ReproError
from repro.runtime.instance import ProcessInstance
from repro.runtime.states import NodeState
from repro.schema.data import DataAccess, DataEdge, DataElement
from repro.schema.edges import Edge, EdgeType
from repro.schema.graph import ProcessSchema, SchemaError
from repro.schema.nodes import Node, NodeType
from repro.verification.dataflow import expression_identifiers
from repro.verification.report import IssueCode, VerificationIssue, error


class OperationError(ReproError):
    """Raised when an operation is applied although its preconditions fail.

    ``issues`` holds the verification issues of a change refused because
    its result would be incorrect; it is empty for an operation's own
    preconditions.
    """

    def __init__(self, message: str, issues: Sequence[VerificationIssue] = ()) -> None:
        super().__init__(message)
        self.issues: Tuple[VerificationIssue, ...] = tuple(issues)


# --------------------------------------------------------------------------- #
# base class and registry
# --------------------------------------------------------------------------- #

_OPERATION_REGISTRY: Dict[str, type] = {}

_Convert = Optional[Callable[[Any], Any]]
#: one payload key: field name, encoder, decoder (None: stored as it is), required
_FieldCodec = Tuple[str, _Convert, _Convert, bool]


def _field_codec(hint: Any) -> Tuple[_Convert, _Convert]:
    """Encoder and decoder of a field annotated ``hint``."""
    if hint in (Node, DataElement):
        return methodcaller("to_dict"), hint.from_dict
    if isinstance(hint, type) and issubclass(hint, Enum):
        return attrgetter("value"), hint
    if get_origin(hint) is tuple:
        return list, tuple
    if get_origin(hint) is collections.abc.Mapping:
        return dict, dict
    return None, None


def _register(cls):
    """Class decorator: add the operation to the registry and plan its payload codec."""
    hints = get_type_hints(cls)
    cls._codec = tuple(
        (f.name, *_field_codec(hints[f.name]), f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    )
    _OPERATION_REGISTRY[cls.operation_name] = cls
    return cls


def operation_from_dict(payload: Mapping[str, Any]) -> "ChangeOperation":
    """Reconstruct any change operation from its :meth:`to_dict` payload."""
    name = payload.get("op")
    if name not in _OPERATION_REGISTRY:
        raise OperationError(f"unknown change operation {name!r}")
    return _OPERATION_REGISTRY[name].from_dict(payload)


class ChangeOperation(ABC):
    """Common interface of all ADEPT2 change operations."""

    operation_name: ClassVar[str] = "abstract"
    #: the payload plan :func:`_register` derives from the dataclass fields
    _codec: ClassVar[Tuple[_FieldCodec, ...]] = ()

    # -- schema level ---------------------------------------------------- #

    @abstractmethod
    def check_preconditions(self, schema: ProcessSchema) -> List[str]:
        """Problems that prevent applying the operation to ``schema``."""

    @abstractmethod
    def apply(self, schema: ProcessSchema) -> None:
        """Apply the operation to ``schema`` (mutating it).

        Callers are expected to pass a copy; raising midway therefore never
        corrupts a live schema.  Raises :class:`OperationError` when the
        preconditions do not hold.
        """

    def mark_footprint(self, schema: ProcessSchema, footprint: ChangeFootprint) -> None:
        """Record in ``footprint`` what applying to ``schema`` may break.

        Called on the schema the operation applies to, after its
        preconditions hold and before it applies.  The default marks
        nothing: the operation cannot invalidate the data flow or add a
        sync edge.
        """

    def require(self, schema: ProcessSchema, footprint: Optional[ChangeFootprint] = None) -> None:
        """Raise :class:`OperationError` unless the preconditions hold, then mark ``footprint``."""
        problems = self.check_preconditions(schema)
        if problems:
            raise OperationError(
                f"{self.describe()}: preconditions failed: " + "; ".join(problems)
            )
        if footprint is not None:
            self.mark_footprint(schema, footprint)

    def apply_checked(self, schema: ProcessSchema) -> None:
        """Check preconditions, then apply.

        One operation alone: what only a whole change log can judge is
        checked by ``ChangeLog.apply_to``.
        """
        self.require(schema)
        self.apply(schema)

    # -- instance level --------------------------------------------------- #

    def compliance_conflicts(
        self, instance: ProcessInstance, introduced: Optional[Set[str]] = None
    ) -> List[Conflict]:
        """State-related conflicts of this change with a running instance.

        An empty list means the instance is compliant with the operation:
        its (reduced) execution history could have been produced on the
        changed schema as well, so it may be migrated / changed on the fly.
        The default is an always-compliant operation.
        """
        return []

    # -- metadata ---------------------------------------------------------- #

    def affected_nodes(self) -> Set[str]:
        """Existing node ids this operation reads or rewires."""
        return set()

    def added_node_ids(self) -> Set[str]:
        """Node ids newly introduced by this operation."""
        return set()

    def removed_node_ids(self) -> Set[str]:
        """Node ids removed by this operation."""
        return set()

    def affected_elements(self) -> Set[str]:
        """Data element names this operation touches."""
        return set()

    def inverse(self) -> "ChangeOperation":
        """The operation undoing this one (not available for every kind)."""
        raise NotImplementedError(f"{self.operation_name} has no static inverse")

    def to_dict(self) -> Dict[str, Any]:
        """Serialise the operation: ``op``, then every field in declaration order."""
        payload: Dict[str, Any] = {"op": self.operation_name}
        for name, encode, _, _ in self._codec:
            value = getattr(self, name)
            payload[name] = value if encode is None else encode(value)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ChangeOperation":
        """Reconstruct the operation from :meth:`to_dict` output.

        A field without a default is a required key; an absent optional key
        takes the field's default.  A malformed payload raises
        :class:`OperationError` naming the operation and the key.
        """
        arguments: Dict[str, Any] = {}
        for name, _, decode, required in cls._codec:
            if name not in payload:
                if required:
                    raise OperationError(
                        f"{cls.operation_name} payload lacks the required key {name!r}"
                    )
                continue
            value = payload[name]
            if decode is not None:
                try:
                    value = decode(value)
                except (KeyError, TypeError, ValueError) as exc:
                    raise OperationError(
                        f"{cls.operation_name} payload has a malformed {name!r}: {exc}"
                    ) from exc
            arguments[name] = value
        return cls(**arguments)

    def describe(self) -> str:
        """Short human readable rendering (used in reports and conflicts)."""
        return f"{self.operation_name}"


# --------------------------------------------------------------------------- #
# helpers shared by several operations
# --------------------------------------------------------------------------- #


def _not_started(
    instance: ProcessInstance, node_id: str, introduced: Optional[Set[str]] = None
) -> bool:
    """True when the node has not begun execution in the current iteration.

    Nodes introduced by earlier operations of the same change (``introduced``)
    have trivially not started yet.
    """
    if introduced and node_id in introduced:
        return True
    return not instance.marking.node_state(node_id).is_started


def _exists(schema: ProcessSchema, node_id: str, introduced: Optional[Set[str]] = None) -> bool:
    """True when the node exists on the schema or is introduced by the same change."""
    if schema.has_node(node_id):
        return True
    return bool(introduced and node_id in introduced)


def _block_id_problems(schema: ProcessSchema, *node_ids: str) -> List[str]:
    return [f"node {node_id!r} already exists" for node_id in node_ids if schema.has_node(node_id)]


def _insert_position_problems(
    schema: ProcessSchema, node_id: str, pred: str, succ: str
) -> List[str]:
    """Preconditions of inserting ``node_id`` into the control edge ``pred -> succ``."""
    problems = _block_id_problems(schema, node_id)
    if not schema.has_node(pred):
        problems.append(f"predecessor {pred!r} does not exist")
    if not schema.has_node(succ):
        problems.append(f"successor {succ!r} does not exist")
    if (
        schema.has_node(pred)
        and schema.has_node(succ)
        and not schema.has_edge(pred, succ, EdgeType.CONTROL)
    ):
        problems.append(f"no control edge {pred!r} -> {succ!r}")
    return problems


def _lost_position(
    operation: Any, instance: ProcessInstance, introduced: Optional[Set[str]]
) -> List[Conflict]:
    """The structural conflict of an insert whose ``pred -> succ`` is gone from the instance."""
    schema = instance.execution_schema
    if _exists(schema, operation.succ, introduced) and _exists(schema, operation.pred, introduced):
        return []
    return [
        structural_conflict(
            "insertion position no longer exists on the instance's schema",
            nodes=(operation.pred, operation.succ),
            operation=operation.describe(),
        )
    ]


class _ActivityInsert:
    """The inserted activity's footprint, data edges and elements, for the three inserts.

    A mixin without fields: inheriting dataclass fields would reorder the
    operations' payload keys.
    """

    def mark_footprint(self, schema: ProcessSchema, footprint: ChangeFootprint) -> None:
        """Footprint of an inserted activity: its node type and its reads."""
        node = self.activity
        if node.node_type is not NodeType.ACTIVITY:
            loop_node = node.node_type in (NodeType.LOOP_START, NodeType.LOOP_END)
            footprint.issues.append(
                error(
                    IssueCode.UNMATCHED_BLOCK if loop_node else IssueCode.BAD_DEGREE,
                    f"inserted node {node.node_id!r} is a {node.node_type.value} node, "
                    "not an activity",
                    nodes=(node.node_id,),
                )
            )
        if self.reads:
            footprint.nodes.add(node.node_id)

    def _attach_data_edges(self, schema: ProcessSchema) -> None:
        for access, elements in ((DataAccess.READ, self.reads), (DataAccess.WRITE, self.writes)):
            for element in elements:
                if not schema.has_data_element(element):
                    schema.add_data_element(DataElement(name=element))
                schema.add_data_edge(
                    DataEdge(activity=self.activity.node_id, element=element, access=access)
                )

    def affected_elements(self) -> Set[str]:
        return set(self.reads) | set(self.writes)


# --------------------------------------------------------------------------- #
# control-flow operations
# --------------------------------------------------------------------------- #


@_register
@dataclass
class SerialInsertActivity(_ActivityInsert, ChangeOperation):
    """Insert a new activity into the control edge ``pred -> succ``.

    This is the paper's ``addActivity(S, act, Preds, Succs)`` for the serial
    case (one predecessor, one successor).  Compliance condition: the
    successor must not have started yet — otherwise the new activity could
    no longer be executed before it, so the instance's history would not be
    producible on the changed schema.
    """

    operation_name: ClassVar[str] = "serial_insert_activity"

    activity: Node
    pred: str
    succ: str
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()

    def check_preconditions(self, schema: ProcessSchema) -> List[str]:
        return _insert_position_problems(schema, self.activity.node_id, self.pred, self.succ)

    def apply(self, schema: ProcessSchema) -> None:
        insert_node_between(schema, self.activity, self.pred, self.succ)
        self._attach_data_edges(schema)

    def compliance_conflicts(
        self, instance: ProcessInstance, introduced: Optional[Set[str]] = None
    ) -> List[Conflict]:
        lost = _lost_position(self, instance, introduced)
        if lost or _not_started(instance, self.succ, introduced):
            return lost
        return [
            state_conflict(
                f"successor {self.succ!r} already started "
                f"({instance.marking.node_state(self.succ).value}); the inserted activity "
                "could no longer run before it",
                nodes=(self.succ,),
                operation=self.describe(),
            )
        ]

    def affected_nodes(self) -> Set[str]:
        return {self.pred, self.succ}

    def added_node_ids(self) -> Set[str]:
        return {self.activity.node_id}

    def inverse(self) -> "ChangeOperation":
        return DeleteActivity(activity_id=self.activity.node_id)

    def describe(self) -> str:
        return f"serialInsert({self.activity.node_id}, {self.pred} -> {self.succ})"


@_register
@dataclass
class ParallelInsertActivity(_ActivityInsert, ChangeOperation):
    """Insert a new activity in parallel to an existing one.

    The existing activity is wrapped into a fresh AND block whose second
    branch contains the new activity.  Compliance condition: the node
    *after* the existing activity must not have started yet, because the
    new AND join has to be passed before the flow continues there.
    """

    operation_name: ClassVar[str] = "parallel_insert_activity"

    activity: Node
    parallel_to: str
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()

    @property
    def split_id(self) -> str:
        return f"{self.activity.node_id}__psplit"

    @property
    def join_id(self) -> str:
        return f"{self.activity.node_id}__pjoin"

    def check_preconditions(self, schema: ProcessSchema) -> List[str]:
        problems = _block_id_problems(schema, self.activity.node_id)
        if not schema.has_node(self.parallel_to):
            problems.append(f"activity {self.parallel_to!r} does not exist")
            return problems
        if not schema.node(self.parallel_to).is_activity:
            problems.append(f"{self.parallel_to!r} is not an activity node")
        problems.extend(_block_id_problems(schema, self.split_id, self.join_id))
        return problems

    def apply(self, schema: ProcessSchema) -> None:
        wrap_in_parallel_block(schema, self.parallel_to, self.activity, self.split_id, self.join_id)
        self._attach_data_edges(schema)

    def compliance_conflicts(
        self, instance: ProcessInstance, introduced: Optional[Set[str]] = None
    ) -> List[Conflict]:
        schema = instance.execution_schema
        if not _exists(schema, self.parallel_to, introduced):
            return [
                structural_conflict(
                    f"activity {self.parallel_to!r} no longer exists on the instance's schema",
                    nodes=(self.parallel_to,),
                    operation=self.describe(),
                )
            ]
        successors = schema.successors(self.parallel_to, EdgeType.CONTROL)
        blocking = [s for s in successors if not _not_started(instance, s, introduced)]
        if not blocking:
            return []
        return [
            state_conflict(
                f"the region after {self.parallel_to!r} already started; the new parallel "
                "branch could no longer complete before the flow continues",
                nodes=tuple(blocking),
                operation=self.describe(),
            )
        ]

    def affected_nodes(self) -> Set[str]:
        return {self.parallel_to}

    def added_node_ids(self) -> Set[str]:
        return {self.activity.node_id, self.split_id, self.join_id}

    def describe(self) -> str:
        return f"parallelInsert({self.activity.node_id} || {self.parallel_to})"


@_register
@dataclass
class ConditionalInsertActivity(_ActivityInsert, ChangeOperation):
    """Insert a new activity between two nodes, guarded by a condition.

    A fresh XOR block is created whose guarded branch contains the new
    activity and whose default branch is empty.  Compliance condition is
    the same as for the serial insert: the successor must not have started.
    """

    operation_name: ClassVar[str] = "conditional_insert_activity"

    activity: Node
    pred: str
    succ: str
    guard: str = "True"
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()

    @property
    def split_id(self) -> str:
        return f"{self.activity.node_id}__csplit"

    @property
    def join_id(self) -> str:
        return f"{self.activity.node_id}__cjoin"

    def check_preconditions(self, schema: ProcessSchema) -> List[str]:
        problems = _insert_position_problems(schema, self.activity.node_id, self.pred, self.succ)
        return problems + _block_id_problems(schema, self.split_id, self.join_id)

    def mark_footprint(self, schema: ProcessSchema, footprint: ChangeFootprint) -> None:
        super().mark_footprint(schema, footprint)
        if self.guard is None:
            footprint.issues.append(
                error(
                    IssueCode.DUPLICATE_GUARD_DEFAULT,
                    "a conditional insert needs a guard: its other branch is the default",
                    nodes=(self.split_id,),
                )
            )
        elif expression_identifiers(self.guard):
            footprint.nodes.add(self.split_id)

    def apply(self, schema: ProcessSchema) -> None:
        insert_conditional_block(
            schema, self.activity, self.pred, self.succ, self.guard, self.split_id, self.join_id
        )
        self._attach_data_edges(schema)

    def compliance_conflicts(
        self, instance: ProcessInstance, introduced: Optional[Set[str]] = None
    ) -> List[Conflict]:
        lost = _lost_position(self, instance, introduced)
        if lost or _not_started(instance, self.succ, introduced):
            return lost
        return [
            state_conflict(
                f"successor {self.succ!r} already started; the conditional block could "
                "no longer be evaluated before it",
                nodes=(self.succ,),
                operation=self.describe(),
            )
        ]

    def affected_nodes(self) -> Set[str]:
        return {self.pred, self.succ}

    def added_node_ids(self) -> Set[str]:
        return {self.activity.node_id, self.split_id, self.join_id}

    def describe(self) -> str:
        return f"conditionalInsert({self.activity.node_id}, {self.pred} -> {self.succ}, if {self.guard})"


@_register
@dataclass
class DeleteActivity(ChangeOperation):
    """Delete an activity and bridge its neighbours.

    Compliance condition: the activity must not have started (running or
    completed work cannot be undone).  Deleting the writer of a data
    element that a later activity still needs raises a data conflict
    unless ``supply_values`` provides a substitute (the paper's
    "problem of missing data ... is hidden from users").
    """

    operation_name: ClassVar[str] = "delete_activity"

    activity_id: str
    supply_values: Mapping[str, Any] = field(default_factory=dict)

    def check_preconditions(self, schema: ProcessSchema) -> List[str]:
        problems: List[str] = []
        if not schema.has_node(self.activity_id):
            problems.append(f"activity {self.activity_id!r} does not exist")
            return problems
        node = schema.node(self.activity_id)
        if not node.is_activity:
            problems.append(f"{self.activity_id!r} is not an activity node")
            return problems
        incoming = schema.edges_to(self.activity_id, EdgeType.CONTROL)
        outgoing = schema.edges_from(self.activity_id, EdgeType.CONTROL)
        if len(incoming) != 1 or len(outgoing) != 1:
            problems.append(
                f"activity {self.activity_id!r} must have exactly one incoming and outgoing control edge"
            )
            return problems
        pred, succ = incoming[0].source, outgoing[0].target
        if schema.has_edge(pred, succ, EdgeType.CONTROL):
            problems.append(
                f"deleting {self.activity_id!r} would duplicate the control edge {pred!r} -> {succ!r}"
            )
        problems.extend(self._missing_data_problems(schema))
        return problems

    def _missing_data_problems(self, schema: ProcessSchema) -> List[str]:
        problems: List[str] = []
        for write in schema.writes_of(self.activity_id):
            element = write.element
            if element in self.supply_values:
                continue
            other_writers = [w for w in schema.writers_of(element) if w != self.activity_id]
            readers = [r for r in schema.readers_of(element) if r != self.activity_id]
            mandatory_readers = [
                d.activity
                for d in schema.data_edges
                if d.element == element and d.is_read and d.mandatory and d.activity != self.activity_id
            ]
            has_default = schema.data_element(element).default is not None
            if mandatory_readers and not other_writers and not has_default:
                problems.append(
                    f"deleting {self.activity_id!r} removes the only writer of {element!r} "
                    f"still read by {sorted(mandatory_readers)!r} (supply a value to resolve)"
                )
        return problems

    def mark_footprint(self, schema: ProcessSchema, footprint: ChangeFootprint) -> None:
        # its writes, and what reached later nodes through it or its sync
        # edges, are gone: everything after it is re-checked
        index = schema.index
        if footprint.carries_data(index, self.activity_id):
            footprint.hand_over(index, self.activity_id)

    def apply(self, schema: ProcessSchema) -> None:
        # sync edges attached to the activity are dropped together with it
        remove_activity_and_bridge(schema, self.activity_id)
        # Supplied values become defaults of the affected data elements, so
        # later readers keep a guaranteed input (the "missing data" handling
        # the paper mentions for ad-hoc deletions).
        for element_name, value in self.supply_values.items():
            if schema.has_data_element(element_name):
                element = schema.data_element(element_name)
                schema.data_elements[element_name] = replace(element, default=value)

    def compliance_conflicts(
        self, instance: ProcessInstance, introduced: Optional[Set[str]] = None
    ) -> List[Conflict]:
        schema = instance.execution_schema
        if not _exists(schema, self.activity_id, introduced):
            return [
                structural_conflict(
                    f"activity {self.activity_id!r} no longer exists on the instance's schema",
                    nodes=(self.activity_id,),
                    operation=self.describe(),
                )
            ]
        state = instance.marking.node_state(self.activity_id)
        if state.is_started:
            return [
                state_conflict(
                    f"activity {self.activity_id!r} already started ({state.value}); "
                    "performed work cannot be deleted",
                    nodes=(self.activity_id,),
                    operation=self.describe(),
                )
            ]
        conflicts: List[Conflict] = []
        for write in schema.writes_of(self.activity_id):
            element = write.element
            if element in self.supply_values or instance.data.has_value(element):
                continue
            mandatory_readers = [
                d.activity
                for d in schema.data_edges
                if d.element == element
                and d.is_read
                and d.mandatory
                and d.activity != self.activity_id
                and not instance.marking.node_state(d.activity).is_finished
            ]
            other_writers = [w for w in schema.writers_of(element) if w != self.activity_id]
            if mandatory_readers and not other_writers:
                conflicts.append(
                    data_conflict(
                        f"deleting {self.activity_id!r} leaves {sorted(mandatory_readers)!r} "
                        f"without input {element!r}",
                        element=element,
                        nodes=tuple(sorted(mandatory_readers)),
                    )
                )
        return conflicts

    def affected_nodes(self) -> Set[str]:
        return {self.activity_id}

    def removed_node_ids(self) -> Set[str]:
        return {self.activity_id}

    def describe(self) -> str:
        return f"deleteActivity({self.activity_id})"


@_register
@dataclass
class MoveActivity(ChangeOperation):
    """Move (shift) an activity to a new position in the control flow.

    Equivalent to deleting the activity and serially re-inserting it
    between ``new_pred`` and ``new_succ``, performed as one atomic
    operation.  Compliance requires both that the activity has not started
    and that the new successor has not started.
    """

    operation_name: ClassVar[str] = "move_activity"

    activity_id: str
    new_pred: str
    new_succ: str

    def check_preconditions(self, schema: ProcessSchema) -> List[str]:
        problems: List[str] = []
        if not schema.has_node(self.activity_id):
            problems.append(f"activity {self.activity_id!r} does not exist")
            return problems
        if not schema.node(self.activity_id).is_activity:
            problems.append(f"{self.activity_id!r} is not an activity node")
        for node_id in (self.new_pred, self.new_succ):
            if not schema.has_node(node_id):
                problems.append(f"node {node_id!r} does not exist")
        if self.activity_id in (self.new_pred, self.new_succ):
            problems.append("an activity cannot be moved next to itself")
        if problems:
            return problems
        incoming = schema.edges_to(self.activity_id, EdgeType.CONTROL)
        outgoing = schema.edges_from(self.activity_id, EdgeType.CONTROL)
        if len(incoming) != 1 or len(outgoing) != 1:
            problems.append(
                f"activity {self.activity_id!r} must have exactly one incoming and outgoing control edge"
            )
            return problems
        pred, succ = incoming[0].source, outgoing[0].target
        # the target edge must exist now, or arise from bridging the old position
        target_edge_exists = schema.has_edge(self.new_pred, self.new_succ, EdgeType.CONTROL)
        target_edge_is_bridge = (self.new_pred, self.new_succ) == (pred, succ)
        if not target_edge_exists and not target_edge_is_bridge:
            problems.append(f"no control edge {self.new_pred!r} -> {self.new_succ!r} to move into")
        if target_edge_exists and (pred, succ) == (self.new_pred, self.new_succ):
            problems.append("activity already sits between the requested nodes")
        if schema.has_edge(pred, succ, EdgeType.CONTROL):
            problems.append(
                f"moving {self.activity_id!r} would duplicate the control edge {pred!r} -> {succ!r}"
            )
        return problems

    def mark_footprint(self, schema: ProcessSchema, footprint: ChangeFootprint) -> None:
        # at its old place like a deletion, at its new one like an insert
        # that keeps its reads, writes and sync edges
        index = schema.index
        if footprint.carries_data(index, self.activity_id) or index.read_edges(self.activity_id):
            footprint.hand_over(index, self.activity_id)
            footprint.nodes.add(self.activity_id)
        for edge in index.out_edges(self.activity_id, EdgeType.SYNC) + index.in_edges(
            self.activity_id, EdgeType.SYNC
        ):
            footprint.sync_edges.add((edge.source, edge.target))

    def apply(self, schema: ProcessSchema) -> None:
        node = schema.node(self.activity_id)
        data_edges = schema.data_edges_of(self.activity_id)
        sync_out = schema.edges_from(self.activity_id, EdgeType.SYNC)
        sync_in = schema.edges_to(self.activity_id, EdgeType.SYNC)
        remove_activity_and_bridge(schema, self.activity_id)
        insert_node_between(schema, node, self.new_pred, self.new_succ)
        for data_edge in data_edges:
            schema.add_data_edge(data_edge)
        for edge in sync_out + sync_in:
            schema.add_edge(edge)

    def compliance_conflicts(
        self, instance: ProcessInstance, introduced: Optional[Set[str]] = None
    ) -> List[Conflict]:
        schema = instance.execution_schema
        missing = [
            n
            for n in (self.activity_id, self.new_pred, self.new_succ)
            if not _exists(schema, n, introduced)
        ]
        if missing:
            return [
                structural_conflict(
                    "nodes referenced by the move no longer exist on the instance's schema",
                    nodes=tuple(missing),
                    operation=self.describe(),
                )
            ]
        conflicts: List[Conflict] = []
        state = instance.marking.node_state(self.activity_id)
        if state.is_started:
            conflicts.append(
                state_conflict(
                    f"activity {self.activity_id!r} already started ({state.value}) and cannot be moved",
                    nodes=(self.activity_id,),
                    operation=self.describe(),
                )
            )
        if not _not_started(instance, self.new_succ, introduced):
            conflicts.append(
                state_conflict(
                    f"new successor {self.new_succ!r} already started; the moved activity could "
                    "no longer run before it",
                    nodes=(self.new_succ,),
                    operation=self.describe(),
                )
            )
        return conflicts

    def affected_nodes(self) -> Set[str]:
        return {self.activity_id, self.new_pred, self.new_succ}

    def describe(self) -> str:
        return f"moveActivity({self.activity_id} to {self.new_pred} -> {self.new_succ})"


@_register
@dataclass
class InsertSyncEdge(ChangeOperation):
    """Insert a sync edge ordering two activities of parallel branches.

    This is the ``insertSyncEdge`` of the paper's ΔT.  Compliance: the
    target must not have started yet — unless the source had already
    completed before the target started, in which case the recorded
    history happens to satisfy the new ordering anyway (relaxed trace
    equivalence at work).
    """

    operation_name: ClassVar[str] = "insert_sync_edge"

    source: str
    target: str

    def check_preconditions(self, schema: ProcessSchema) -> List[str]:
        problems: List[str] = []
        for node_id in (self.source, self.target):
            if not schema.has_node(node_id):
                problems.append(f"node {node_id!r} does not exist")
        if problems:
            return problems
        if self.source == self.target:
            problems.append("sync edge endpoints must differ")
        if schema.has_edge(self.source, self.target, EdgeType.SYNC):
            problems.append(f"sync edge {self.source!r} -> {self.target!r} already exists")
        if schema.control_path_exists(self.source, self.target) or schema.control_path_exists(
            self.target, self.source
        ):
            problems.append(
                f"{self.source!r} and {self.target!r} are already ordered by control edges"
            )
        return problems

    def mark_footprint(self, schema: ProcessSchema, footprint: ChangeFootprint) -> None:
        # a cycle over control and sync edges, or a crossed loop boundary,
        # may need sync edges the rest of the log adds or moves
        footprint.sync_edges.add((self.source, self.target))

    def apply(self, schema: ProcessSchema) -> None:
        schema.add_edge(Edge(source=self.source, target=self.target, edge_type=EdgeType.SYNC))

    def compliance_conflicts(
        self, instance: ProcessInstance, introduced: Optional[Set[str]] = None
    ) -> List[Conflict]:
        schema = instance.execution_schema
        missing = [n for n in (self.source, self.target) if not _exists(schema, n, introduced)]
        if missing:
            return [
                structural_conflict(
                    "sync edge endpoints no longer exist on the instance's schema",
                    nodes=tuple(missing),
                    operation=self.describe(),
                )
            ]
        if _not_started(instance, self.target, introduced):
            return []
        # target already started: only compliant when the source finished first
        source_state = instance.marking.node_state(self.source)
        if source_state in (NodeState.COMPLETED, NodeState.SKIPPED):
            completed = instance.history.completed_activities(reduced=True)
            started = instance.history.started_activities(reduced=True)
            if self.source in completed and self.target in started:
                if completed.index(self.source) <= len(started) and self._ordered_in_history(instance):
                    return []
            elif source_state is NodeState.SKIPPED:
                return []
        return [
            state_conflict(
                f"target {self.target!r} already started before source {self.source!r} completed; "
                "the new ordering constraint is violated by the recorded history",
                nodes=(self.source, self.target),
                operation=self.describe(),
            )
        ]

    def _ordered_in_history(self, instance: ProcessInstance) -> bool:
        """True when the source's completion precedes the target's start."""
        source_sequence: Optional[int] = None
        target_sequence: Optional[int] = None
        for entry in instance.history.reduced():
            if entry.activity == self.source and entry.event.value == "activity_completed":
                if source_sequence is None:
                    source_sequence = entry.sequence
            if entry.activity == self.target and entry.event.value == "activity_started":
                if target_sequence is None:
                    target_sequence = entry.sequence
        if target_sequence is None:
            return True
        return source_sequence is not None and source_sequence < target_sequence

    def affected_nodes(self) -> Set[str]:
        return {self.source, self.target}

    def inverse(self) -> "ChangeOperation":
        return DeleteSyncEdge(source=self.source, target=self.target)

    def describe(self) -> str:
        return f"insertSyncEdge({self.source} -> {self.target})"


@_register
@dataclass
class DeleteSyncEdge(ChangeOperation):
    """Remove a sync edge.  Always state-compliant (a constraint is dropped)."""

    operation_name: ClassVar[str] = "delete_sync_edge"

    source: str
    target: str

    def check_preconditions(self, schema: ProcessSchema) -> List[str]:
        if not schema.has_edge(self.source, self.target, EdgeType.SYNC):
            return [f"sync edge {self.source!r} -> {self.target!r} does not exist"]
        return []

    def mark_footprint(self, schema: ProcessSchema, footprint: ChangeFootprint) -> None:
        # the target no longer sees what the source had written
        footprint.nodes.add(self.target)

    def apply(self, schema: ProcessSchema) -> None:
        schema.remove_edge(self.source, self.target, EdgeType.SYNC)

    def affected_nodes(self) -> Set[str]:
        return {self.source, self.target}

    def inverse(self) -> "ChangeOperation":
        return InsertSyncEdge(source=self.source, target=self.target)

    def describe(self) -> str:
        return f"deleteSyncEdge({self.source} -> {self.target})"


# --------------------------------------------------------------------------- #
# data-flow operations
# --------------------------------------------------------------------------- #


@_register
@dataclass
class AddDataElement(ChangeOperation):
    """Declare a new data element.  Always state-compliant."""

    operation_name: ClassVar[str] = "add_data_element"

    element: DataElement

    def check_preconditions(self, schema: ProcessSchema) -> List[str]:
        if schema.has_data_element(self.element.name):
            return [f"data element {self.element.name!r} already exists"]
        return []

    def apply(self, schema: ProcessSchema) -> None:
        schema.add_data_element(self.element)

    def affected_elements(self) -> Set[str]:
        return {self.element.name}

    def inverse(self) -> "ChangeOperation":
        return DeleteDataElement(name=self.element.name)

    def describe(self) -> str:
        return f"addDataElement({self.element.name})"


@_register
@dataclass
class DeleteDataElement(ChangeOperation):
    """Remove a data element (and all data edges referring to it)."""

    operation_name: ClassVar[str] = "delete_data_element"

    name: str

    def check_preconditions(self, schema: ProcessSchema) -> List[str]:
        problems: List[str] = []
        if not schema.has_data_element(self.name):
            problems.append(f"data element {self.name!r} does not exist")
            return problems
        mandatory_readers = [
            d.activity for d in schema.data_edges if d.element == self.name and d.is_read and d.mandatory
        ]
        if mandatory_readers:
            problems.append(
                f"data element {self.name!r} is still mandatorily read by {sorted(mandatory_readers)!r}"
            )
        return problems

    def mark_footprint(self, schema: ProcessSchema, footprint: ChangeFootprint) -> None:
        footprint.nodes |= decision_nodes_reading(schema, self.name)

    def apply(self, schema: ProcessSchema) -> None:
        schema.remove_data_element(self.name)

    def affected_elements(self) -> Set[str]:
        return {self.name}

    def describe(self) -> str:
        return f"deleteDataElement({self.name})"


@_register
@dataclass
class AddDataEdge(ChangeOperation):
    """Connect an activity to a data element with read or write access.

    Adding a mandatory read to an activity that already started is a state
    conflict unless the instance already holds a value for the element.
    Adding a write to a completed activity is a state conflict (the write
    never happened and cannot be made up).
    """

    operation_name: ClassVar[str] = "add_data_edge"

    activity: str
    element: str
    access: DataAccess
    mandatory: bool = True

    def check_preconditions(self, schema: ProcessSchema) -> List[str]:
        problems: List[str] = []
        if not schema.has_node(self.activity):
            problems.append(f"activity {self.activity!r} does not exist")
        if not schema.has_data_element(self.element):
            problems.append(f"data element {self.element!r} does not exist")
        if not problems and any(
            d.key == (self.activity, self.element, self.access.value) for d in schema.data_edges
        ):
            problems.append(
                f"data edge {self.activity!r} {self.access.value} {self.element!r} already exists"
            )
        return problems

    def mark_footprint(self, schema: ProcessSchema, footprint: ChangeFootprint) -> None:
        if self.access is DataAccess.READ and self.mandatory:
            footprint.nodes.add(self.activity)

    def apply(self, schema: ProcessSchema) -> None:
        schema.add_data_edge(
            DataEdge(
                activity=self.activity,
                element=self.element,
                access=self.access,
                mandatory=self.mandatory,
            )
        )

    def compliance_conflicts(
        self, instance: ProcessInstance, introduced: Optional[Set[str]] = None
    ) -> List[Conflict]:
        schema = instance.execution_schema
        if not _exists(schema, self.activity, introduced):
            return [
                structural_conflict(
                    f"activity {self.activity!r} no longer exists on the instance's schema",
                    nodes=(self.activity,),
                    operation=self.describe(),
                )
            ]
        state = instance.marking.node_state(self.activity)
        if not state.is_started:
            return []
        if self.access is DataAccess.READ:
            if not self.mandatory or instance.data.has_value(self.element):
                return []
            return [
                data_conflict(
                    f"activity {self.activity!r} already started without the newly required "
                    f"input {self.element!r}",
                    element=self.element,
                    nodes=(self.activity,),
                )
            ]
        return [
            state_conflict(
                f"activity {self.activity!r} already started; its history contains no write "
                f"of {self.element!r}",
                nodes=(self.activity,),
                operation=self.describe(),
            )
        ]

    def affected_nodes(self) -> Set[str]:
        return {self.activity}

    def affected_elements(self) -> Set[str]:
        return {self.element}

    def inverse(self) -> "ChangeOperation":
        return DeleteDataEdge(activity=self.activity, element=self.element, access=self.access)

    def describe(self) -> str:
        return f"addDataEdge({self.activity} {self.access.value} {self.element})"


@_register
@dataclass
class DeleteDataEdge(ChangeOperation):
    """Remove a read or write data edge.  Always state-compliant."""

    operation_name: ClassVar[str] = "delete_data_edge"

    activity: str
    element: str
    access: DataAccess

    def check_preconditions(self, schema: ProcessSchema) -> List[str]:
        if not any(
            d.key == (self.activity, self.element, self.access.value) for d in schema.data_edges
        ):
            return [
                f"data edge {self.activity!r} {self.access.value} {self.element!r} does not exist"
            ]
        return []

    def mark_footprint(self, schema: ProcessSchema, footprint: ChangeFootprint) -> None:
        if self.access is DataAccess.WRITE:
            footprint.nodes.add(self.activity)

    def apply(self, schema: ProcessSchema) -> None:
        schema.remove_data_edge(self.activity, self.element, self.access)

    def affected_nodes(self) -> Set[str]:
        return {self.activity}

    def affected_elements(self) -> Set[str]:
        return {self.element}

    def inverse(self) -> "ChangeOperation":
        return AddDataEdge(activity=self.activity, element=self.element, access=self.access)

    def describe(self) -> str:
        return f"deleteDataEdge({self.activity} {self.access.value} {self.element})"


# --------------------------------------------------------------------------- #
# attribute changes
# --------------------------------------------------------------------------- #


@_register
@dataclass
class ChangeActivityAttributes(ChangeOperation):
    """Change descriptive attributes of an activity (name, role, duration).

    Attribute changes never touch control or data flow and are compliant
    for every instance state; changing the staff assignment of an already
    completed activity simply has no retroactive effect.
    """

    operation_name: ClassVar[str] = "change_activity_attributes"

    activity_id: str
    name: Optional[str] = None
    role: Optional[str] = None
    duration: Optional[float] = None

    def check_preconditions(self, schema: ProcessSchema) -> List[str]:
        if not schema.has_node(self.activity_id):
            return [f"activity {self.activity_id!r} does not exist"]
        if not schema.node(self.activity_id).is_activity:
            return [f"{self.activity_id!r} is not an activity node"]
        if self.name is None and self.role is None and self.duration is None:
            return ["no attribute change requested"]
        return []

    def apply(self, schema: ProcessSchema) -> None:
        node = schema.node(self.activity_id)
        updated = replace(
            node,
            name=self.name if self.name is not None else node.name,
            staff_assignment=self.role if self.role is not None else node.staff_assignment,
            duration=self.duration if self.duration is not None else node.duration,
        )
        schema.replace_node(updated)

    def affected_nodes(self) -> Set[str]:
        return {self.activity_id}

    def describe(self) -> str:
        return f"changeAttributes({self.activity_id})"
