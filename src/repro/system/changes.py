"""Fluent, transactional change sets.

A :class:`ChangeSet` collects change operations through a fluent builder
API and applies them **all-or-nothing**: the whole set is validated first
(schema preconditions, the once-per-set checks that keep the resulting
schema correct by construction, state compliance of the running
instance) and only then committed as a
*single* change-log entry with one adapted marking.  If any operation of
the set fails validation, the instance is left completely untouched —
no partial bias, no marking change, no changelog entry.

Change sets come in two flavours:

* **bound** — obtained from :meth:`AdeptSystem.change`, targeting one
  running instance; :meth:`apply` commits it ad hoc;
* **detached** — constructed directly (``ChangeSet()``), usable as the
  change argument of :meth:`AdeptSystem.evolve` for schema evolution.

Example::

    system.change(case_id, comment="extra approval") \
        .serial_insert("manager_approval", pred="check_credit",
                       succ="ship_order", role="manager") \
        .sync_edge("manager_approval", "ship_order") \
        .apply()
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence, Union, TYPE_CHECKING

from repro.core.changelog import ChangeLog
from repro.core.operations import (
    AddDataEdge,
    AddDataElement,
    ChangeActivityAttributes,
    ChangeOperation,
    ConditionalInsertActivity,
    DeleteActivity,
    DeleteDataEdge,
    DeleteDataElement,
    DeleteSyncEdge,
    InsertSyncEdge,
    MoveActivity,
    ParallelInsertActivity,
)
from repro.schema.data import DataAccess, DataElement, DataType
from repro.schema.nodes import Node
from repro.core.operations import SerialInsertActivity
from repro.system.results import ChangeResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.facade import AdeptSystem


def _as_node(
    activity: Union[Node, str],
    name: Optional[str] = None,
    role: Optional[str] = None,
    duration: Optional[float] = None,
    **properties: Any,
) -> Node:
    """Accept a ready-made :class:`Node` or build one from an id + attributes."""
    if isinstance(activity, Node):
        return activity
    return Node(
        node_id=activity,
        name=name or activity,
        staff_assignment=role,
        duration=duration if duration is not None else 1.0,
        properties=properties,
    )


class ChangeSet:
    """A fluent batch of change operations with all-or-nothing semantics."""

    def __init__(
        self,
        system: Optional["AdeptSystem"] = None,
        instance_id: Optional[str] = None,
        comment: str = "",
    ) -> None:
        self._system = system
        self.instance_id = instance_id
        self._comment = comment
        self._operations: List[ChangeOperation] = []

    # ------------------------------------------------------------------ #
    # fluent builders
    # ------------------------------------------------------------------ #

    def serial_insert(
        self,
        activity: Union[Node, str],
        pred: str,
        succ: str,
        *,
        name: Optional[str] = None,
        role: Optional[str] = None,
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
    ) -> "ChangeSet":
        """Insert an activity between ``pred`` and ``succ``."""
        node = _as_node(activity, name=name, role=role)
        self._operations.append(
            SerialInsertActivity(
                activity=node, pred=pred, succ=succ, reads=tuple(reads), writes=tuple(writes)
            )
        )
        return self

    def parallel_insert(
        self,
        activity: Union[Node, str],
        parallel_to: str,
        *,
        name: Optional[str] = None,
        role: Optional[str] = None,
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
    ) -> "ChangeSet":
        """Insert an activity in parallel to an existing one."""
        node = _as_node(activity, name=name, role=role)
        self._operations.append(
            ParallelInsertActivity(
                activity=node, parallel_to=parallel_to, reads=tuple(reads), writes=tuple(writes)
            )
        )
        return self

    def conditional_insert(
        self,
        activity: Union[Node, str],
        pred: str,
        succ: str,
        guard: str = "True",
        *,
        name: Optional[str] = None,
        role: Optional[str] = None,
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
    ) -> "ChangeSet":
        """Insert an activity executed only when ``guard`` holds."""
        node = _as_node(activity, name=name, role=role)
        self._operations.append(
            ConditionalInsertActivity(
                activity=node,
                pred=pred,
                succ=succ,
                guard=guard,
                reads=tuple(reads),
                writes=tuple(writes),
            )
        )
        return self

    def delete(
        self, activity_id: str, supply_values: Optional[Mapping[str, Any]] = None
    ) -> "ChangeSet":
        """Delete an activity (optionally supplying values it would have written)."""
        self._operations.append(
            DeleteActivity(activity_id=activity_id, supply_values=dict(supply_values or {}))
        )
        return self

    def move(self, activity_id: str, pred: str, succ: str) -> "ChangeSet":
        """Move an activity between a new predecessor and successor."""
        self._operations.append(MoveActivity(activity_id=activity_id, new_pred=pred, new_succ=succ))
        return self

    def sync_edge(self, source: str, target: str) -> "ChangeSet":
        """Add a sync (wait-for) edge between two parallel activities."""
        self._operations.append(InsertSyncEdge(source=source, target=target))
        return self

    def delete_sync_edge(self, source: str, target: str) -> "ChangeSet":
        self._operations.append(DeleteSyncEdge(source=source, target=target))
        return self

    def add_data(
        self,
        name: str,
        data_type: DataType = DataType.STRING,
        default: Optional[Any] = None,
        description: str = "",
    ) -> "ChangeSet":
        """Add a data element to the schema."""
        self._operations.append(
            AddDataElement(
                element=DataElement(
                    name=name, data_type=data_type, default=default, description=description
                )
            )
        )
        return self

    def delete_data(self, name: str) -> "ChangeSet":
        self._operations.append(DeleteDataElement(name=name))
        return self

    def add_data_edge(
        self,
        activity: str,
        element: str,
        access: DataAccess = DataAccess.READ,
        mandatory: bool = True,
    ) -> "ChangeSet":
        self._operations.append(
            AddDataEdge(activity=activity, element=element, access=access, mandatory=mandatory)
        )
        return self

    def delete_data_edge(
        self, activity: str, element: str, access: DataAccess = DataAccess.READ
    ) -> "ChangeSet":
        self._operations.append(DeleteDataEdge(activity=activity, element=element, access=access))
        return self

    def attributes(
        self,
        activity_id: str,
        *,
        name: Optional[str] = None,
        role: Optional[str] = None,
        duration: Optional[float] = None,
    ) -> "ChangeSet":
        """Change descriptive attributes of an activity."""
        self._operations.append(
            ChangeActivityAttributes(
                activity_id=activity_id, name=name, role=role, duration=duration
            )
        )
        return self

    def add(self, *operations: ChangeOperation) -> "ChangeSet":
        """Append ready-made change operations (escape hatch)."""
        self._operations.extend(operations)
        return self

    def comment(self, text: str) -> "ChangeSet":
        """Set the change-log comment of the set."""
        self._comment = text
        return self

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def operations(self) -> List[ChangeOperation]:
        return list(self._operations)

    def to_change_log(self) -> ChangeLog:
        """The collected operations as one :class:`ChangeLog`."""
        return ChangeLog(self._operations, comment=self._comment)

    def __len__(self) -> int:
        return len(self._operations)

    def __bool__(self) -> bool:
        return bool(self._operations)

    def describe(self) -> str:
        return self.to_change_log().describe()

    # ------------------------------------------------------------------ #
    # application
    # ------------------------------------------------------------------ #

    def apply(self, user: Optional[str] = None) -> ChangeResult:
        """Validate and commit the whole set atomically.

        Raises :class:`repro.core.AdHocChangeError` when any operation of
        the set fails validation — in that case the instance marking, data,
        bias and changelog are untouched.
        """
        self._require_bound()
        return self._system.apply_changeset(self, user=user)

    def try_apply(self, user: Optional[str] = None) -> ChangeResult:
        """Like :meth:`apply` but returns a failed :class:`ChangeResult` instead of raising."""
        self._require_bound()
        return self._system.try_apply_changeset(self, user=user)

    def _require_bound(self) -> None:
        if self._system is None or self.instance_id is None:
            raise ValueError(
                "this ChangeSet is detached; obtain one via AdeptSystem.change(instance_id) "
                "or pass it to AdeptSystem.evolve()"
            )
