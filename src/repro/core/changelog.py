"""Change logs — the recorded "bias" of instances and type changes.

A :class:`ChangeLog` is an ordered list of change operations.  Two kinds
of change logs exist in ADEPT2:

* the **bias** ΔI of an ad-hoc modified instance (the deviations applied
  to this single instance so far), and
* a **type change** ΔT transforming schema version ``V`` into ``V+1``.

The change log knows how to apply itself to a schema, how to compose with
further changes, how to serialise itself for persistence, and how to
detect **semantic overlap** with another change log (the ingredient of
the semantic-conflict check when type changes are propagated to biased
instances).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set

from repro.core.footprint import ChangeFootprint
from repro.core.operations import ChangeOperation, OperationError, operation_from_dict
from repro.schema.graph import ProcessSchema


class ChangeLog:
    """An ordered, append-only list of change operations."""

    def __init__(self, operations: Optional[Iterable[ChangeOperation]] = None, comment: str = "") -> None:
        self._operations: List[ChangeOperation] = list(operations or [])
        self.comment = comment

    # ------------------------------------------------------------------ #
    # list behaviour
    # ------------------------------------------------------------------ #

    @property
    def operations(self) -> List[ChangeOperation]:
        return list(self._operations)

    def append(self, operation: ChangeOperation) -> None:
        self._operations.append(operation)

    def extend(self, operations: Iterable[ChangeOperation]) -> None:
        self._operations.extend(operations)

    def compose(self, other: "ChangeLog") -> "ChangeLog":
        """A new change log applying this log first, then ``other``."""
        return ChangeLog(self._operations + other._operations, comment=self.comment or other.comment)

    def simplify(self) -> "ChangeLog":
        """A new change log with cancelling operation pairs removed (bias purging).

        When an operation is later followed by its exact inverse (e.g. an
        ad-hoc inserted activity is deleted again, or a sync edge is added
        and removed), both operations are dropped — provided no operation
        in between touches the same schema elements, which keeps the
        simplification semantics-preserving.  The resulting log produces
        the same schema with fewer entries, which shrinks substitution
        blocks and speeds up overlap checks.
        """
        operations = list(self._operations)
        changed = True
        while changed:
            changed = False
            for first_index in range(len(operations)):
                if changed:
                    break
                first = operations[first_index]
                try:
                    inverse_payload = first.inverse().to_dict()
                except NotImplementedError:
                    continue
                touched = first.affected_nodes() | first.added_node_ids() | first.removed_node_ids()
                elements = first.affected_elements()
                for second_index in range(first_index + 1, len(operations)):
                    second = operations[second_index]
                    if second.to_dict() == inverse_payload:
                        del operations[second_index]
                        del operations[first_index]
                        changed = True
                        break
                    second_touched = (
                        second.affected_nodes() | second.added_node_ids() | second.removed_node_ids()
                    )
                    if touched & second_touched or elements & second.affected_elements():
                        break
        return ChangeLog(operations, comment=self.comment)

    def __len__(self) -> int:
        return len(self._operations)

    def __iter__(self) -> Iterator[ChangeOperation]:
        return iter(self._operations)

    def __bool__(self) -> bool:
        return bool(self._operations)

    # ------------------------------------------------------------------ #
    # application
    # ------------------------------------------------------------------ #

    def apply_to(self, schema: ProcessSchema, check: bool = True) -> ProcessSchema:
        """Apply all operations to a *copy* of ``schema`` and return it.

        With ``check=True`` the result is correct by construction: each
        operation's preconditions are enforced on the schema it applies
        to, and what the operations marked in their footprint is judged
        once on the result (:class:`~repro.core.footprint.ChangeFootprint`).
        A violation raises :class:`OperationError` — carrying the
        verification ``issues`` when the result would be incorrect — and
        leaves the input schema untouched (the copy is discarded).  The
        first operation is checked against ``schema`` itself, whose index
        is usually compiled already, before the copy is taken.
        """
        operations = self._operations
        if not check:
            changed = schema.copy()
            for operation in operations:
                operation.apply(changed)
            return changed
        footprint = ChangeFootprint()
        if operations:
            operations[0].require(schema, footprint)
        changed = schema.copy()
        for position, operation in enumerate(operations):
            if position:
                operation.require(changed, footprint)
            operation.apply(changed)
        issues = footprint.issues_in(changed)
        if issues:
            raise OperationError(
                "the change would make the schema incorrect: "
                + "; ".join(str(issue) for issue in issues),
                issues=issues,
            )
        return changed

    # ------------------------------------------------------------------ #
    # overlap analysis (semantic conflicts)
    # ------------------------------------------------------------------ #

    def affected_nodes(self) -> Set[str]:
        """Existing node ids any operation of this log touches."""
        nodes: Set[str] = set()
        for operation in self._operations:
            nodes |= operation.affected_nodes()
        return nodes

    def added_node_ids(self) -> Set[str]:
        """Node ids introduced by this log."""
        nodes: Set[str] = set()
        for operation in self._operations:
            nodes |= operation.added_node_ids()
        return nodes

    def removed_node_ids(self) -> Set[str]:
        """Node ids removed by this log."""
        nodes: Set[str] = set()
        for operation in self._operations:
            nodes |= operation.removed_node_ids()
        return nodes

    def affected_elements(self) -> Set[str]:
        """Data element names any operation of this log touches."""
        elements: Set[str] = set()
        for operation in self._operations:
            elements |= operation.affected_elements()
        return elements

    def overlaps_with(self, other: "ChangeLog") -> Set[str]:
        """Schema elements on which both change logs operate destructively.

        Overlap is reported when one log *removes or introduces* an element
        the other log also modifies, removes or introduces — the situation
        in which the combined intent of a type change and an instance bias
        is ambiguous (semantic conflict).  Merely touching the same
        neighbour nodes (e.g. both inserting after the same activity) is
        not an overlap.
        """
        mine_strong = self.removed_node_ids() | self.added_node_ids()
        theirs_strong = other.removed_node_ids() | other.added_node_ids()
        overlap = set()
        overlap |= mine_strong & (theirs_strong | other.affected_nodes())
        overlap |= theirs_strong & (mine_strong | self.affected_nodes())
        return overlap

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        return {
            "comment": self.comment,
            "operations": [operation.to_dict() for operation in self._operations],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ChangeLog":
        return cls(
            operations=[operation_from_dict(item) for item in payload.get("operations", [])],
            comment=payload.get("comment", ""),
        )

    def describe(self) -> str:
        """Multi-line rendering of all operations."""
        if not self._operations:
            return "(empty change log)"
        return "\n".join(f"  {index + 1}. {op.describe()}" for index, op in enumerate(self._operations))

    def __repr__(self) -> str:
        return f"ChangeLog({len(self._operations)} operation(s))"
