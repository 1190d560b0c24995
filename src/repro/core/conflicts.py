"""Conflict model for dynamic process changes.

The paper's correctness principle for propagating a type change to a
(possibly ad-hoc modified) instance "excludes state-related, structural,
and semantical conflicts".  This module defines the shared conflict
vocabulary used by compliance checking, ad-hoc changes and migration:

* **state conflicts** — the instance has progressed too far for the change
  (e.g. an activity to be deleted already started); Fig. 1's instance I3;
* **structural conflicts** — applying the change to the instance's current
  execution schema would yield an incorrect schema (e.g. a
  deadlock-causing cycle); Fig. 1's instance I2;
* **semantic conflicts** — the type change and the instance's own bias
  overlap on the same schema elements, so their combined intent is
  ambiguous (e.g. both modify the same activity);
* **data conflicts** — the change would leave an activity without its
  mandatory input data (the "missing data" problem of ad-hoc deletion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple


class ConflictKind(str, Enum):
    """Categories of conflicts between a change and an instance."""

    STATE = "state"
    STRUCTURAL = "structural"
    SEMANTIC = "semantic"
    DATA = "data"


@dataclass(frozen=True)
class Conflict:
    """One detected conflict.

    Attributes:
        kind: The conflict category.
        message: Human readable explanation.
        nodes: Node ids involved.
        operation: String rendering of the change operation involved, if any.
        element: Data element involved, if any.
    """

    kind: ConflictKind
    message: str
    nodes: Tuple[str, ...] = ()
    operation: Optional[str] = None
    element: Optional[str] = None

    def __str__(self) -> str:
        details = []
        if self.nodes:
            details.append(f"nodes: {', '.join(self.nodes)}")
        if self.element:
            details.append(f"data: {self.element}")
        if self.operation:
            details.append(f"operation: {self.operation}")
        suffix = f" ({'; '.join(details)})" if details else ""
        return f"{self.kind.value} conflict: {self.message}{suffix}"


def state_conflict(message: str, nodes: Tuple[str, ...] = (), operation: Optional[str] = None) -> Conflict:
    """Shorthand for a state-related conflict."""
    return Conflict(kind=ConflictKind.STATE, message=message, nodes=nodes, operation=operation)


def structural_conflict(message: str, nodes: Tuple[str, ...] = (), operation: Optional[str] = None) -> Conflict:
    """Shorthand for a structural conflict."""
    return Conflict(kind=ConflictKind.STRUCTURAL, message=message, nodes=nodes, operation=operation)


def structural_conflicts(exc: Exception, context: str) -> List[Conflict]:
    """The structural conflicts of a change log refused with ``exc``.

    One per verification issue when the refused result would have been
    incorrect (an ``OperationError`` carrying ``issues``), otherwise one
    naming the failed precondition.
    """
    issues = getattr(exc, "issues", ())
    if issues:
        return [
            Conflict(
                kind=ConflictKind.STRUCTURAL,
                message=str(issue),
                nodes=tuple(issue.nodes),
                element=issue.element,
            )
            for issue in issues
        ]
    return [structural_conflict(f"{context}: {exc}")]


def semantic_conflict(message: str, nodes: Tuple[str, ...] = (), operation: Optional[str] = None) -> Conflict:
    """Shorthand for a semantic conflict."""
    return Conflict(kind=ConflictKind.SEMANTIC, message=message, nodes=nodes, operation=operation)


def data_conflict(message: str, element: Optional[str] = None, nodes: Tuple[str, ...] = ()) -> Conflict:
    """Shorthand for a data (missing input) conflict."""
    return Conflict(kind=ConflictKind.DATA, message=message, element=element, nodes=nodes)
