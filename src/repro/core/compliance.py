"""Compliance checking: may an instance be moved to a changed schema?

The paper provides a "comprehensive correctness criterion for deciding on
the compliance of process instances with a modified type schema ...
based on a relaxed notion of trace equivalence", and, "in order to enable
efficient compliance checks, for each change operation ... precise and
easy to implement compliance conditions".

The product runs the conditions:
:meth:`ComplianceChecker.check_with_conditions` evaluates every
operation's condition on the instance marking and history (migration,
ad-hoc changes, rollback planning).  The general criterion — replay of
the *reduced* execution history on the changed schema — is the oracle
those conditions are held against; it is comparison apparatus and lives
in :mod:`repro.paper.replay`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Union

from repro.core.changelog import ChangeLog
from repro.core.conflicts import Conflict, ConflictKind
from repro.core.operations import ChangeOperation
from repro.runtime.instance import ProcessInstance


@dataclass
class ComplianceResult:
    """Outcome of one compliance check."""

    compliant: bool
    conflicts: List[Conflict] = field(default_factory=list)
    method: str = "conditions"
    checked_operations: int = 0

    def conflict_kinds(self) -> List[ConflictKind]:
        """The kinds of all conflicts found (empty when compliant)."""
        return [conflict.kind for conflict in self.conflicts]

    def summary(self) -> str:
        if self.compliant:
            return f"compliant (method={self.method})"
        rendered = "; ".join(str(conflict) for conflict in self.conflicts)
        return f"not compliant (method={self.method}): {rendered}"

    def __bool__(self) -> bool:
        return self.compliant


def _as_operations(change: Union[ChangeLog, Sequence[ChangeOperation]]) -> List[ChangeOperation]:
    if isinstance(change, ChangeLog):
        return change.operations
    return list(change)


class ComplianceChecker:
    """Decides compliance of instances with changed schemas."""

    # ------------------------------------------------------------------ #
    # efficient per-operation conditions (paper Fig. 1)
    # ------------------------------------------------------------------ #

    def check_with_conditions(
        self,
        instance: ProcessInstance,
        change: Union[ChangeLog, Sequence[ChangeOperation]],
    ) -> ComplianceResult:
        """Evaluate every operation's compliance condition on the instance.

        Operations are evaluated in order; nodes introduced by earlier
        operations of the same change are known to later ones (e.g. the
        paper's ΔT first inserts ``send questions`` and then adds a sync
        edge starting at it).
        """
        operations = _as_operations(change)
        conflicts: List[Conflict] = []
        introduced: set = set()
        for operation in operations:
            conflicts.extend(operation.compliance_conflicts(instance, introduced=introduced))
            introduced |= operation.added_node_ids()
        return ComplianceResult(
            compliant=not conflicts,
            conflicts=conflicts,
            method="conditions",
            checked_operations=len(operations),
        )
