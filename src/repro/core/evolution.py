"""Schema evolution: process types, versions and type changes.

A process type groups all schema versions of one business process (the
paper's Fig. 3 shows "online order, version V2").  A :class:`TypeChange`
ΔT is the change log transforming one version into the next; releasing it
produces the new version, correct by construction (``apply_to(check=True)``
refuses an operation whose preconditions fail).  A released version is
frozen: mutating it raises, and every change works on a copy.  Whether and
how running instances follow the new version is decided by the migration
manager (:mod:`repro.core.migration`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Collection, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.core.changelog import ChangeLog
from repro.errors import ReproError
from repro.core.operations import ChangeOperation, OperationError
from repro.schema.graph import ProcessSchema, SchemaError


class EvolutionError(ReproError):
    """Raised when a schema version cannot be derived or released."""


@dataclass
class TypeChange:
    """A process type change ΔT: operations turning version ``from_version`` into the next."""

    from_version: int
    operations: ChangeLog
    comment: str = ""

    @classmethod
    def of(cls, from_version: int, operations: Iterable[ChangeOperation], comment: str = "") -> "TypeChange":
        """Convenience constructor from a plain operation sequence."""
        return cls(from_version=from_version, operations=ChangeLog(operations, comment=comment), comment=comment)

    @property
    def to_version(self) -> int:
        return self.from_version + 1

    def describe(self) -> str:
        header = f"ΔT: v{self.from_version} -> v{self.to_version}"
        if self.comment:
            header += f" ({self.comment})"
        return header + "\n" + self.operations.describe()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "from_version": self.from_version,
            "comment": self.comment,
            "operations": self.operations.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TypeChange":
        return cls(
            from_version=payload["from_version"],
            operations=ChangeLog.from_dict(payload.get("operations", {})),
            comment=payload.get("comment", ""),
        )


class ProcessType:
    """All released schema versions of one business process."""

    def __init__(self, name: str, initial_schema: Optional[ProcessSchema] = None) -> None:
        if not name:
            raise EvolutionError("process type name must be non-empty")
        self.name = name
        self._versions: Dict[int, ProcessSchema] = {}
        self._changes: Dict[int, TypeChange] = {}
        if initial_schema is not None:
            self.add_version(initial_schema)

    # ------------------------------------------------------------------ #

    @property
    def versions(self) -> List[int]:
        """All released version numbers in ascending order."""
        return sorted(self._versions)

    @property
    def latest_version(self) -> int:
        if not self._versions:
            raise EvolutionError(f"process type {self.name!r} has no released version")
        return max(self._versions)

    @property
    def latest_schema(self) -> ProcessSchema:
        return self._versions[self.latest_version]

    def schema_for(self, version: int) -> ProcessSchema:
        try:
            return self._versions[version]
        except KeyError:
            raise EvolutionError(f"process type {self.name!r} has no version {version}") from None

    def change_into(self, version: int) -> Optional[TypeChange]:
        """The type change that produced ``version`` (None for the initial one)."""
        return self._changes.get(version)

    def add_version(self, schema: ProcessSchema, type_change: Optional[TypeChange] = None) -> None:
        """Register an externally built schema as a new version."""
        if schema.version in self._versions:
            raise EvolutionError(f"version {schema.version} of {self.name!r} already exists")
        if self._versions and schema.version != self.latest_version + 1:
            raise EvolutionError(
                f"versions must be released in order: expected {self.latest_version + 1}, "
                f"got {schema.version}"
            )
        schema.freeze()
        self._versions[schema.version] = schema
        if type_change is not None:
            self._changes[schema.version] = type_change
        self._shed_superseded()

    def _shed_superseded(self) -> None:
        """Shed the release-time analyses of the version two behind the latest.

        Called whenever a version becomes latest, so every version up to
        latest − 2 keeps only what its stragglers step with (see
        :meth:`~repro.schema.index.SchemaIndex.shed_analyses`).  Latest − 1
        keeps everything: it is the from-version of the release that made
        the latest, and an eager plan or an in-flight rollout may still ask.
        """
        superseded = self._versions.get(self.latest_version - 2)
        if superseded is not None:
            superseded.shed_analyses()

    def drop_unoccupied(self, occupied: Collection[int]) -> None:
        """Drop the compiled index of every version ≤ latest − 2 not in ``occupied``.

        ``occupied`` holds every version some case runs on (over-counting
        only keeps a version compiled).  A dropped version keeps its schema
        and ΔT; ``schema.index`` rebuilds the index, layout and kernel if a
        case needs them again, and because the schema is frozen the rebuilt
        layout has the dropped one's node and edge positions.  Latest − 1
        is kept whatever its occupancy: an eager plan, an in-flight rollout
        or an observing canary may still use it.
        """
        newest_droppable = self.latest_version - 2
        for version, schema in self._versions.items():
            if version <= newest_droppable and version not in occupied:
                schema.drop_index()

    # ------------------------------------------------------------------ #

    def release_new_version(self, type_change: TypeChange) -> ProcessSchema:
        """Apply ΔT to its base version and release the result, frozen.

        Raises :class:`EvolutionError` when the operations cannot be
        applied.  ``apply_to(check=True)`` checks every operation's
        preconditions against the schema it changes, so a result it accepts
        is correct by construction — no buildtime verification runs again.
        """
        base = self.schema_for(type_change.from_version)
        if type_change.from_version != self.latest_version:
            raise EvolutionError(
                f"type change starts from v{type_change.from_version} but the latest version "
                f"is v{self.latest_version}"
            )
        try:
            new_schema = type_change.operations.apply_to(base, check=True)
        except (OperationError, SchemaError) as exc:
            raise EvolutionError(f"type change cannot be applied: {exc}") from exc
        new_schema.version = base.version + 1
        new_schema.schema_id = f"{self.name}_v{new_schema.version}"
        new_schema.name = self.name
        new_schema.freeze()
        self._versions[new_schema.version] = new_schema
        self._changes[new_schema.version] = type_change
        self._shed_superseded()
        return new_schema

    def withdraw_version(self, version: int) -> ProcessSchema:
        """Withdraw the latest released version (canary rollback).

        Only the newest version may be withdrawn — versions are released
        contiguously and :meth:`release_new_version` insists the next ΔT
        starts from the latest version, so a rolled-back canary version
        must disappear from the repository entirely for evolution to
        continue from its predecessor.  At least one version must remain.
        """
        if version != self.latest_version:
            raise EvolutionError(
                f"only the latest version (v{self.latest_version}) of {self.name!r} "
                f"can be withdrawn, not v{version}"
            )
        if len(self._versions) == 1:
            raise EvolutionError(
                f"cannot withdraw the only version of process type {self.name!r}"
            )
        schema = self._versions.pop(version)
        self._changes.pop(version, None)
        return schema

    def __repr__(self) -> str:
        return f"ProcessType({self.name!r}, versions={self.versions})"
