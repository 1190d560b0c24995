"""Per-instance data values with write history.

Every process instance carries its own values for the schema's data
elements.  Writes are versioned (which activity wrote which value in
which loop iteration) because ad-hoc deletions need to know whether a
value another activity depends on would go missing, and because the
storage layer persists the value history for recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.schema.graph import ProcessSchema


@dataclass(frozen=True)
class DataWrite:
    """One recorded write of a data element."""

    element: str
    value: Any
    writer: str
    iteration: int = 0


def _write_of_row(row: Mapping[str, Any]) -> DataWrite:
    return DataWrite(
        element=row["element"],
        value=row.get("value"),
        writer=row.get("writer", ""),
        iteration=row.get("iteration", 0),
    )


class DataContext:
    """Current values plus write history of an instance's data elements.

    A context loaded from a store keeps the stored ``writes`` rows *by
    reference* (as :class:`~repro.runtime.history.ExecutionHistory` keeps
    its rows) and builds :class:`DataWrite` objects only when something
    reads the write history; stepping only appends.  The rows are never
    mutated, so the record they came from stays intact, and
    :meth:`to_dict` hands them back as they were read.
    """

    def __init__(self, schema: Optional[ProcessSchema] = None) -> None:
        self._values: Dict[str, Any] = {}
        #: the stored prefix, shared with the record it was loaded from
        self._rows: List[Mapping[str, Any]] = []
        #: the writes built from ``_rows``, once something read them
        self._built: Optional[List[DataWrite]] = None
        #: writes recorded since (everything, for a never-stored context)
        self._tail: List[DataWrite] = []
        if schema is not None:
            for element in schema.data_elements.values():
                initial = element.initial_value()
                if initial is not None:
                    self._values[element.name] = initial

    def _all(self) -> List[DataWrite]:
        built = self._built
        if built is None:
            built = self._built = [_write_of_row(row) for row in self._rows]
        return built + self._tail

    # ------------------------------------------------------------------ #

    @property
    def values(self) -> Dict[str, Any]:
        """Snapshot of the current values (copy; safe to hand out)."""
        return dict(self._values)

    @property
    def writes(self) -> List[DataWrite]:
        """Chronological list of all recorded writes."""
        return self._all()

    def get(self, element: str, default: Any = None) -> Any:
        return self._values.get(element, default)

    def has_value(self, element: str) -> bool:
        """True when the element currently holds a value."""
        return element in self._values

    def write(self, element: str, value: Any, writer: str, iteration: int = 0) -> None:
        """Record a write of ``element`` by activity ``writer``."""
        self._values[element] = value
        self._tail.append(DataWrite(element=element, value=value, writer=writer, iteration=iteration))

    def supply(self, element: str, value: Any) -> None:
        """Set a value without an owning activity (missing-data supply).

        Used when an ad-hoc deletion removes the writer of an element that
        a later activity reads: the user (or the change operation) supplies
        a substitute value so the reader does not start with missing input.
        """
        self.write(element, value, writer="<supplied>")

    def writers_of(self, element: str) -> List[str]:
        """All activities that wrote ``element`` so far."""
        return [w.writer for w in self._all() if w.element == element]

    def last_write(self, element: str) -> Optional[DataWrite]:
        """The most recent write of ``element``, if any."""
        for write in reversed(self._all()):
            if write.element == element:
                return write
        return None

    def copy(self) -> "DataContext":
        clone = DataContext()
        clone._values = dict(self._values)
        clone._rows = self._rows
        clone._built = self._built
        clone._tail = list(self._tail)
        return clone

    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        return {
            "values": dict(self._values),
            "writes": self._rows
            + [
                {
                    "element": w.element,
                    "value": w.value,
                    "writer": w.writer,
                    "iteration": w.iteration,
                }
                for w in self._tail
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DataContext":
        context = cls()
        context._values = dict(payload.get("values", {}))
        context._rows = payload.get("writes", context._rows)
        return context

    def __repr__(self) -> str:
        writes = len(self._rows) + len(self._tail)
        return f"DataContext(values={len(self._values)}, writes={writes})"
