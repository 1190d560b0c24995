"""Per-instance data values with write history.

Every process instance carries its own values for the schema's data
elements.  Writes are versioned (which activity wrote which value in
which loop iteration) because ad-hoc deletions need to know whether a
value another activity depends on would go missing, and because the
storage layer persists the value history for recovery.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Union

from repro.runtime import stored_log
from repro.schema.graph import ProcessSchema


class DataWrite(NamedTuple):
    """One recorded write of a data element (a named tuple: cheap to build)."""

    element: str
    value: Any
    writer: str
    iteration: int = 0


def _row_of_write(write: DataWrite) -> Dict[str, Any]:
    return {
        "element": write.element,
        "value": write.value,
        "writer": write.writer,
        "iteration": write.iteration,
    }


def _write_of_row(row: Mapping[str, Any]) -> DataWrite:
    return DataWrite(
        element=row["element"],
        value=row.get("value"),
        writer=row.get("writer", ""),
        iteration=row.get("iteration", 0),
    )


class DataContext:
    """Current values plus write history of an instance's data elements.

    A context loaded from a store keeps its stored writes as they were
    read — the compact JSON text of the rows (or, from a record written
    before format 3, the row list) — as
    :class:`~repro.runtime.history.ExecutionHistory` keeps its rows.  The
    text is decoded, and :class:`DataWrite` objects are built, only when
    something reads the write history; stepping only appends, and
    :meth:`to_stored` splices the encoded new writes onto the stored text.
    The stored prefix is never replaced or mutated, so the record it came
    from stays intact.
    """

    def __init__(self, schema: Optional[ProcessSchema] = None) -> None:
        self._values: Dict[str, Any] = {}
        #: the stored prefix: its JSON text, or its row list
        self._prefix: Union[str, List[Mapping[str, Any]]] = []
        #: the rows decoded from a stored text, once something read them
        self._decoded: Optional[List[Mapping[str, Any]]] = None
        #: the writes built from the stored rows, once something read them
        self._built: Optional[List[DataWrite]] = None
        #: writes recorded since (everything, for a never-stored context)
        self._tail: List[DataWrite] = []
        if schema is not None:
            for element in schema.data_elements.values():
                initial = element.initial_value()
                if initial is not None:
                    self._values[element.name] = initial

    def _stored_rows(self) -> List[Mapping[str, Any]]:
        prefix = self._prefix
        if prefix.__class__ is not str:
            return prefix
        rows = self._decoded
        if rows is None:
            rows = self._decoded = stored_log.decode(prefix)
        return rows

    def _all(self) -> List[DataWrite]:
        built = self._built
        if built is None:
            built = self._built = [_write_of_row(row) for row in self._stored_rows()]
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
        self._tail.append(DataWrite(element, value, writer, iteration))

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
        clone._prefix = self._prefix
        clone._decoded = self._decoded
        clone._built = self._built
        clone._tail = list(self._tail)
        return clone

    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """The canonical form: the writes as a list (decodes a stored prefix)."""
        return {
            "values": dict(self._values),
            "writes": self._stored_rows() + [_row_of_write(w) for w in self._tail],
        }

    def to_stored(self) -> dict:
        """The stored form: the writes as one compact JSON text (decodes nothing)."""
        prefix = self._prefix
        text = prefix if prefix.__class__ is str else stored_log.encode(prefix)
        if self._tail:
            text = stored_log.splice(
                text, stored_log.encode([_row_of_write(w) for w in self._tail])
            )
        return {"values": dict(self._values), "writes": text}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DataContext":
        """Reconstruct a context from :meth:`to_stored` or :meth:`to_dict` output."""
        context = cls()
        context._values = dict(payload.get("values", {}))
        writes = payload.get("writes")
        if writes and writes != "[]":
            context._prefix = writes
        return context

    def __repr__(self) -> str:
        writes = len(self._stored_rows()) + len(self._tail)
        return f"DataContext(values={len(self._values)}, writes={writes})"
