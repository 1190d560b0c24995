"""Reference data context: every write a ``DataWrite`` object, built on load.

:class:`EagerDataContext` is the data context the runtime used before a
hydrated case kept its stored ``writes`` list as rows — ``from_dict``
builds one object per stored write, ``to_dict`` spells every one out
again, and ``to_stored`` encodes every one into the stored text.  It is
reference code, not production code:
``tests/properties/test_property_data_context_parity.py`` drives it and
:class:`repro.runtime.data_context.DataContext` through the same random
operation sequences and requires equal answers and equal stored bytes.
"""

from __future__ import annotations

import json
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


class EagerDataContext:
    """Current values plus write history of an instance's data elements."""

    def __init__(self, schema: Optional[ProcessSchema] = None) -> None:
        self._values: Dict[str, Any] = {}
        self._writes: List[DataWrite] = []
        if schema is not None:
            for element in schema.data_elements.values():
                initial = element.initial_value()
                if initial is not None:
                    self._values[element.name] = initial

    @property
    def values(self) -> Dict[str, Any]:
        return dict(self._values)

    @property
    def writes(self) -> List[DataWrite]:
        return list(self._writes)

    def get(self, element: str, default: Any = None) -> Any:
        return self._values.get(element, default)

    def has_value(self, element: str) -> bool:
        return element in self._values

    def write(self, element: str, value: Any, writer: str, iteration: int = 0) -> None:
        self._values[element] = value
        self._writes.append(DataWrite(element=element, value=value, writer=writer, iteration=iteration))

    def supply(self, element: str, value: Any) -> None:
        self.write(element, value, writer="<supplied>")

    def writers_of(self, element: str) -> List[str]:
        return [w.writer for w in self._writes if w.element == element]

    def last_write(self, element: str) -> Optional[DataWrite]:
        for write in reversed(self._writes):
            if write.element == element:
                return write
        return None

    def copy(self) -> "EagerDataContext":
        clone = EagerDataContext()
        clone._values = dict(self._values)
        clone._writes = list(self._writes)
        return clone

    def to_dict(self) -> dict:
        return {
            "values": dict(self._values),
            "writes": [
                {
                    "element": w.element,
                    "value": w.value,
                    "writer": w.writer,
                    "iteration": w.iteration,
                }
                for w in self._writes
            ],
        }

    def to_stored(self) -> dict:
        payload = self.to_dict()
        payload["writes"] = json.dumps(payload["writes"], separators=(",", ":"), sort_keys=True)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EagerDataContext":
        context = cls()
        context._values = dict(payload.get("values", {}))
        context._writes = [
            DataWrite(
                element=item["element"],
                value=item.get("value"),
                writer=item.get("writer", ""),
                iteration=item.get("iteration", 0),
            )
            for item in _rows(payload.get("writes", []))
        ]
        return context


def _rows(writes):
    """The stored writes as a list, from either stored form."""
    return json.loads(writes) if isinstance(writes, str) else writes
