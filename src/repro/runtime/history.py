"""Execution histories (traces) of process instances.

The compliance criterion of the paper is "based on a relaxed notion of
trace equivalence ... and works correctly in connection with loop backs".
The execution history records one entry per activity start and completion
(with the data values read and written and the loop iteration it belongs
to).  The *reduced* history discards entries of superseded loop
iterations — exactly the relaxation that makes the criterion practical
for looping processes.
"""

from __future__ import annotations

import json
from enum import Enum
from types import MappingProxyType
from typing import Any, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from repro.runtime import stored_log


class HistoryEventType(str, Enum):
    """Kinds of history entries."""

    ACTIVITY_STARTED = "activity_started"
    ACTIVITY_COMPLETED = "activity_completed"
    ACTIVITY_SKIPPED = "activity_skipped"
    ACTIVITY_COMPENSATED = "activity_compensated"
    LOOP_ITERATION_STARTED = "loop_iteration_started"


# Stored histories are rows
# ``[sequence, event_code, activity, iteration, values, user, superseded, timestamp]``;
# the codes are part of the store format (spelled out, not enum order).
_EVENT_CODE = {
    HistoryEventType.ACTIVITY_STARTED: 0,
    HistoryEventType.ACTIVITY_COMPLETED: 1,
    HistoryEventType.ACTIVITY_SKIPPED: 2,
    HistoryEventType.ACTIVITY_COMPENSATED: 3,
    HistoryEventType.LOOP_ITERATION_STARTED: 4,
}
_EVENT_OF_CODE = {code: event for event, code in _EVENT_CODE.items()}
_ACTIVITY, _SUPERSEDED = 2, 6  # row columns read without building an entry
#: the ``values`` of an entry built without any: shared, so read-only
_NO_VALUES: Mapping[str, Any] = MappingProxyType({})


class HistoryEntry(NamedTuple):
    """One event of an instance's execution history.

    A named tuple: every step records two entries, and a tuple is built
    without a per-field ``__setattr__``.

    Attributes:
        sequence: Monotonically increasing position within the history.
        event: Kind of event.
        activity: Node id the event refers to.
        iteration: Loop iteration counter of the innermost enclosing loop
            (0 outside loops and for the first iteration).
        values: Data values read (on start) or written (on completion).
        user: User who performed the activity, if any.
        superseded: True when a later loop iteration replaced this entry;
            superseded entries are dropped from the reduced history.
        timestamp: Logical timestamp (monotonic counter of the engine).
    """

    sequence: int
    event: HistoryEventType
    activity: str
    iteration: int = 0
    values: Mapping[str, Any] = _NO_VALUES
    user: Optional[str] = None
    superseded: bool = False
    timestamp: int = 0

    def mark_superseded(self) -> "HistoryEntry":
        """A copy of this entry flagged as belonging to an old iteration."""
        return self._replace(superseded=True)

    def to_dict(self) -> dict:
        return {
            "sequence": self.sequence,
            "event": self.event.value,
            "activity": self.activity,
            "iteration": self.iteration,
            "values": dict(self.values),
            "user": self.user,
            "superseded": self.superseded,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "HistoryEntry":
        return cls(
            sequence=payload["sequence"],
            event=HistoryEventType(payload["event"]),
            activity=payload["activity"],
            iteration=payload.get("iteration", 0),
            values=dict(payload.get("values", {})),
            user=payload.get("user"),
            superseded=payload.get("superseded", False),
            timestamp=payload.get("timestamp", 0),
        )

    def to_row(self) -> list:
        """The stored row of this entry."""
        return [
            self.sequence,
            _EVENT_CODE[self.event],
            self.activity,
            self.iteration,
            dict(self.values),
            self.user,
            1 if self.superseded else 0,
            self.timestamp,
        ]

    @classmethod
    def from_row(cls, row: Sequence[Any]) -> "HistoryEntry":
        sequence, code, activity, iteration, values, user, superseded, timestamp = row
        return cls(
            sequence, _EVENT_OF_CODE[code], activity, iteration, dict(values), user,
            bool(superseded), timestamp,
        )


class ExecutionHistory:
    """Ordered log of the events an instance produced so far.

    A history loaded from a store keeps its stored prefix as it was read
    — the compact JSON text of the rows (or, from a record written before
    format 3, the row list) — together with the number of rows in it, so
    :meth:`record` knows the next position without reading it.  The text
    is decoded, and :class:`HistoryEntry` objects are built, only when
    something reads the prefix (compliance replay, ad-hoc change,
    rollback, loop superseding, ``completed_activities``); stepping only
    appends.  :meth:`to_stored` encodes only the entries recorded since
    and splices them onto the prefix text, so hydration is O(1) and
    write-back O(entries recorded since) in the history.

    Some readers (monitoring, ``instance_info``) query a live case's
    history without holding its lock while its owner records.  Every
    structural change is therefore published by one attribute assignment:
    ``_prefix`` is never mutated in place (superseding replaces it by a
    new row list), and what is derived from it — the decoded rows, the
    entries built from those — is cached together with the very object
    it was derived from, so a cache published late by a reader is
    recognised as outdated rather than trusted.
    """

    def __init__(self, entries: Optional[Iterable[HistoryEntry]] = None) -> None:
        #: the stored prefix: its JSON text, or its row list
        self._prefix: Union[str, List[list]] = []
        #: number of rows in the stored prefix
        self._count = 0
        #: ``(text, rows decoded from exactly that text)``
        self._decoded: Tuple[Optional[str], List[list]] = (None, [])
        #: ``(rows, entries built from exactly that list)``
        self._built: Tuple[List[list], List[HistoryEntry]] = (self._prefix, [])
        #: entries recorded since (everything, for a never-stored history)
        self._tail: List[HistoryEntry] = list(entries or [])

    def _stored_rows(self) -> List[list]:
        """The rows of the stored prefix, decoded on first use."""
        prefix = self._prefix
        if prefix.__class__ is not str:
            return prefix
        text, rows = self._decoded
        if text is not prefix:
            rows = stored_log.decode(prefix)
            self._decoded = (prefix, rows)
        return rows

    def _stored_entries(self) -> List[HistoryEntry]:
        """The entries of the stored prefix, materialised on first use."""
        rows = self._stored_rows()
        built_from, entries = self._built
        if built_from is not rows:
            entries = [HistoryEntry.from_row(row) for row in rows]
            self._built = (rows, entries)
        return entries

    def _all(self) -> List[HistoryEntry]:
        return self._stored_entries() + self._tail

    @property
    def materialised(self) -> bool:
        """False while a stored prefix is held that nothing has read yet."""
        rows = self._prefix
        if rows.__class__ is str:
            text, rows = self._decoded
            if text is not self._prefix:
                return False
        return self._built[0] is rows

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def record(
        self,
        event: HistoryEventType,
        activity: str,
        iteration: int = 0,
        values: Optional[Mapping[str, Any]] = None,
        user: Optional[str] = None,
    ) -> HistoryEntry:
        """Append a new entry and return it."""
        position = self._count + len(self._tail)
        entry = HistoryEntry(
            position, event, activity, iteration, dict(values or {}), user, False, position
        )
        self._tail.append(entry)
        return entry

    def supersede_activities(self, activities: Iterable[str]) -> int:
        """Flag all existing entries of ``activities`` as superseded.

        Called by the engine when a loop starts a new iteration: entries of
        the previous pass through the loop body no longer count for the
        reduced history.  Returns the number of entries flagged.
        """
        targets = set(activities)
        prefix = self._prefix
        hits: List[int] = []
        # a stored text that names no target holds no row to flag
        if prefix.__class__ is not str or any(json.dumps(t) in prefix for t in targets):
            rows = self._stored_rows()
            hits = [
                index
                for index, row in enumerate(rows)
                if row[_ACTIVITY] in targets and not row[_SUPERSEDED]
            ]
            if hits:
                rows = list(rows)
                for index in hits:
                    row = list(rows[index])
                    row[_SUPERSEDED] = 1
                    rows[index] = row
                self._prefix = rows  # what was derived from the old prefix is outdated now
        flagged = len(hits)
        tail = self._tail
        for index, entry in enumerate(tail):
            if entry.activity in targets and not entry.superseded:
                tail[index] = entry.mark_superseded()
                flagged += 1
        return flagged

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def entries(self) -> List[HistoryEntry]:
        """All entries in recording order (full history)."""
        return self._all()

    def reduced(self) -> List[HistoryEntry]:
        """The reduced history: entries of superseded loop iterations removed."""
        return [entry for entry in self._all() if not entry.superseded]

    def reduced_rows(self) -> List[list]:
        """The reduced history as stored rows (builds no stored entry)."""
        rows = [row for row in self._stored_rows() if not row[_SUPERSEDED]]
        rows.extend(entry.to_row() for entry in self._tail if not entry.superseded)
        return rows

    def entries_for(self, activity: str, reduced: bool = False) -> List[HistoryEntry]:
        """All entries of one activity."""
        source = self.reduced() if reduced else self._all()
        return [entry for entry in source if entry.activity == activity]

    def completed_activities(self, reduced: bool = True) -> List[str]:
        """Activity ids with a completion entry, in completion order."""
        source = self.reduced() if reduced else self._all()
        return [
            entry.activity
            for entry in source
            if entry.event is HistoryEventType.ACTIVITY_COMPLETED
        ]

    def started_activities(self, reduced: bool = True) -> List[str]:
        """Activity ids with a start entry, in start order."""
        source = self.reduced() if reduced else self._all()
        return [
            entry.activity
            for entry in source
            if entry.event is HistoryEventType.ACTIVITY_STARTED
        ]

    def has_entries_for(self, activity: str, reduced: bool = True) -> bool:
        """True when the (reduced) history mentions ``activity``."""
        return bool(self.entries_for(activity, reduced=reduced))

    def written_values(self, element: str) -> List[Any]:
        """Chronological values written to a data element (full history)."""
        values = []
        for entry in self._all():
            if entry.event is HistoryEventType.ACTIVITY_COMPLETED and element in entry.values:
                values.append(entry.values[element])
        return values

    def last_sequence(self) -> int:
        """Sequence number of the newest entry (-1 when empty)."""
        if self._tail:
            return self._tail[-1].sequence
        return self._stored_rows()[-1][0] if self._count else -1

    # ------------------------------------------------------------------ #
    # copy / serialization
    # ------------------------------------------------------------------ #

    def copy(self) -> "ExecutionHistory":
        clone = ExecutionHistory(self._tail)
        clone._prefix = self._prefix
        clone._count = self._count
        clone._decoded = self._decoded
        clone._built = self._built
        return clone

    def to_dict(self) -> dict:
        """The canonical form: the rows as a list (decodes a stored prefix)."""
        return {"rows": self._stored_rows() + [entry.to_row() for entry in self._tail]}

    def to_stored(self) -> dict:
        """The stored form: the rows as one compact JSON text, and their count.

        Decodes nothing: the text of the stored prefix is reused, and only
        the entries recorded since are encoded and spliced onto it.
        """
        prefix = self._prefix
        text = prefix if prefix.__class__ is str else stored_log.encode(prefix)
        tail = self._tail
        if tail:
            text = stored_log.splice(text, stored_log.encode([entry.to_row() for entry in tail]))
        return {"rows": text, "count": self._count + len(tail)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExecutionHistory":
        """Reconstruct a history from :meth:`to_stored` or :meth:`to_dict` output.

        Also reads the ``"entries"`` list of per-entry dicts that stores
        written before the row form hold.
        """
        history = cls()
        rows = payload.get("rows")
        if rows is None:
            rows = [HistoryEntry.from_dict(item).to_row() for item in payload.get("entries", [])]
        if rows.__class__ is str:
            count = payload["count"]
            if count:
                history._prefix, history._count = rows, count
        elif rows:
            history._prefix, history._count = rows, len(rows)
        return history

    def __len__(self) -> int:
        return self._count + len(self._tail)

    def __iter__(self):
        return iter(self._all())

    def __repr__(self) -> str:
        return f"ExecutionHistory(entries={len(self)}, reduced={len(self.reduced_rows())})"
