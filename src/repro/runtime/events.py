"""Engine events and the event log.

The engine publishes an event for every relevant state change (instance
created, activity activated/started/completed/skipped, loop iteration,
instance completed, migration performed, ...).  The monitoring component
and the worklist manager subscribe to the log; tests use it to assert
behavioural properties without poking at engine internals.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Callable, Deque, List, NamedTuple, Optional

#: The one retention bound for events: how many an :class:`EventLog`,
#: and by default the system bus's history, its failed deliveries and
#: the monitoring feed, retain — the newest ones.  All are windows for
#: inspection, not archives: the journal is the durable record, and
#: counts that must stay exact are kept as counters beside the window.
MAX_RETAINED_EVENTS = 10000


class EventType(str, Enum):
    """All event kinds the runtime and the change framework emit."""

    INSTANCE_CREATED = "instance_created"
    INSTANCE_COMPLETED = "instance_completed"
    INSTANCE_ABORTED = "instance_aborted"
    ACTIVITY_ACTIVATED = "activity_activated"
    ACTIVITY_STARTED = "activity_started"
    ACTIVITY_COMPLETED = "activity_completed"
    ACTIVITY_SKIPPED = "activity_skipped"
    ACTIVITY_COMPENSATED = "activity_compensated"
    LOOP_ITERATION = "loop_iteration"
    ADHOC_CHANGE_APPLIED = "adhoc_change_applied"
    ADHOC_CHANGE_REJECTED = "adhoc_change_rejected"
    INSTANCE_MIGRATED = "instance_migrated"
    MIGRATION_REJECTED = "migration_rejected"
    SCHEMA_VERSION_RELEASED = "schema_version_released"


class EngineEvent(NamedTuple):
    """One published event (immutable; a tuple, so building one is cheap)."""

    event_type: EventType
    instance_id: Optional[str] = None
    node_id: Optional[str] = None
    user: Optional[str] = None
    details: Optional[str] = None

    def __str__(self) -> str:
        parts = [self.event_type.value]
        if self.instance_id:
            parts.append(f"instance={self.instance_id}")
        if self.node_id:
            parts.append(f"node={self.node_id}")
        if self.user:
            parts.append(f"user={self.user}")
        if self.details:
            parts.append(self.details)
        return " ".join(parts)


Listener = Callable[[EngineEvent], None]


class EventLog:
    """In-memory window of the newest engine events, with listener support.

    The log retains the last :data:`MAX_RETAINED_EVENTS` events; older
    ones fall off the front in O(1).  :meth:`append` sits on the engine's
    hot step path and stays lock free: ``deque.append`` is atomic under
    the GIL and the listener collection is an immutable tuple republished
    by :meth:`subscribe`, so concurrent appenders never observe a
    half-registered listener.  Ordering *between* threads is provided by
    the callers (the façade steps cases one operation at a time; the
    system bus re-sequences).
    """

    def __init__(self) -> None:
        self._events: Deque[EngineEvent] = deque(maxlen=MAX_RETAINED_EVENTS)
        self._listeners: tuple = ()

    def append(self, event: EngineEvent) -> None:
        """Record an event and notify all listeners."""
        self._events.append(event)
        for listener in self._listeners:
            listener(event)

    def subscribe(self, listener: Listener) -> None:
        """Register a callback invoked for every future event."""
        self._listeners = self._listeners + (listener,)

    @property
    def events(self) -> List[EngineEvent]:
        """The retained events, oldest first (a copy)."""
        return list(self._events)

    def events_of(self, event_type: EventType, instance_id: Optional[str] = None) -> List[EngineEvent]:
        """Retained events filtered by type and optionally by instance."""
        # over the copy: a deque appended to mid-iteration raises
        return [
            event
            for event in self.events
            if event.event_type is event_type
            and (instance_id is None or event.instance_id == instance_id)
        ]

    def count(self, event_type: EventType) -> int:
        return len(self.events_of(event_type))

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)
