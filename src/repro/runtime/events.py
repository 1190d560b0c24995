"""Engine events.

The engine reports an event for every relevant state change (instance
created, activity activated/started/completed/skipped, loop iteration,
instance completed, migration performed, ...) to its one
``event_listener`` (:meth:`repro.runtime.ProcessEngine.emit`); the
façade bridges them onto its bus, where the monitoring feed and any
other subscriber receive them.  The engine retains none.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional


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
