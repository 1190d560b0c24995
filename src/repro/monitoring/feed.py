"""The monitoring event feed — first subscriber of the system event bus.

The paper's monitoring component visualises the effects of ad-hoc
changes and type changes.  The :class:`EventFeed` is its live-feed
counterpart: subscribed to the :class:`repro.system.EventBus`, it keeps
a window of the newest :class:`repro.system.SystemEvent` objects of its
categories in delivery order — the system's one retained event window,
bounded by :data:`~repro.runtime.events.MAX_RETAINED_EVENTS` — plus
exact lifetime counts per event name and per category, and renders them
as text: the library equivalent of the activity stream in the
prototype's GUI.  The façade's default feed subscribes to every category
but the per-step ``engine`` one.

The feed deliberately avoids importing :mod:`repro.system` (monitoring
must stay importable on its own); it only relies on the event's
``seq`` / ``category`` / ``name`` attributes.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.runtime.events import MAX_RETAINED_EVENTS


class EventFeed:
    """Collects system events for inspection and rendering.

    The feed is a plain callable, so it can be handed directly to
    :meth:`repro.system.EventBus.subscribe`::

        feed = EventFeed()
        system.bus.subscribe(feed, categories=["migration"])

    It retains the newest ``max_events`` events (:attr:`events`,
    :meth:`names`, :meth:`tail`, :meth:`render`) and counts every event
    it ever received (:meth:`counts`, :meth:`category_counts` and the
    summaries), so the counts stay exact however far the window has
    moved on.

    Appending and every accessor hold one internal lock, so the feed can
    be shared by a bus that is published to from many threads — readers
    always see a consistent snapshot in delivery order.
    """

    def __init__(self, max_events: int = MAX_RETAINED_EVENTS) -> None:
        self.max_events = max_events
        # a bounded deque: appending beyond the cap drops the oldest
        # event in O(1) — a list with a head-deletion would make every
        # append O(cap) once the feed is full (bulk migrations publish
        # hundreds of thousands of events)
        self._events: Deque[Any] = deque(maxlen=max_events)
        self._name_counts: Dict[str, int] = {}
        self._category_counts: Dict[str, int] = {}
        self._lock = threading.Lock()

    def __call__(self, event: Any) -> None:
        """Bus subscriber entry point."""
        name_counts = self._name_counts
        category_counts = self._category_counts
        with self._lock:
            self._events.append(event)
            name_counts[event.name] = name_counts.get(event.name, 0) + 1
            category_counts[event.category] = category_counts.get(event.category, 0) + 1

    # ------------------------------------------------------------------ #

    @property
    def events(self) -> List[Any]:
        """The retained events (the newest ``max_events``) in delivery order."""
        with self._lock:
            return list(self._events)

    def names(self) -> List[str]:
        """The retained event names in delivery order (handy for behavioural asserts)."""
        with self._lock:
            return [event.name for event in self._events]

    def counts(self) -> Dict[str, int]:
        """Event count per event name, over every event received."""
        with self._lock:
            return dict(self._name_counts)

    def category_counts(self) -> Dict[str, int]:
        """Event count per category, over every event received."""
        with self._lock:
            return dict(self._category_counts)

    #: Storage-lifecycle event names surfaced by :meth:`storage_summary`.
    _STORAGE_EVENTS = (
        "instance_loaded",
        "instance_evicted",
        "instance_saved",
        "instance_deleted",
        "checkpoint_completed",
        "recovery_completed",
    )

    def storage_summary(self) -> Dict[str, int]:
        """Counts of the durability layer's lifecycle events.

        Hydrations (``instance_loaded``) and evictions tell how hard the
        LRU live-instance cache is churning; checkpoints and recoveries
        tell how the write-ahead log is being compacted and replayed.
        Names with zero occurrences are included so dashboards get a
        stable shape.
        """
        counts = self.counts()
        return {name: counts.get(name, 0) for name in self._STORAGE_EVENTS}

    #: Progressive-rollout event names surfaced by :meth:`rollout_summary`.
    _ROLLOUT_EVENTS = (
        "rollout_started",
        "rollout_case_adopted",
        "rollout_case_conflict",
        "rollout_promoted",
        "rollout_rolled_back",
        "rollout_swept",
        "rollout_completed",
    )

    def rollout_summary(self) -> Dict[str, int]:
        """Counts of the progressive-rollout lifecycle events.

        Adoptions versus conflicts show how a lazy/canary rollout is
        being received by the population; promoted/rolled-back/completed
        record the decisions taken.  Names with zero occurrences are
        included so dashboards get a stable shape.
        """
        counts = self.counts()
        return {name: counts.get(name, 0) for name in self._ROLLOUT_EVENTS}

    def tail(self, count: int = 10, category: Optional[str] = None) -> List[Any]:
        """The most recent ``count`` retained events (optionally of one category);
        none for a ``count`` ≤ 0."""
        if count <= 0:
            return []
        snapshot = self.events
        events = (
            snapshot
            if category is None
            else [event for event in snapshot if event.category == category]
        )
        return events[-count:]

    def render(self, limit: int = 20) -> str:
        """The most recent ``limit`` events as a text block (none for ``limit`` ≤ 0)."""
        snapshot = self.events
        limit = max(limit, 0)
        lines = [f"event feed ({len(snapshot)} event(s), showing last {limit}):"]
        for event in snapshot[-limit:] if limit else ():
            lines.append(f"  {event}")
        return "\n".join(lines)

    def clear(self) -> None:
        """Forget the retained events and reset the counts."""
        with self._lock:
            self._events.clear()
            self._name_counts.clear()
            self._category_counts.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)
