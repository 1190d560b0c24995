"""The monitoring event feed — first subscriber of the system event bus.

The paper's monitoring component visualises the effects of ad-hoc
changes and type changes.  The :class:`EventFeed` is its live-feed
counterpart: subscribed to the :class:`repro.system.EventBus`, it counts
the :class:`repro.system.SystemEvent` objects of its categories exactly,
per event name and per category, and keeps none of them — the journal
is the durable record, and a caller that wants recent events subscribes
a handler of its own.  The façade's default feed subscribes to every
category but the per-step ``engine`` one.

The feed deliberately avoids importing :mod:`repro.system` (monitoring
must stay importable on its own); it only relies on the event's
``category`` / ``name`` attributes.
"""

from __future__ import annotations

import threading
from typing import Any, Dict


class EventFeed:
    """Counts system events for inspection.

    The feed is a plain callable, so it can be handed directly to
    :meth:`repro.system.EventBus.subscribe`::

        feed = EventFeed()
        system.bus.subscribe(feed, categories=["migration"])

    It counts every event it receives (:meth:`counts`,
    :meth:`category_counts` and the summaries) and retains none, so it
    holds as much after a million events as after ten.

    Counting and every accessor hold one internal lock, so the feed can
    be shared by a bus that is published to from many threads — readers
    always see a consistent snapshot.
    """

    def __init__(self) -> None:
        self._name_counts: Dict[str, int] = {}
        self._category_counts: Dict[str, int] = {}
        self._lock = threading.Lock()

    def __call__(self, event: Any) -> None:
        """Bus subscriber entry point."""
        name_counts = self._name_counts
        category_counts = self._category_counts
        with self._lock:
            name_counts[event.name] = name_counts.get(event.name, 0) + 1
            category_counts[event.category] = category_counts.get(event.category, 0) + 1

    # ------------------------------------------------------------------ #

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

    def clear(self) -> None:
        """Reset the counts."""
        with self._lock:
            self._name_counts.clear()
            self._category_counts.clear()
