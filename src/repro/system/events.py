"""The pluggable event bus of the :class:`~repro.system.AdeptSystem` façade.

Every observable state change of the system — engine steps, ad-hoc
change sets, schema deployments and migration runs — is published on
one :class:`EventBus`, which turns it into a :class:`SystemEvent` only
when some subscriber wants its category.  Subscribers receive the
events in publication order (each event carries a monotonically
increasing sequence number); they can subscribe to everything or to a
set of categories only.

The bus is *pluggable*: the façade accepts any bus-compatible object at
construction time, so deployments can substitute an implementation that
forwards events to an external queue.  The monitoring package is the
first built-in subscriber (:class:`repro.monitoring.EventFeed`).

Subscriber exceptions never interrupt the publishing component (a broken
dashboard must not abort a migration run); they are counted on
:attr:`EventBus.delivery_failures` and logged as warnings instead.
"""

from __future__ import annotations

import logging
import threading
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.runtime.events import EngineEvent, EventType

logger = logging.getLogger(__name__)

#: Event categories published by the façade.
CATEGORY_ENGINE = "engine"
CATEGORY_CHANGE = "change"
CATEGORY_MIGRATION = "migration"
CATEGORY_SCHEMA = "schema"
CATEGORY_SYSTEM = "system"

ALL_CATEGORIES: Tuple[str, ...] = (
    CATEGORY_ENGINE,
    CATEGORY_CHANGE,
    CATEGORY_MIGRATION,
    CATEGORY_SCHEMA,
    CATEGORY_SYSTEM,
)

#: How engine event types map onto bus categories.
_ENGINE_EVENT_CATEGORIES: Dict[EventType, str] = {
    EventType.ADHOC_CHANGE_APPLIED: CATEGORY_CHANGE,
    EventType.ADHOC_CHANGE_REJECTED: CATEGORY_CHANGE,
    EventType.INSTANCE_MIGRATED: CATEGORY_MIGRATION,
    EventType.MIGRATION_REJECTED: CATEGORY_MIGRATION,
    EventType.SCHEMA_VERSION_RELEASED: CATEGORY_SCHEMA,
}


class SystemEvent(NamedTuple):
    """One published event (immutable; a tuple, so building one is cheap).

    Attributes:
        seq: Monotonically increasing sequence number (per bus) — two
            events delivered to the same subscriber always arrive in
            ascending ``seq`` order.
        category: One of :data:`ALL_CATEGORIES`.
        name: Event name, e.g. ``"activity_completed"`` or
            ``"migration_completed"``.
        instance_id: The affected instance, when the event concerns one.
        type_id: The affected process type, when known.
        payload: Structured event details (node ids, counts, comments).
    """

    seq: int
    category: str
    name: str
    instance_id: Optional[str] = None
    type_id: Optional[str] = None
    payload: Mapping[str, Any] = MappingProxyType({})

    def __str__(self) -> str:
        parts = [f"#{self.seq}", f"[{self.category}]", self.name]
        if self.instance_id:
            parts.append(f"instance={self.instance_id}")
        if self.type_id:
            parts.append(f"type={self.type_id}")
        for key, value in self.payload.items():
            parts.append(f"{key}={value}")
        return " ".join(parts)


Subscriber = Callable[[SystemEvent], None]


class _Subscription(NamedTuple):
    token: int
    handler: Subscriber
    #: ``None`` subscribes to every category
    categories: Optional[FrozenSet[str]]


def _wanted_by(subscriptions: Tuple[_Subscription, ...]) -> FrozenSet[str]:
    """The categories at least one subscription receives."""
    wanted: set = set()
    for _, _, categories in subscriptions:
        wanted.update(ALL_CATEGORIES if categories is None else categories)
    return frozenset(wanted)


class EventBus:
    """In-process publish/subscribe hub for :class:`SystemEvent` objects.

    Events exist on demand: the bus builds one only for a category some
    subscriber wants (:attr:`wanted`).  Publishing any other category
    returns ``None`` at once — no sequence number, no :class:`SystemEvent`
    — so the per-step ``engine`` stream costs nothing while nobody listens
    to it.  The bus retains no delivered event, and neither does the
    façade's :class:`~repro.monitoring.EventFeed` (it counts them): a
    caller that wants recent events subscribes a handler that keeps them.

    Publishing is thread-safe: sequence allocation and subscriber dispatch
    happen under one reentrant lock, so every subscriber observes all
    events in strictly ascending ``seq`` order even when many threads
    publish concurrently.  Dispatch is therefore
    serialised, and events fire from inside the façade's operations,
    under its execution lock.  Two hard rules for subscribers follow:
    they must stay cheap (the built-in
    :class:`~repro.monitoring.EventFeed` is a counter), and they must
    **never call back into the system synchronously** — a call from the
    publishing thread runs a nested operation in the middle of one, and
    a call handed to another thread and waited for deadlocks.  Slow or
    re-entrant consumers belong behind a queue-forwarding subscriber
    that processes events on their own thread.
    """

    def __init__(self) -> None:
        # an immutable tuple, republished by subscribe/unsubscribe: a
        # publish iterates the one it found, so a handler that subscribes
        # or unsubscribes mid-delivery never disturbs the event in flight
        self._subscriptions: Tuple[_Subscription, ...] = ()
        #: The union of the subscriptions' categories (one without a filter
        #: counts as all of them); republished with ``_subscriptions``.
        self.wanted: FrozenSet[str] = frozenset()
        self._seq = 0
        self._token = 0
        # reentrant: a subscriber may itself publish (or subscribe)
        self._lock = threading.RLock()
        #: Every failed delivery, counted exactly.  The bus keeps none of
        #: the exceptions (each holds its traceback, and with it frames
        #: that can reach live instances); it logs each one instead.
        self.delivery_failures = 0

    # ------------------------------------------------------------------ #
    # subscription management
    # ------------------------------------------------------------------ #

    def subscribe(
        self, handler: Subscriber, categories: Optional[Sequence[str]] = None
    ) -> int:
        """Register ``handler`` for all events (or the given categories).

        ``categories`` is a collection of names; a bare string is refused
        with :class:`TypeError`, since it would subscribe to its letters.
        Returns an opaque token accepted by :meth:`unsubscribe`.
        """
        if isinstance(categories, str):
            raise TypeError(
                f"categories must be a collection of category names, not the string {categories!r}"
            )
        with self._lock:
            self._token += 1
            wanted = frozenset(categories) if categories is not None else None
            self._subscriptions += (_Subscription(self._token, handler, wanted),)
            self.wanted = _wanted_by(self._subscriptions)
            return self._token

    def unsubscribe(self, token: int) -> bool:
        """Remove a subscription; returns True when it existed."""
        with self._lock:
            before = len(self._subscriptions)
            self._subscriptions = tuple(s for s in self._subscriptions if s.token != token)
            self.wanted = _wanted_by(self._subscriptions)
            return len(self._subscriptions) < before

    @property
    def subscriber_count(self) -> int:
        return len(self._subscriptions)

    def wants_step_events(self) -> bool:
        """True when some subscriber wants the ``engine`` category.

        The engine whose listener is :meth:`publish_engine_event` asks
        this once per operation and, while it is False, builds no
        step-path event and makes no call for one.
        """
        return CATEGORY_ENGINE in self.wanted

    # ------------------------------------------------------------------ #
    # publishing
    # ------------------------------------------------------------------ #

    def publish(
        self,
        category: str,
        name: str,
        instance_id: Optional[str] = None,
        type_id: Optional[str] = None,
        **payload: Any,
    ) -> Optional[SystemEvent]:
        """Create a :class:`SystemEvent` and deliver it to all subscribers.

        Returns ``None`` without building anything when no subscriber
        wants ``category``.
        """
        if category not in self.wanted:
            return None
        return self._deliver(category, name, instance_id, type_id, payload)

    def publish_engine_event(self, event: EngineEvent) -> Optional[SystemEvent]:
        """Bridge one :class:`repro.runtime.EngineEvent` onto the bus."""
        category = _ENGINE_EVENT_CATEGORIES.get(event.event_type, CATEGORY_ENGINE)
        if category not in self.wanted:
            return None
        payload: Dict[str, Any] = {}
        if event.node_id:
            payload["node"] = event.node_id
        if event.user:
            payload["user"] = event.user
        if event.details:
            payload["details"] = event.details
        return self._deliver(category, event.event_type.value, event.instance_id, None, payload)

    def _deliver(
        self,
        category: str,
        name: str,
        instance_id: Optional[str],
        type_id: Optional[str],
        payload: Mapping[str, Any],
    ) -> SystemEvent:
        with self._lock:
            self._seq += 1
            event = SystemEvent(self._seq, category, name, instance_id, type_id, payload)
            for _, handler, categories in self._subscriptions:
                if categories is not None and category not in categories:
                    continue
                try:
                    handler(event)
                except Exception as exc:  # noqa: BLE001 - subscriber isolation
                    self.delivery_failures += 1
                    logger.warning(
                        "subscriber %r failed on event %s: %s: %s",
                        handler,
                        name,
                        type(exc).__name__,
                        exc,
                        exc_info=True,
                    )
            return event
