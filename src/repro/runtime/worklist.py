"""Worklists: offering activated activities to authorised users.

Activated activities are turned into work items and offered to the users
whose role matches the activity's staff assignment (resolved through the
organisational model, :mod:`repro.org`).  A user claims an item, performs
the work and completes it through the engine.

**Synchronisation is per case.**  Whoever changes a case calls
:meth:`WorklistManager.sync_instance` for exactly that case before it
lets go of it (the façade does so at the exit of every execution scope,
inside the operation), so the offered items of a case
equal its activated activities whenever nobody is working on it — at a
cost independent of how many other cases exist.  Only *open* (offered or
claimed) items are resident: a completed or withdrawn item leaves the
manager (the step itself is in the case history and the event feed); a
caller still holding the :class:`WorkItem` sees its final state.

**Thread safety.**  All item state lives behind one manager lock, an
innermost leaf: it guards the item and registry dicts only and is never
held across an engine call, a hydration or a lock acquisition, so the
views (:meth:`WorklistManager.worklist_for` and friends) are pure reads
that need no other lock.  :meth:`WorklistManager.claim` is an *atomic
reservation* — under contention exactly one claimer flips an item from
OFFERED to CLAIMED, every other claimer gets a clean
:class:`EngineError`.  The engine call itself runs outside the manager
lock, wrapped in the optional :attr:`execution_guard` (the façade
installs its execution scope there).  A failed engine call reverts the
reservation.

**Performing an item in three parts.**  :meth:`WorklistManager.claim`
starts the activity, :meth:`WorklistManager.inputs_of` reads what a
worker function needs, and :meth:`WorklistManager.complete` writes the
outputs.  The worker function itself runs between them, so a scheduler
(the façade's worker pool) runs it without holding the case.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.runtime.engine import EngineError, ProcessEngine
from repro.runtime.instance import ProcessInstance
from repro.runtime.markings import NODE_CODE, Marking
from repro.runtime.states import NodeState
from repro.schema.graph import ProcessSchema
from repro.schema.nodes import Node


# the marking codes work_of searches for
_ACTIVATED = NODE_CODE[NodeState.ACTIVATED]
_RUNNING = NODE_CODE[NodeState.RUNNING]
_SUSPENDED = NODE_CODE[NodeState.SUSPENDED]


class WorkItemState(str, Enum):
    """Lifecycle of a work item."""

    OFFERED = "offered"
    CLAIMED = "claimed"
    COMPLETED = "completed"
    WITHDRAWN = "withdrawn"


@dataclass
class WorkItem:
    """One offered unit of work (an activated activity of an instance)."""

    item_id: str
    instance_id: str
    activity_id: str
    role: Optional[str]
    state: WorkItemState = WorkItemState.OFFERED
    claimed_by: Optional[str] = None

    def __str__(self) -> str:
        who = f" by {self.claimed_by}" if self.claimed_by else ""
        return f"[{self.state.value}] {self.instance_id}/{self.activity_id} (role={self.role}){who}"


class WorklistManager:
    """Maintains work items for a set of instances driven by one engine."""

    def __init__(self, engine: ProcessEngine, org_model: Optional[Any] = None) -> None:
        self.engine = engine
        self.org_model = org_model
        #: Open (offered or claimed) items by id — closed items leave.
        self._items: Dict[str, WorkItem] = {}
        self._instances: Dict[str, ProcessInstance] = {}
        self._counter = 0
        #: The open items again, by activity, per instance — per-case
        #: synchronisation never looks at another case's items.
        self._open_by_instance: Dict[str, Dict[str, WorkItem]] = {}
        #: Optional hook mapping an instance id to a live instance.  The
        #: façade's lazy-hydration cache sets this so claiming or completing
        #: a work item of an evicted case transparently re-hydrates it from
        #: the instance store.
        self.instance_resolver: Optional[Any] = None
        #: Optional context-manager factory ``guard(instance_id) -> instance``
        #: wrapping every engine call performed through the worklist.  The
        #: façade installs its execution scope (the case inside an
        #: operation, synchronised on exit) here; standalone managers run
        #: unguarded and synchronise the case themselves.
        self.execution_guard: Optional[Callable[[str], Any]] = None
        # guards _items / _open_by_instance / _instances / _counter /
        # _completing; a leaf — nothing else is acquired or called into
        # while it is held
        self._lock = threading.Lock()
        # items whose completion is currently executing (double-complete guard)
        self._completing: Set[str] = set()

    # ------------------------------------------------------------------ #
    # synchronisation with the cases
    # ------------------------------------------------------------------ #

    def register_instance(self, instance: ProcessInstance, sync: bool = True) -> None:
        """Track a live instance (or its replacement object) and synchronise it.

        The caller owns the case (runs the façade operation that holds
        it, or is single-threaded).  ``sync=False`` is for a caller that
        knows the case's open items already match its marking.
        """
        with self._lock:
            self._instances[instance.instance_id] = instance
        if sync:
            self.sync_instance(instance)

    def unregister_instance(self, instance_id: str) -> None:
        """Stop tracking an instance (eviction from the live cache).

        Its open work items stay offered — the case still exists in the
        instance store; claiming one re-hydrates it through
        :attr:`instance_resolver`.
        """
        with self._lock:
            self._instances.pop(instance_id, None)

    def discard_instance(self, instance_id: str) -> None:
        """Stop tracking an instance *and* withdraw its open work items.

        Used when the case ceases to exist (deletion) — unlike eviction,
        nothing could ever re-hydrate it, so offered items must not
        linger.
        """
        with self._lock:
            self._instances.pop(instance_id, None)
            for item in list(self._open_by_instance.get(instance_id, {}).values()):
                self._close(item, WorkItemState.WITHDRAWN)

    def sync_instance(self, instance: ProcessInstance) -> None:
        """Make one case's open items match its marking.

        O(the case's own nodes), whatever the population.  The caller
        owns the case (runs the façade operation that holds it, or is
        single-threaded), so the marking read here is not mid-step.  A
        case that is no longer active keeps nothing open — nobody could
        start or complete its activities.
        """
        offers: Mapping[str, Optional[str]] = {}
        running: Collection[str] = ()
        if instance.status.is_active:
            offers, running = self.work_of(instance.execution_schema, instance.marking)
        self.sync_offers(instance.instance_id, offers, running)

    @staticmethod
    def work_of(
        schema: ProcessSchema, marking: Marking
    ) -> Tuple[Dict[str, Optional[str]], List[str]]:
        """One pass over a marking: what a case in that state offers on
        ``schema`` (activated activity id → role) and the node ids in
        execution."""
        offers: Dict[str, Optional[str]] = {}
        running: List[str] = []
        nodes = marking.nodes
        node_ids = marking.layout.node_ids
        position = nodes.find(_ACTIVATED)
        while position != -1:
            node_id = node_ids[position]
            if schema.has_node(node_id):
                node = schema.node(node_id)
                if node.is_activity:
                    offers[node_id] = node.staff_assignment
            position = nodes.find(_ACTIVATED, position + 1)
        for code in (_RUNNING, _SUSPENDED):
            position = nodes.find(code)
            while position != -1:
                running.append(node_ids[position])
                position = nodes.find(code, position + 1)
        return offers, running

    def sync_offers(
        self,
        instance_id: str,
        offers: Mapping[str, Optional[str]],
        running: Optional[Collection[str]] = None,
    ) -> None:
        """Make one case's offered items equal ``offers`` (activity id → role).

        A CLAIMED item stays open while its activity is still offered
        (the claimer is about to start it) or among ``running`` (it did);
        otherwise the work was taken from under the claim — completed
        directly, compensated, reverted, its case aborted — and the item
        withdraws.  ``running=None`` is the form for a case that is not
        materialised (a migration rewriting a stored record hands in what
        the adapted marking activates; it never changes what is running):
        claimed items are left alone.
        """
        with self._lock:
            open_items = self._open_by_instance.get(instance_id)
            if open_items is None:
                if not offers:
                    return
                open_items = self._open_by_instance[instance_id] = {}
            for activity_id, role in offers.items():
                if activity_id not in open_items:
                    self._counter += 1
                    item = WorkItem(f"wi-{self._counter}", instance_id, activity_id, role)
                    self._items[item.item_id] = open_items[activity_id] = item
            for item in [
                item
                for activity_id, item in open_items.items()
                if activity_id not in offers
                and (
                    item.state is WorkItemState.OFFERED
                    or (running is not None and activity_id not in running)
                )
            ]:
                # e.g. completed directly, skipped, or deleted by a change
                self._close(item, WorkItemState.WITHDRAWN)

    def refresh(self) -> None:
        """Resynchronise every registered instance, one by one.

        Linear in the population and without any case locking: for
        single-threaded callers only — recovery, after its replay drove
        the engine directly, and standalone managers whose instances are
        stepped behind their back.  The façade never calls it while
        serving.
        """
        with self._lock:
            instances = list(self._instances.values())
        for instance in instances:
            self.sync_instance(instance)

    def _close(self, item: WorkItem, state: WorkItemState) -> None:
        """Give an open item its final state and drop it (manager lock held)."""
        item.state = state
        self._items.pop(item.item_id, None)
        open_items = self._open_by_instance.get(item.instance_id)
        if open_items is not None and open_items.get(item.activity_id) is item:
            del open_items[item.activity_id]
            if not open_items:
                del self._open_by_instance[item.instance_id]

    def _live_instance(self, instance_id: str) -> ProcessInstance:
        with self._lock:
            instance = self._instances.get(instance_id)
        if instance is not None:
            return instance
        if self.instance_resolver is not None:
            # hydrates and re-registers through the façade
            return self.instance_resolver(instance_id)
        raise EngineError(f"instance {instance_id!r} is not registered with the worklist manager")

    @contextmanager
    def _execution(self, instance_id: str) -> Iterator[ProcessInstance]:
        """The scope of one engine call; the case is synchronised on exit."""
        if self.execution_guard is not None:
            with self.execution_guard(instance_id) as instance:
                yield instance
        else:
            instance = self._live_instance(instance_id)
            try:
                yield instance
            finally:
                self.sync_instance(instance)

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    def worklist_for(self, user: str) -> List[WorkItem]:
        """Offered work items the given user is authorised to perform."""
        with self._lock:
            return [
                item
                for item in self._items.values()
                if item.state is WorkItemState.OFFERED and self._authorised(user, item.role)
            ]

    def offered_items(self) -> List[WorkItem]:
        """All currently offered items (the worker pool's seed set)."""
        with self._lock:
            return [item for item in self._items.values() if item.state is WorkItemState.OFFERED]

    def offered_items_for_instance(self, instance_id: str) -> List[WorkItem]:
        """Currently offered items of one case."""
        return [
            item
            for item in self.items_for_instance(instance_id)
            if item.state is WorkItemState.OFFERED
        ]

    def open_items(self) -> List[WorkItem]:
        """All currently offered or claimed items."""
        with self._lock:
            return list(self._items.values())

    def items_for_instance(self, instance_id: str) -> List[WorkItem]:
        """The open (offered or claimed) items of one instance."""
        with self._lock:
            return list(self._open_by_instance.get(instance_id, {}).values())

    def _authorised(self, user: str, role: Optional[str]) -> bool:
        if role is None:
            return True
        if self.org_model is None:
            return True
        return self.org_model.user_has_role(user, role)

    # ------------------------------------------------------------------ #
    # performing work
    # ------------------------------------------------------------------ #

    def claim(self, item_id: str, user: str, enforce_roles: bool = True) -> WorkItem:
        """Claim an offered work item for ``user``.

        The OFFERED→CLAIMED flip is atomic under the manager lock, so two
        racing claimers resolve to exactly one winner; the loser raises.
        The engine start runs outside the lock (under the execution
        guard); any failure — unknown instance, un-activated activity —
        releases the claim (see :meth:`_release_claim`).

        ``enforce_roles=False`` skips the org-model authorisation check:
        the worker pool executes items *as the system* (like
        ``step_many`` does), not as a named human user.
        """
        with self._lock:
            item = self._item(item_id)
            if item.state is not WorkItemState.OFFERED:
                raise EngineError(
                    f"work item {item_id!r} is not offered (state={item.state.value})"
                )
            if enforce_roles and not self._authorised(user, item.role):
                raise EngineError(f"user {user!r} lacks role {item.role!r} required by {item_id!r}")
            item.state = WorkItemState.CLAIMED
            item.claimed_by = user
        try:
            with self._execution(item.instance_id) as instance:
                try:
                    self.engine.start_activity(instance, item.activity_id, user=user)
                except BaseException:
                    # released while the scope still owns the case: its
                    # closing sync withdraws the item if the activity was
                    # completed, skipped or deleted under the claim — a
                    # stale item bouncing back to OFFERED would be a
                    # phantom that livelocks ``WorkerPool.drain``
                    self._release_claim(item, user)
                    raise
        except BaseException:
            self._release_claim(item, user)  # the scope itself failed
            raise
        return item

    def inputs_of(self, item_id: str) -> Tuple[Node, Dict[str, Any]]:
        """What a worker function reads to perform a claimed item.

        The activity's node and a copy of its case's data (a worker's
        arguments); the caller owns the case, the worker function that
        receives them need not.
        """
        with self._lock:
            item = self._item(item_id)
        instance = self._live_instance(item.instance_id)
        return instance.execution_schema.node(item.activity_id), instance.data.values

    def _release_claim(self, item: WorkItem, user: str) -> None:
        """Undo a claim whose engine start failed.

        Only while it is still our claim — a concurrent
        ``discard_instance`` may have withdrawn it already, and a
        withdrawn item must never be resurrected.  Back to OFFERED while
        the case is tracked (its offers were exact when it was last let
        go of); an item of a case nobody can resolve withdraws.
        """
        with self._lock:
            if item.state is not WorkItemState.CLAIMED or item.claimed_by != user:
                return
            item.claimed_by = None
            if item.instance_id in self._instances:
                item.state = WorkItemState.OFFERED
            else:
                self._close(item, WorkItemState.WITHDRAWN)

    def complete(
        self,
        item_id: str,
        outputs: Optional[Mapping[str, Any]] = None,
        auto_outputs: bool = False,
        worker: Optional[Any] = None,
    ) -> WorkItem:
        """Complete a claimed work item through the engine.

        ``auto_outputs=True`` generates outputs the way scripted
        execution does (via ``worker``, filtered to the activity's write
        set, or the engine's plausible defaults) — the worker pool uses
        it so loop conditions and guards keep progressing.
        """
        with self._lock:
            item = self._item(item_id)
            if item.state is not WorkItemState.CLAIMED or item_id in self._completing:
                raise EngineError(
                    f"work item {item_id!r} is not claimed (state={item.state.value})"
                )
            self._completing.add(item_id)
        try:
            with self._execution(item.instance_id) as instance:
                if outputs is None and auto_outputs:
                    outputs = self.engine.outputs_for(instance, item.activity_id, worker)
                self.engine.complete_activity(
                    instance, item.activity_id, outputs=outputs, user=item.claimed_by
                )
                # closed before the scope's closing sync: a loop that
                # re-activates the activity at once gets a fresh item
                with self._lock:
                    self._close(item, WorkItemState.COMPLETED)
        finally:
            with self._lock:
                self._completing.discard(item_id)
        return item

    def _item(self, item_id: str) -> WorkItem:
        try:
            return self._items[item_id]
        except KeyError:
            raise EngineError(f"unknown work item {item_id!r}") from None

    def __len__(self) -> int:
        """Number of open (offered or claimed) items."""
        with self._lock:
            return len(self._items)
