"""Concurrency primitives of the :class:`~repro.system.AdeptSystem` façade.

One ``AdeptSystem`` may be driven from many threads, but it has *one
writer at a time*: every public operation runs from start to end under
the system's single execution lock, the single-writer design of
H-Store's single-threaded partitions (Stonebraker et al., "The End of an
Architectural Era", VLDB 2007).  Under the GIL finer locking buys no
parallel engine work, only lock traffic; scale-out comes from shard
processes (:mod:`repro.service`).  This module provides:

* :class:`LockTable` — the execution lock: one re-entrant lock and its
  preallocated ``with`` scope.  The outermost scope of a thread runs the
  system's release hook (pending canary decisions) before it lets go.
* :func:`operation` — the decorator that runs a method of the system (or
  of one of its collaborators) as one operation under that lock.
* :class:`WorkerPool` — the worklist scheduler behind
  ``system.serve(workers=N)`` / ``system.drain()``.  Workers claim
  offered work items from per-type queues (atomic claim — an item is
  performed exactly once) and steal from other types' queues when their
  own run dry; a worker function runs outside the execution lock.
* :class:`VirtualScheduler` — a deterministic cooperative scheduler for
  the concurrency test harness: N logical threads run one at a time and
  the next runnable thread is chosen by a seeded RNG at every switch
  point, so a failing interleaving replays exactly from its seed.

Only two waits happen outside the execution lock: the group-commit flush
of an operation's WAL records (its ``step`` records included), and a
worker function of the pool.
The locks below it (the worklist manager's, the WAL's, storage and bus
internals) are leaves, never held while the execution lock is awaited.
"""

from __future__ import annotations

import functools
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
)

__all__ = [
    "LockTable",
    "operation",
    "WorkerPool",
    "PoolStats",
    "RolloutSweeper",
    "VirtualScheduler",
    "simulated_latency_worker",
]


class LockTable:
    """The execution lock of one system: one re-entrant lock, one scope.

    :meth:`holding` is the single entry point through which an operation
    takes it.  The scope counts its nesting; when the outermost scope of
    the owning thread exits, ``on_release`` runs (still under the lock,
    also when the body raised) and only then is the lock released.
    """

    def __init__(self, on_release: Optional[Callable[[], None]] = None) -> None:
        self._lock = threading.RLock()
        #: thread ident of the holder (written by the holder only)
        self._owner: Optional[int] = None
        self._depth = 0
        self._on_release = on_release
        self._scope = _Held(self)

    def held(self) -> bool:
        """True when the calling thread holds the lock."""
        return self._owner == threading.get_ident()

    def holding(self) -> "_Held":
        """The lock as a ``with`` scope (preallocated; scopes nest)."""
        return self._scope


class _Held:
    """The ``with`` scope of :meth:`LockTable.holding`.

    A plain object, not a generator-based context manager: one is entered
    per operation.  Its state lives in the table, so one object serves
    every entry on every thread.
    """

    __slots__ = ("_table",)

    def __init__(self, table: LockTable) -> None:
        self._table = table

    def __enter__(self) -> None:
        table = self._table
        table._lock.acquire()
        if not table._depth:
            table._owner = threading.get_ident()
        table._depth += 1

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        table = self._table
        try:
            if table._depth == 1 and table._on_release is not None:
                table._on_release()
        finally:
            table._depth -= 1
            if not table._depth:
                table._owner = None
            table._lock.release()


def operation(method: Any) -> Any:
    """Run a method as one operation of the system.

    ``self`` is the system or one of its collaborators: anything with the
    system's execution lock as ``_lock`` and its durability backend (or
    ``None``) as ``_backend``.  The outermost call holds the execution
    lock for the whole method; a call made inside another operation runs
    within the caller's.  On a durable system the call also opens the
    backend's commit scope *outside* the lock: its records — ``step``
    records included — are enqueued under the lock and written and
    flushed once, after the lock is released, and the call returns only
    after that (also when the method raises) — the durability wait holds
    up no other operation.
    """

    @functools.wraps(method)
    def run(self: Any, *args: Any, **kwargs: Any) -> Any:
        lock = self._lock
        if lock.held():
            return method(self, *args, **kwargs)
        backend = self._backend
        if backend is None:
            with lock.holding():
                return method(self, *args, **kwargs)
        with backend.commit_scope(), lock.holding():
            return method(self, *args, **kwargs)

    return run


# --------------------------------------------------------------------------- #
# the worklist scheduler
# --------------------------------------------------------------------------- #


@dataclass
class PoolStats:
    """What a :class:`WorkerPool` did between start and drain."""

    workers: int = 0
    items_completed: int = 0
    stale_claims: int = 0
    steals: int = 0
    resyncs: int = 0
    steps_by_worker: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"{self.items_completed} item(s) completed by {self.workers} worker(s) "
            f"({self.steals} steal(s), {self.stale_claims} stale claim(s), "
            f"{self.resyncs} resync(s), {len(self.errors)} error(s))"
        )


def simulated_latency_worker(
    seconds: float, base: Optional[Callable[..., Dict[str, Any]]] = None
) -> Callable[..., Dict[str, Any]]:
    """An engine Worker that models a blocking activity implementation.

    Real activities do work *outside* the process engine — they call
    services, wait on humans, read documents.  This worker reproduces
    that profile by sleeping ``seconds`` (releasing the GIL) before
    producing outputs.  Under :meth:`AdeptSystem.serve` the pool runs it
    with the execution lock released — between the claim and the
    completion, which take the lock — so worker threads overlap their
    blocked time while other operations proceed; that is where a
    multi-worker runtime multiplies throughput.  Passed to ``step_many``
    or ``run`` it sleeps inside the operation, under the lock.
    """

    def worker(node: Any, data: Any) -> Dict[str, Any]:
        time.sleep(seconds)
        if base is not None:
            return dict(base(node, data))
        return {}

    return worker


class WorkerPool:
    """N worker threads claiming and completing offered work items.

    The pool keeps one queue of offered work items per process type.
    Worker *i*'s "own" queues are the types assigned to it round-robin;
    when they run dry it steals from the other types' queues — types
    with deep backlogs are drained by everyone.  An item is *claimed*
    through the worklist manager's atomic claim before it executes, so
    even if an item id ends up queued twice (a resync races a worker)
    it is performed exactly once; the loser counts a stale claim.

    One item is two operations of the system: the claim, which also
    reads what the worker function needs, and the completion.  The
    worker function runs between them, outside the execution lock.

    Nothing rescans the population: each completion leaves its case's
    items synchronised (the execution scope's exit) and the pool feeds
    them back into the queues, so stepping stays linear in the work
    performed, not in the population size.
    """

    def __init__(
        self,
        system: Any,
        workers: int = 4,
        worker: Optional[Callable[..., Dict[str, Any]]] = None,
        user_prefix: str = "pool-worker",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.system = system
        self.worker_count = workers
        self.worker_fn = worker
        self.user_prefix = user_prefix
        self._mutex = threading.Lock()
        self._work = threading.Condition(self._mutex)
        self._queues: Dict[str, "deque[str]"] = {}
        self._type_order: List[str] = []
        self._queued: Set[str] = set()
        self._inflight = 0
        self._stopping = False
        self._started = False
        self._threads: List[threading.Thread] = []
        self.stats = PoolStats(workers=workers)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "WorkerPool":
        """Seed the queues from the current worklist and start the workers."""
        if self._started:
            raise RuntimeError("worker pool is already started")
        self._started = True
        self.resync()
        for index in range(self.worker_count):
            thread = threading.Thread(
                target=self._run_worker,
                args=(index,),
                name=f"{self.user_prefix}-{index}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        return self

    @property
    def active(self) -> bool:
        """True while worker threads are accepting work."""
        return self._started and not self._stopping

    @property
    def finished(self) -> bool:
        """True once the pool has been stopped and its threads joined."""
        return self._stopping and not self._threads

    def submit(self, item_id: str, type_id: str) -> bool:
        """Queue one offered work item; returns False when already queued."""
        with self._work:
            if item_id in self._queued:
                return False
            self._queued.add(item_id)
            queue = self._queues.get(type_id)
            if queue is None:
                queue = self._queues[type_id] = deque()
                self._type_order.append(type_id)
            queue.append(item_id)
            # notify_all: the condition is shared with wait_idle callers —
            # a single notify could wake an idle-waiter instead of a
            # worker and strand the queued item (lost wakeup)
            self._work.notify_all()
            return True

    def resync(self) -> int:
        """Queue every currently offered work item not yet queued.

        Called on start, after an ``evolve`` (migration changes which
        activities are activated) and by :meth:`drain` until the system
        is quiescent — work created outside the pool's own completions
        is picked up here.
        """
        added = 0
        for item in self.system.worklists.offered_items():
            type_id = self.system._type_of(item.instance_id)
            if self.submit(item.item_id, type_id or ""):
                added += 1
        if added:
            with self._mutex:
                self.stats.resyncs += 1
        return added

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until all queues are empty and no item is executing."""
        with self._work:
            return self._work.wait_for(
                lambda: self._inflight == 0 and not any(self._queues.values()),
                timeout=timeout,
            )

    def drain(self, timeout: Optional[float] = None) -> PoolStats:
        """Complete all outstanding work, stop the workers, return stats.

        Loops ``wait_idle`` + :meth:`resync` until a resync finds nothing
        new — completions by the pool itself, by concurrent façade calls
        and by migrations are all driven to quiescence.  ``timeout``
        bounds the *whole* drain (idle waits and resync rounds together),
        so a pathological requeue cycle raises instead of spinning.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining: Optional[float] = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("worker pool did not drain in time")
            if not self.wait_idle(timeout=remaining):
                raise TimeoutError("worker pool did not become idle in time")
            if self.resync() == 0:
                break
        self.stop()
        return self.stats

    def stop(self) -> None:
        """Stop the worker threads (outstanding queue entries are dropped)."""
        with self._work:
            self._stopping = True
            self._work.notify_all()
        for thread in self._threads:
            thread.join()
        self._threads = []

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self._started and self._threads:
            self.stop()

    # ------------------------------------------------------------------ #
    # worker loop
    # ------------------------------------------------------------------ #

    def _next_item(self, worker_index: int) -> Optional[str]:
        """Pop the next item: own types first, then steal (blocking)."""
        with self._work:
            while True:
                if self._stopping:
                    return None
                order = self._type_order
                if order:
                    count = len(order)
                    start = worker_index % count
                    for offset in range(count):
                        type_id = order[(start + offset) % count]
                        queue = self._queues.get(type_id)
                        if queue:
                            item_id = queue.popleft()
                            self._queued.discard(item_id)
                            self._inflight += 1
                            if offset and count > 1:
                                self.stats.steals += 1
                            return item_id
                self._work.wait()

    def _finish_item(self) -> None:
        with self._work:
            self._inflight -= 1
            self._work.notify_all()

    def _run_worker(self, index: int) -> None:
        from repro.runtime.engine import EngineError

        user = f"{self.user_prefix}-{index}"
        system = self.system
        worker_fn = self.worker_fn
        while True:
            item_id = self._next_item(index)
            if item_id is None:
                return
            try:
                try:
                    node, data = system._claim_work(item_id, user)
                except EngineError:
                    # withdrawn, claimed by someone else, or its case was
                    # deleted — the atomic claim makes this a clean no-op
                    with self._mutex:
                        self.stats.stale_claims += 1
                    continue
                worker = None
                if worker_fn is not None:
                    # the activity's own work: outside the execution lock
                    produced = dict(worker_fn(node, data))
                    worker = lambda node, data: produced  # noqa: E731
                try:
                    item = system._complete_work(item_id, worker)
                except EngineError as exc:
                    with self._mutex:
                        self.stats.errors.append(f"{item_id}: {exc}")
                    continue
                with self._mutex:
                    self.stats.items_completed += 1
                    self.stats.steps_by_worker[user] = (
                        self.stats.steps_by_worker.get(user, 0) + 1
                    )
                # feed the freshly offered items of this case back in
                type_id = system._type_of(item.instance_id)
                for follow_up in system.worklists.offered_items_for_instance(item.instance_id):
                    self.submit(follow_up.item_id, type_id or "")
            except Exception as exc:  # pragma: no cover - defensive
                with self._mutex:
                    self.stats.errors.append(f"{item_id}: {exc!r}")
            finally:
                self._finish_item()


# --------------------------------------------------------------------------- #
# the background rollout sweeper
# --------------------------------------------------------------------------- #


class RolloutSweeper:
    """Background thread draining the residue of a progressive rollout.

    Repeatedly calls ``system.sweep_rollout(type_id, max_cases=batch)``
    and sleeps ``interval`` between rounds, until the rollout leaves its
    active states (completed or rolled back) or :meth:`stop` is called.
    The bounded batch per round is what keeps the drain from starving
    case execution: each sweep is one operation of the system, holding
    the execution lock for at most ``batch`` cases.
    """

    def __init__(
        self,
        system: Any,
        type_id: str,
        batch: int = 256,
        interval: float = 0.02,
    ) -> None:
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.system = system
        self.type_id = type_id
        self.batch = batch
        self.interval = interval
        self.swept = 0
        self.rounds = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "RolloutSweeper":
        if self._thread is not None:
            raise RuntimeError("rollout sweeper is already started")
        self._thread = threading.Thread(
            target=self._run, name=f"rollout-sweeper-{self.type_id}", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.is_set():
            swept = self.system.sweep_rollout(self.type_id, max_cases=self.batch)
            self.rounds += 1
            self.swept += swept
            if self.system.rollout_of(self.type_id) is None:
                return  # completed or rolled back — nothing left to drain
            if self._stop.wait(self.interval):
                return

    def stop(self, timeout: Optional[float] = None) -> None:
        """Stop the sweeper thread and join it."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def __enter__(self) -> "RolloutSweeper":
        return self.start() if self._thread is None else self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.stop()


# --------------------------------------------------------------------------- #
# deterministic scheduling for the test harness
# --------------------------------------------------------------------------- #


class VirtualScheduler:
    """Seeded cooperative scheduler: concurrency with replayable schedules.

    ``run([fn1, fn2, ...])`` executes every function on its own (real)
    thread, but only one thread is runnable at any moment.  Each function
    receives no arguments and calls :meth:`switch` between its logical
    operations; at every switch point the scheduler picks the next
    runnable thread with a seeded RNG.  Because exactly one thread runs
    between switch points, the whole interleaving — and therefore any
    failure it provokes — is a pure function of the seed.

    Functions must not hold locks across switch points (a façade
    operation holds the execution lock only while it runs); a thread
    blocking on a lock held by a paused thread would stall the schedule.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._cond = threading.Condition()
        self._runnable: List[int] = []
        self._current: Optional[int] = None
        self._idents: Dict[int, int] = {}
        self._failures: List[BaseException] = []
        self.switches = 0

    def switch(self) -> None:
        """Yield control; the scheduler picks who runs next (maybe me)."""
        me = self._idents[threading.get_ident()]
        with self._cond:
            self.switches += 1
            self._current = self._rng.choice(self._runnable)
            self._cond.notify_all()
            while self._current != me:
                self._cond.wait()

    def _wrapped(self, index: int, fn: Callable[[], Any]) -> None:
        self._idents[threading.get_ident()] = index
        with self._cond:
            while self._current != index:
                self._cond.wait()
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - reported by run()
            self._failures.append(exc)
        finally:
            with self._cond:
                self._runnable.remove(index)
                if self._runnable:
                    self._current = self._rng.choice(self._runnable)
                else:
                    self._current = None
                self._cond.notify_all()

    def run(self, functions: Sequence[Callable[[], Any]], timeout: float = 120.0) -> None:
        """Execute ``functions`` under the deterministic schedule.

        Raises the first exception any function raised (after all
        threads finished), or ``TimeoutError`` when the schedule stalls.
        """
        if not functions:
            return
        threads = [
            threading.Thread(target=self._wrapped, args=(index, fn), daemon=True)
            for index, fn in enumerate(functions)
        ]
        self._runnable = list(range(len(functions)))
        for thread in threads:
            thread.start()
        # all threads park on the condition first; release the first one
        with self._cond:
            self._current = self._rng.choice(self._runnable)
            self._cond.notify_all()
        for thread in threads:
            thread.join(timeout=timeout)
            if thread.is_alive():
                raise TimeoutError(
                    "virtual schedule stalled (a function blocked across a switch point?)"
                )
        if self._failures:
            raise self._failures[0]
