"""Concurrency primitives of the :class:`~repro.system.AdeptSystem` façade.

ADEPT2's central claim is correctness of dynamic change *while cases are
running*.  For that claim to mean anything, many cases must actually be
able to run at once — this module provides the primitives that let one
``AdeptSystem`` be driven safely from many threads:

* :class:`LockTable` — striped per-instance locks.  Every execution or
  mutation of one case holds its stripe; multi-id acquisitions take the
  deduplicated stripes in one canonical order, so they can never
  deadlock against each other.
* :class:`RWLock` — a write-preferring read-write lock.  The façade keeps
  one per process type: ``step``/``step_many``/ad-hoc changes take the
  *read* side and proceed in parallel, ``evolve`` takes the *write* side
  and thereby quiesces exactly the affected type while other types keep
  executing.
* :class:`WorkerPool` — the parallel worklist scheduler behind
  ``system.serve(workers=N)`` / ``system.drain()``.  Workers claim
  offered work items from per-type queues (atomic claim — an item is
  performed exactly once) and steal from other types' queues when their
  own run dry.
* :class:`VirtualScheduler` — a deterministic cooperative scheduler for
  the concurrency test harness: N logical threads run one at a time and
  the next runnable thread is chosen by a seeded RNG at every switch
  point, so a failing interleaving replays exactly from its seed.

The façade's lock hierarchy (documented in ``docs/architecture.md``) is:
schema lock → per-type RW locks → instance stripes → leaves (the
live-registry lock, the worklist-manager lock, storage/bus internals).
Locks are only ever acquired downwards.
"""

from __future__ import annotations

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
    Tuple,
)
from zlib import crc32

__all__ = [
    "LockTable",
    "RWLock",
    "WorkerPool",
    "PoolStats",
    "RolloutSweeper",
    "VirtualScheduler",
    "simulated_latency_worker",
]


class LockTable:
    """Striped reentrant locks keyed by (instance) id.

    Ids hash onto a fixed number of stripes; acquiring "the lock of an
    id" acquires its stripe.  :meth:`holding` accepts many ids and
    acquires the deduplicated stripes in ascending stripe order — the
    canonical order that makes multi-id acquisition deadlock free.
    """

    def __init__(self, stripes: int = 64) -> None:
        if stripes < 1:
            raise ValueError("stripes must be >= 1")
        self._stripes: Tuple[threading.RLock, ...] = tuple(
            threading.RLock() for _ in range(stripes)
        )
        self._scopes: Tuple[_StripeScope, ...] = tuple(
            _StripeScope((lock,)) for lock in self._stripes
        )

    def __len__(self) -> int:
        return len(self._stripes)

    def _stripe_index(self, key: str) -> int:
        # a stable, cheap string hash (hash() is randomised per process,
        # which is fine within one process but worth avoiding for
        # reproducible stress runs under PYTHONHASHSEED experiments)
        return crc32(key.encode()) % len(self._stripes)

    def lock_for(self, key: str) -> threading.RLock:
        """The stripe lock guarding ``key``."""
        return self._stripes[self._stripe_index(key)]

    def holding(self, *keys: str) -> "_StripeScope":
        """Hold the stripes of all ``keys``, acquired in canonical order.

        The single stripe-acquisition entry point: a ``with`` scope that
        takes each distinct stripe once, in ascending stripe order, and
        releases them in reverse.  One key needs no set or sort — its
        stripe's scope is preallocated.
        """
        if len(keys) == 1:
            return self._scopes[self._stripe_index(keys[0])]
        stripes = self._stripes
        return _StripeScope(
            tuple(stripes[index] for index in sorted({self._stripe_index(key) for key in keys}))
        )

    def try_acquire(self, key: str) -> bool:
        """Non-blocking acquire of one key's stripe (used by eviction)."""
        return self.lock_for(key).acquire(blocking=False)

    def release(self, key: str) -> None:
        self.lock_for(key).release()


class RWLock:
    """A write-preferring readers/writer lock.

    Many readers may hold the lock at once; a writer holds it alone.
    Once a writer is waiting, new readers queue behind it — ``evolve``
    must be able to quiesce a type under a steady stream of steps.

    The lock is not reentrant across modes (a reader must not request
    the write side); the façade's lock hierarchy never needs that.  The
    read side is on every step's path: its condition sits on a plain
    (non-reentrant) lock, and a reader leaving wakes the waiters only
    when a writer is among them — readers never wait on readers.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._readers = 0
        self._writer: Optional[int] = None
        self._waiting_writers = 0
        self._read_scope = _Scope(self.acquire_read, self.release_read)
        self._write_scope = _Scope(self.acquire_write, self.release_write)

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer is not None or self._waiting_writers:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0 and self._waiting_writers:
                self._cond.notify_all()

    @property
    def writer_waiting(self) -> bool:
        """True while a writer queues for the lock (an unlocked, cheap read).

        A reader that holds the lock across many short units of work (the
        rollout sweep) checks this between two units and, when it is set,
        releases and re-acquires the read side — the re-acquisition queues
        behind the writer, so the writer waits at most one unit.
        """
        return self._waiting_writers != 0

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            self._waiting_writers += 1
            try:
                while self._readers or self._writer is not None:
                    self._cond.wait()
            finally:
                self._waiting_writers -= 1
            self._writer = me

    def release_write(self) -> None:
        with self._cond:
            self._writer = None
            self._cond.notify_all()

    def read(self) -> "_Scope":
        """The shared side as a ``with`` scope."""
        return self._read_scope

    def write(self) -> "_Scope":
        """The exclusive side as a ``with`` scope."""
        return self._write_scope


# The scopes are plain objects, not generator-based context managers: they
# are entered once per case on the migration and execution paths, where a
# generator frame per entry is measurable.  Their state lives in the locks
# they wrap, so each side of an RWLock and each single stripe keeps one
# scope object for every entry, on every thread.


class _StripeScope:
    """Holds a sorted tuple of distinct stripe locks for one ``with`` body."""

    __slots__ = ("_locks",)

    def __init__(self, locks: Tuple[threading.RLock, ...]) -> None:
        self._locks = locks

    def __enter__(self) -> None:
        locks = self._locks
        taken = 0
        try:
            for lock in locks:
                lock.acquire()
                taken += 1
        except BaseException:
            for lock in reversed(locks[:taken]):
                lock.release()
            raise

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        for lock in reversed(self._locks):
            lock.release()


class _Scope:
    """A ``with`` scope over one acquire/release pair (a side of an RWLock)."""

    __slots__ = ("_acquire", "_release")

    def __init__(self, acquire: Callable[[], None], release: Callable[[], None]) -> None:
        self._acquire = acquire
        self._release = release

    def __enter__(self) -> None:
        self._acquire()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._release()


# --------------------------------------------------------------------------- #
# the parallel worklist scheduler
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
    services, wait on humans, read documents.  During that time the case
    holds no engine resources and other cases can proceed; this worker
    reproduces that profile by sleeping ``seconds`` (releasing the GIL)
    before producing outputs.  The concurrency benchmark uses it: worker
    threads overlap the blocked portion of activity execution, which is
    exactly where a multi-worker runtime multiplies throughput.
    """
    import time

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
        worklists = self.system.worklists
        while True:
            item_id = self._next_item(index)
            if item_id is None:
                return
            try:
                try:
                    # the pool executes items as the system scheduler, not
                    # as a named human — org-model roles gate *human*
                    # worklists; enforcing them here would livelock drain()
                    # on any role-restricted item (failed claim → still
                    # offered → re-queued by the next resync, forever)
                    worklists.claim(item_id, user, enforce_roles=False)
                except EngineError:
                    # withdrawn, claimed by someone else, or its case was
                    # deleted — the atomic claim makes this a clean no-op
                    with self._mutex:
                        self.stats.stale_claims += 1
                    continue
                try:
                    item = worklists.complete(
                        item_id, auto_outputs=True, worker=self.worker_fn
                    )
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
                type_id = self.system._type_of(item.instance_id)
                for follow_up in worklists.offered_items_for_instance(item.instance_id):
                    self.submit(follow_up.item_id, type_id or "")
                # a touch inside the completion may have tipped a canary
                # rollout over its decision point; the worker executes the
                # pending promote/rollback here, outside every lock
                self.system._drain_rollout_actions()
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
    case execution: each sweep touches at most ``batch`` cases.  A sweep
    holds its type's read lock (shared with every step of the type) for
    the round and yields it to a waiting writer between two cases, and
    each case's stripe only while that case is decided.
    The sweeper also executes pending canary decisions — it calls into
    the façade holding no locks, the safe point for a promote/rollback.
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

    Functions must not hold locks across switch points (the façade's
    public operations never do); a thread blocking on a lock held by a
    paused thread would stall the schedule.
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
