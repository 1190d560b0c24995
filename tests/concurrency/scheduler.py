"""A deterministic cooperative scheduler for the concurrency tests.

N logical threads run one at a time and the next runnable thread is
chosen by a seeded RNG at every switch point, so a failing interleaving
replays exactly from its seed.  Imported as ``tests.concurrency.scheduler``
by the lock-order, linearizability and chaos-evolution tests.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence


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
