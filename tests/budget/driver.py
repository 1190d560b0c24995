"""Deterministic cost counts of the product's hot paths: the count gate's ruler.

Timings flip on a noisy host; counts do not.  This module runs small,
fixed versions of the benchmark's workloads in one process and reports
what they cost in units that are the same on every run and under every
``PYTHONHASHSEED``:

* ``calls`` — Python and C calls per ``step_many`` step, counted with
  ``sys.setprofile`` around ten ``step_many(20 ids, steps=2)`` calls
  over 200 ``sequential_process(12)`` cases, once in memory and once
  durable.  They depend on the interpreter (3.12 inlines
  comprehensions), so ``budget.json`` keys them by Python minor version.
* ``counters`` — what the product does per unit of work on a durable
  ``batch``-like run (live cache = a quarter of the cases), a
  ``desk``-like run (one case per request, through a router and an
  in-thread shard server) and an ``evolve``-like run (an eager evolution
  and a lazy rollout over a cached population): WAL records, flushes and
  bytes; hydrations and evictions; bus events delivered; execution-lock
  entries; ring hashes.  They are the same on every interpreter.

It needs no pytest.  Run it from the repository root::

    PYTHONPATH=src python tests/budget/driver.py      # prints the counts as JSON

``record.py`` writes them into ``budget.json``; ``test_budget.py`` fails
when one differs from its budget by more than ``budget.json``'s
tolerance, in either direction.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro import AdeptSystem, ChangeSet  # noqa: E402
from repro.schema import templates  # noqa: E402
from repro.service import ShardRouter, ShardServer, hashring  # noqa: E402
from repro.workloads.schema_generator import (  # noqa: E402
    RandomSchemaGenerator,
    SchemaGeneratorConfig,
)

#: the call probe: ten step_many(20 ids, steps=2) calls over 200 cases
PROBE_CASES = 200
PROBE_CALLS = 10
PROBE_CHUNK = 20
PROBE_STEPS = 2

Counts = Dict[str, float]


def python_version() -> str:
    """The key of this interpreter's call counts in ``budget.json``."""
    return f"{sys.version_info[0]}.{sys.version_info[1]}"


# ---------------------------------------------------------------------- #
# counting instruments
# ---------------------------------------------------------------------- #


@contextmanager
def profiled() -> Iterator[List[int]]:
    """``[python_calls, c_calls]`` made on this thread inside the block.

    The cyclic collector is off inside, so no finaliser it happens to run
    adds calls to the count.
    """
    calls = [0, 0]

    def count(frame: Any, event: str, arg: Any) -> None:
        if event == "call":
            calls[0] += 1
        elif event == "c_call":
            calls[1] += 1

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        yield calls
    finally:
        sys.setprofile(None)
        gc.enable()


class _CountingScope:
    """Stands in for the execution lock's ``with`` scope and counts its entries."""

    def __init__(self, scope: Any) -> None:
        self.scope = scope
        self.entries = 0

    def __enter__(self) -> None:
        self.entries += 1
        self.scope.__enter__()

    def __exit__(self, *exc_info: Any) -> Any:
        return self.scope.__exit__(*exc_info)


class Meter:
    """The product counters of one system, read as differences.

    WAL counters come from the backend's log, hydrations, evictions and
    delivered events from the monitoring feed (the bus's one default
    subscriber), lock entries from a counting wrapper around the
    execution lock's scope.
    """

    def __init__(self, system: AdeptSystem) -> None:
        self.system = system
        self.lock = _CountingScope(system._lock._scope)
        system._lock._scope = self.lock
        self.start = self.read()

    def read(self) -> Dict[str, int]:
        wal = self.system.backend.wal
        names = self.system.feed.counts()
        return {
            "wal_records": wal.append_count,
            "wal_flushes": wal.flush_count,
            "wal_bytes": wal.size_bytes(),
            "hydrations": names.get("instance_loaded", 0),
            "evictions": names.get("instance_evicted", 0),
            "events": sum(names.values()),
            "lock_entries": self.lock.entries,
        }

    def per(self, unit: str, work: int) -> Counts:
        """Every counter's growth since construction, per unit of work."""
        end = self.read()
        counts = {
            f"{name}_per_{unit}": round((end[name] - self.start[name]) / work, 6)
            for name in sorted(end)
        }
        counts[f"{unit}s"] = work
        return counts


# ---------------------------------------------------------------------- #
# the call probe
# ---------------------------------------------------------------------- #


def step_calls(system: AdeptSystem) -> Counts:
    """Python and C calls per step of the probe on ``system``."""
    system.deploy(templates.sequential_process(length=12))
    ids = [system.start("sequence").instance_id for _ in range(PROBE_CASES)]
    chunks = [ids[k * PROBE_CHUNK:(k + 1) * PROBE_CHUNK] for k in range(PROBE_CALLS)]
    step_many = system.step_many
    with profiled() as calls:
        for chunk in chunks:
            step_many(chunk, steps=PROBE_STEPS)
    steps = PROBE_CALLS * PROBE_CHUNK * PROBE_STEPS
    return {
        "python_calls_per_step": round(calls[0] / steps, 4),
        "c_calls_per_step": round(calls[1] / steps, 4),
    }


def call_counts(scratch: str) -> Dict[str, Counts]:
    memory = step_calls(AdeptSystem())
    with AdeptSystem.open(os.path.join(scratch, "probe")) as system:
        durable = step_calls(system)
    return {"memory": memory, "durable": durable}


# ---------------------------------------------------------------------- #
# the product counters
# ---------------------------------------------------------------------- #

BATCH_CASES = 200
BATCH_CALLS = 30
BATCH_CHUNK = 20
BATCH_STEPS = 2


def batch_counters(path: str) -> Counts:
    """Round-robin ``step_many(20 ids, steps=2)`` over 200 cases, cache 50.

    Cases start at staggered progress on a generated AND/XOR schema; a
    finished case is deleted and replaced, as in the ``batch`` workload.
    """
    schema = RandomSchemaGenerator(
        SchemaGeneratorConfig(target_activities=12, loop_probability=0.0), seed=7
    ).generate("bulk")
    system = AdeptSystem.open(path, cache_instances=BATCH_CASES // 4)
    try:
        system.deploy(schema)
        ids = [system.start("bulk", case_id=f"b{slot:04d}").instance_id for slot in range(BATCH_CASES)]
        for level in range(1, 6):
            system.step_many([i for k, i in enumerate(ids) if k % 6 == level], steps=level)
        meter = Meter(system)
        steps = 0
        cursor = 0
        for _ in range(BATCH_CALLS):
            slots = [(cursor + k) % BATCH_CASES for k in range(BATCH_CHUNK)]
            cursor = (cursor + BATCH_CHUNK) % BATCH_CASES
            results = system.step_many([ids[slot] for slot in slots], steps=BATCH_STEPS)
            for slot, result in zip(slots, results):
                steps += result.steps
                if not result.status.is_active:
                    system.delete_instance(ids[slot])
                    ids[slot] = system.start("bulk", case_id=ids[slot] + "+").instance_id
        return meter.per("step", steps)
    finally:
        system.close(checkpoint=False)


DESK_CASES = 24
DESK_ROUNDS = 12
ORDER_LENGTH = 6


@contextmanager
def counted_ring_hashes() -> Iterator[List[int]]:
    """``[hashes]``: positions the hash ring computed (memo misses) in the block."""
    original = hashring._point
    hashes = [0]

    def point(value: str) -> int:
        hashes[0] += 1
        return original(value)

    hashring._point = point
    try:
        yield hashes
    finally:
        hashring._point = original


def desk_counters(path: str) -> Counts:
    """The ``desk`` clerk's request mix through a router and an in-thread shard.

    Rounds of ten requests over 24 resident ``online_order`` cases: six
    one-case ``step_many`` calls, two ``instance_info`` reads and, for
    the case that finished, one ``delete_instance`` and one ``start``.
    """
    server = ShardServer("p0", store=path)
    router = ShardRouter({"p0": server.start_in_thread()})
    try:
        router.deploy(templates.online_order_process().to_dict())
        order = {"sku": "SKU-000001", "quantity": 2}
        ids = [router.start("online_order", case_id=f"d{slot:04d}", order=order) for slot in range(DESK_CASES)]
        for level in range(1, ORDER_LENGTH):
            router.step_many([i for k, i in enumerate(ids) if k % ORDER_LENGTH == level], steps=level)
        progress = [slot % ORDER_LENGTH for slot in range(DESK_CASES)]
        meter = Meter(server.system)
        requests = 0
        cursor = 0
        with counted_ring_hashes() as hashes:
            for round_ in range(DESK_ROUNDS):
                for offset in range(ORDER_LENGTH):
                    slot = (cursor + offset) % DESK_CASES
                    router.step_many([ids[slot]], steps=1)
                    requests += 1
                    progress[slot] += 1
                    if progress[slot] == ORDER_LENGTH:
                        router.clients["p0"].call("delete_instance", instance_id=ids[slot])
                        ids[slot] = router.start("online_order", case_id=ids[slot] + "+", order=order)
                        progress[slot] = 0
                        requests += 2
                    if offset in (1, 3):
                        router.instance_info(ids[(slot * 7 + round_) % DESK_CASES])
                        requests += 1
                cursor = (cursor + ORDER_LENGTH) % DESK_CASES
        counts = meter.per("request", requests)
        counts["ring_hashes_per_request"] = round(hashes[0] / requests, 6)
        return counts
    finally:
        router.close()
        server.stop(checkpoint=False)


EVOLVE_CASES = 80


def evolve_counters(path: str) -> Counts:
    """An eager evolution and a lazy rollout (touched, then swept) over 80 cached cases."""
    system = AdeptSystem.open(path, cache_instances=EVOLVE_CASES // 4)
    try:
        system.deploy(templates.sequential_process(length=8))
        ids = [system.start("sequence", case_id=f"e{slot:04d}").instance_id for slot in range(EVOLVE_CASES)]
        for level in range(1, 6):
            system.step_many([i for k, i in enumerate(ids) if k % 6 == level], steps=level)
        meter = Meter(system)
        report = system.evolve(
            "sequence", ChangeSet().serial_insert("review", pred="step_3", succ="step_4")
        )
        cases = report.total
        system.evolve(
            "sequence",
            ChangeSet().serial_insert("audit", pred="step_6", succ="step_7"),
            rollout="lazy",
        )
        system.step_many(ids[::10], steps=1)
        while system.rollout_of("sequence") is not None:
            cases += system.sweep_rollout("sequence", max_cases=16)
        return meter.per("case", cases)
    finally:
        system.close(checkpoint=False)


# ---------------------------------------------------------------------- #


def measure() -> Dict[str, Any]:
    """Every count this driver takes, as the JSON ``budget.json`` mirrors."""
    with tempfile.TemporaryDirectory(prefix="budget-") as scratch:
        runs: Dict[str, Callable[[str], Counts]] = {
            "batch": batch_counters,
            "desk": desk_counters,
            "evolve": evolve_counters,
        }
        counters = {name: run(os.path.join(scratch, name)) for name, run in runs.items()}
        calls = call_counts(scratch)
    return {"python": python_version(), "calls": calls, "counters": counters}


if __name__ == "__main__":
    print(json.dumps(measure(), indent=2, sort_keys=True))
