"""Persistence benchmark: recovery time and journaling overhead.

Measures what the durability layer was built for:

* **recovery time** — ``AdeptSystem.open`` against a store holding a
  populated system, once from a pure WAL (crash without checkpoint) and
  once from a snapshot (clean checkpoint), including the recovered
  steps/sec a resumed population achieves;
* **journaling overhead** — ``step_many()`` on a durable system against
  the in-memory façade.

Stepping over a store larger than the live cache is the ``batch``
workload of ``benchmarks/e2e`` (absolute numbers, no ratio gate).

Rows land in ``benchmarks/results/BENCH_persistence.txt``.

Smoke mode (``BENCH_SMOKE=1``): tiny populations and no timing
assertions — CI uses it to keep the harness runnable without paying for
(or flaking on) real measurements.
"""

import os
import time

import pytest

from benchmarks.conftest import gate_result, write_rows
from repro.schema import templates
from repro.system import AdeptSystem

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

EXPERIMENT = "BENCH_persistence"

RECOVERY_POPULATION = 20 if SMOKE else 1_000


def _populate(system, count):
    orders = system.deploy(templates.online_order_process())
    return orders, [orders.start().instance_id for _ in range(count)]


def _steps_per_second(system, ids, steps):
    started = time.perf_counter()
    results = system.step_many(ids, steps=steps)
    elapsed = time.perf_counter() - started
    executed = sum(result.steps for result in results)
    return executed / elapsed if elapsed else float("inf")


def test_recovery_time_wal_vs_snapshot(tmp_path):
    """Wall time of AdeptSystem.open from a WAL suffix vs from a snapshot."""
    store = str(tmp_path / "store")
    system = AdeptSystem.open(store)
    orders, ids = _populate(system, RECOVERY_POPULATION)
    system.step_many(ids, steps=2)
    wal_records = len(system.backend.wal_records())
    system.backend.close()  # crash: recovery must replay the whole WAL

    started = time.perf_counter()
    recovered = AdeptSystem.open(store)
    wal_recovery_seconds = time.perf_counter() - started
    assert recovered.last_recovery.replayed_records == wal_records

    recovered.checkpoint()
    recovered.close(checkpoint=False)
    started = time.perf_counter()
    snapshotted = AdeptSystem.open(store)
    snapshot_recovery_seconds = time.perf_counter() - started
    assert snapshotted.last_recovery.snapshot_loaded
    assert snapshotted.last_recovery.replayed_records == 0

    resumed_rate = _steps_per_second(snapshotted, ids, 1)
    snapshotted.close(checkpoint=False)
    write_rows(
        EXPERIMENT,
        f"recovery time ({RECOVERY_POPULATION} cases, {wal_records} WAL records)",
        [
            {
                "recovery path": "WAL replay (crash)",
                "seconds": f"{wal_recovery_seconds:.3f}",
                "records": wal_records,
            },
            {
                "recovery path": "snapshot (checkpoint)",
                "seconds": f"{snapshot_recovery_seconds:.3f}",
                "records": 0,
            },
            {
                "recovery path": "resumed steps/sec",
                "seconds": f"{resumed_rate:.0f}",
                "records": "",
            },
        ],
        gate=gate_result(
            "snapshot_vs_wal_recovery_ratio",
            1.0,
            (snapshot_recovery_seconds / wal_recovery_seconds)
            if wal_recovery_seconds
            else 0.0,
            higher_is_better=False,
        ),
    )
    # the hard "snapshot beats WAL replay" gate lives in the stress-marked
    # test below — wall-clock comparisons flake when the full tier-1 run
    # shares the machine; here the ratio is only recorded


@pytest.mark.stress
def test_recovery_snapshot_beats_wal_gate(tmp_path):
    """Hard timing gate (dedicated stress job only): a snapshot bounds
    recovery — it must beat replaying the full log.  Best-of-three."""
    outcomes = []
    for attempt in range(3):
        store = str(tmp_path / f"store_{attempt}")
        system = AdeptSystem.open(store)
        _, ids = _populate(system, RECOVERY_POPULATION)
        system.step_many(ids, steps=2)
        system.backend.close()

        started = time.perf_counter()
        recovered = AdeptSystem.open(store)
        wal_recovery_seconds = time.perf_counter() - started

        recovered.checkpoint()
        recovered.close(checkpoint=False)
        started = time.perf_counter()
        snapshotted = AdeptSystem.open(store)
        snapshot_recovery_seconds = time.perf_counter() - started
        snapshotted.close(checkpoint=False)
        outcomes.append((snapshot_recovery_seconds, wal_recovery_seconds))
        if snapshot_recovery_seconds < wal_recovery_seconds:
            return
    raise AssertionError(
        f"snapshot recovery never beat WAL replay: {outcomes}"
    )


def test_durable_stepping_overhead(tmp_path):
    """Journaling every step to the WAL: overhead over the in-memory façade."""
    population = 20 if SMOKE else 2_000
    plain = AdeptSystem()
    _, plain_ids = _populate(plain, population)
    durable = AdeptSystem.open(str(tmp_path / "store"))
    _, durable_ids = _populate(durable, population)

    plain_rate = _steps_per_second(plain, plain_ids, 2)
    durable_rate = _steps_per_second(durable, durable_ids, 2)
    durable.close()
    write_rows(
        EXPERIMENT,
        f"WAL journaling overhead ({population} cases)",
        [
            {
                "system": "in-memory",
                "steps/s": f"{plain_rate:.0f}",
            },
            {
                "system": "durable (journaled)",
                "steps/s": f"{durable_rate:.0f}",
            },
        ],
    )
