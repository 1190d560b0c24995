"""A closed system that its caller drops is garbage, not a leak.

Creating and dropping many systems in one process must not leave the
earlier ones alive behind a module-level registry, a bus subscription,
a worker thread or a cycle the collector cannot free: each would keep
its cases, its indexes and its journal handle for the rest of the
process.
"""

import gc
import weakref

import pytest

from repro import AdeptSystem
from repro.schema.templates import online_order_process


@pytest.mark.parametrize("durable", [False, True], ids=["in_memory", "durable"])
@pytest.mark.parametrize("served", [False, True], ids=["direct", "served"])
def test_a_closed_dropped_system_is_collected(tmp_path, durable, served):
    system = AdeptSystem.open(tmp_path / "db") if durable else AdeptSystem()
    orders = system.deploy(online_order_process())
    ids = [orders.start().instance_id for _ in range(5)]
    system.step_many(ids, steps=2)
    if served:
        system.serve(workers=2)
        system.drain()
    system.close()
    dropped = weakref.ref(system)
    del system, orders

    gc.collect()

    assert dropped() is None
