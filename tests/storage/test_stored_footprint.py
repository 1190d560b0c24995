"""What one stored case costs in memory once its store is open.

A case at rest is a record in the instance store.  Its two append-only
logs — history rows and data writes — are most of it, and nothing reads
them while cases step, so a record keeps each as one compact JSON text
from snapshot load to write-back: it costs its bytes, not one object
per row.  The gate opens a store of cases of the ``batch`` workload's
schema (≈ 45 history rows each), then deletes every record and counts
what that frees, per case: GC-tracked objects and traced bytes.
"""

import gc
import json
import tracemalloc

import pytest

from repro.system import AdeptSystem
from repro.workloads.schema_generator import RandomSchemaGenerator, SchemaGeneratorConfig

CASES = 200
ROWS = 45

#: per stored case; one object per history row and per data write is ≈ 55
MAX_OBJECTS = 25
MAX_BYTES = 6 * 1024


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """``CASES`` stored copies of one case stepped to ``ROWS`` history rows."""
    path = tmp_path_factory.mktemp("footprint")
    system = AdeptSystem.open(str(path))
    config = SchemaGeneratorConfig(target_activities=44, loop_probability=0.0)
    system.deploy(RandomSchemaGenerator(config, seed=7).generate("batch_type"))
    system.start("batch_type", case_id="template")
    while len(system.get_instance("template").history) < ROWS:
        system.step_many(["template"], steps=1)
    system.save("template")
    text = json.dumps(system.store.record("template"))
    system.delete_instance("template")
    for number in range(CASES):
        record = json.loads(text)
        record["instance_id"] = f"case-{number:03d}"
        system.store.put_record(record)
    system.checkpoint()
    system.close(checkpoint=False)
    return str(path)


def test_a_stored_case_costs_its_bytes_not_its_objects(store):
    gc.collect()
    tracemalloc.start()
    try:
        system = AdeptSystem.open(store, cache_instances=4)
        # only the records the store holds: every case is at rest
        system.close(checkpoint=False)
        ids = system.stored_instance_ids()
        assert len(ids) == CASES
        gc.collect()
        objects, traced = len(gc.get_objects()), tracemalloc.get_traced_memory()[0]
        for case_id in ids:
            system.store.delete(case_id)
        gc.collect()
        freed_objects = objects - len(gc.get_objects())
        freed_bytes = traced - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed_objects / CASES <= MAX_OBJECTS
    assert freed_bytes / CASES <= MAX_BYTES

