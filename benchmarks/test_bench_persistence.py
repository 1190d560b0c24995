"""Recovery from a WAL suffix and from a snapshot.

A crash without checkpoint replays every journal record on reopen; a
checkpoint bounds recovery to loading the snapshot with nothing left to
replay, and the recovered population steps on.  Recovery time and
stepping throughput are measured by ``benchmarks/e2e``.
"""

from repro.schema import templates
from repro.system import AdeptSystem


def test_recovery_time_wal_vs_snapshot(tmp_path):
    store = str(tmp_path / "store")
    system = AdeptSystem.open(store)
    orders = system.deploy(templates.online_order_process())
    ids = [orders.start().instance_id for _ in range(200)]
    system.step_many(ids, steps=2)
    wal_records = len(system.backend.wal_records())
    system.backend.close()  # crash: recovery must replay the whole WAL

    recovered = AdeptSystem.open(store)
    assert recovered.last_recovery.replayed_records == wal_records
    expected = {i: recovered.get_instance(i).state_fingerprint() for i in ids}
    recovered.checkpoint()
    recovered.close(checkpoint=False)

    snapshotted = AdeptSystem.open(store)
    try:
        assert snapshotted.last_recovery.snapshot_loaded
        assert snapshotted.last_recovery.replayed_records == 0
        assert all(snapshotted.get_instance(i).state_fingerprint() == expected[i] for i in ids)
        assert sum(result.steps for result in snapshotted.step_many(ids, steps=1)) == len(ids)
    finally:
        snapshotted.close(checkpoint=False)
