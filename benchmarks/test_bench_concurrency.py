"""Evolve under full load, judged by the write-ahead log.

A durable system serves 8 workers while the main thread issues an
``evolve`` with compliant migration.  Afterwards the journal holds one
complete-record per performed item, with unique ordered sequence
numbers, and a fresh ``AdeptSystem.open`` that replays it sequentially
reproduces every case's fingerprint bit for bit — any lost, doubled or
mis-migrated step would diverge.  Exactly the migrated set runs on the
new version.  Throughput under concurrency is measured by
``benchmarks/e2e``.
"""

import threading

from repro.schema import templates
from repro.system import AdeptSystem, simulated_latency_worker
from repro.workloads.order_process import order_type_change_v2

POPULATION = 400
#: cases advanced past the change region before serving starts — they
#: must show up as migration conflicts, not silently migrate
ADVANCED = 120


def test_evolve_under_full_load_is_exact(tmp_path):
    store = str(tmp_path / "store")
    system = AdeptSystem.open(store)
    orders = system.deploy(templates.online_order_process())
    ids = [orders.start().instance_id for _ in range(POPULATION)]
    warmup = system.step_many(ids[:ADVANCED], steps=4)

    loaded = threading.Event()
    calls = []
    blocking = simulated_latency_worker(0.0005)

    def worker(node, data):
        calls.append(node)
        if len(calls) == 32:
            loaded.set()
        return blocking(node, data)

    system.serve(workers=8, worker=worker)
    assert loaded.wait(timeout=60)  # evolve while the pool is busy
    report = orders.evolve(order_type_change_v2())
    stats = system.drain()
    assert not stats.errors, stats.errors

    assert report.total == POPULATION
    assert 0 < report.migrated_count < report.total
    migrated_ids = {r.instance_id for r in report.results if r.migrated}
    on_new_version = {h.instance_id for h in orders.instances(version=report.to_version)}
    assert on_new_version == migrated_ids

    records = system.backend.wal_records()
    completions = [r for r in records if r["kind"] == "step" and r["action"] == "complete"]
    assert len(completions) == stats.items_completed + sum(r.steps for r in warmup)
    seqs = [r["seq"] for r in records]
    assert len(seqs) == len(set(seqs)) and seqs == sorted(seqs)

    expected = {i: system.get_instance(i).state_fingerprint() for i in ids}
    system.backend.close()
    recovered = AdeptSystem.open(store)
    try:
        mismatches = [
            i for i in ids if recovered.get_instance(i).state_fingerprint() != expected[i]
        ]
        assert not mismatches, f"{len(mismatches)} case(s) diverge after WAL replay"
        assert recovered.repository.versions_of(orders.type_id) == [1, report.to_version]
    finally:
        recovered.backend.close()
