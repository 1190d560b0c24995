"""A rollout sweep pays its fixed costs per call, not per case.

``sweep_rollout`` is one operation: it holds the system's execution lock
for the whole call and journals inside one commit scope of the
persistence backend: the WAL still gets one ``rollout_migrated`` record
per adopted case, but they are written and flushed once, after the lock
is released and before the call returns.  A checkpoint that arrives
meanwhile gets in after the sweep's last case and covers its records.
Stored cases that need a look (first of their class, biased) are decided
on a scratch copy that never enters the live cache.
"""

import threading
import time

import pytest

from repro import AdeptSystem
from repro.runtime.engine import EngineError
from repro.schema import templates
from repro.system.persistence import KIND_ROLLOUT_MIGRATED


def _population(system, cases=40, levels=5, biased_every=7):
    """Cases of one type at ``levels`` progress levels, a few biased alike.

    A second type's cases are started last, so with a small live cache
    every case of the first type is store-resident.
    """
    handle = system.deploy(templates.sequential_process(length=6))
    ids = []
    for index in range(cases):
        case = handle.start()
        ids.append(case.instance_id)
        system.step_many([case.instance_id], steps=index % levels)
        if index % biased_every == 0:
            system.change(case.instance_id, comment="dev").serial_insert(
                "extra", pred="step_5", succ="step_6"
            ).apply()
    other = system.deploy(templates.online_order_process())
    for _ in range(system.cache_instances or 0):
        other.start()
    return handle, ids


def _change():
    from repro import ChangeSet

    return ChangeSet().serial_insert("review", pred="step_2", succ="step_3")


def _migrated_records(system):
    return [
        record["instance_id"]
        for record in system.backend.wal_records()
        if record["kind"] == KIND_ROLLOUT_MIGRATED
    ]


def _fingerprints(system, ids):
    return {instance_id: system.get_instance(instance_id).state_fingerprint() for instance_id in ids}


def _checkpoint_at_case(system, case):
    """Start a checkpoint on a thread once the sweep has decided ``case`` cases.

    The sweep's thread waits, still inside that case, until the
    checkpoint thread is about to call ``checkpoint()``.  Returns the
    list the checkpoint appends the number of cases decided by then to
    (once it holds the lock and writes its snapshot), and the thread.
    """
    decided = []
    got_in = []
    calling = threading.Event()
    original = system.evolution.adopt
    write_snapshot = system.backend.write_snapshot

    def run_checkpoint():
        system.backend.write_snapshot = lambda s: (got_in.append(len(decided)), write_snapshot(s))
        calling.set()
        system.checkpoint()

    thread = threading.Thread(target=run_checkpoint, daemon=True)

    def adopt(rollout, instance_id, instance=None):
        result = original(rollout, instance_id, instance)
        decided.append(instance_id)
        if len(decided) == case:
            thread.start()
            assert calling.wait(timeout=10), "the checkpoint never started"
            time.sleep(0.05)  # time to reach the lock; nothing is asserted on it
        return result

    system.evolution.adopt = adopt
    return got_in, thread


class TestOneCommitPerSweep:
    def test_one_record_per_adopted_case_in_residue_order_and_one_flush(self, tmp_path):
        system = AdeptSystem.open(str(tmp_path / "store"), cache_instances=4)
        handle, ids = _population(system)
        rollout = system.evolve(handle.type_id, _change(), rollout="lazy")
        residue = system.evolution.residue(rollout)
        records_before = len(_migrated_records(system))
        flushes_before = system.backend.wal.flush_count

        swept = system.sweep_rollout(handle.type_id, max_cases=len(residue) - 3)

        assert swept == len(residue) - 3
        adopted_in_order = [i for i in residue[:swept] if i in rollout.adopted]
        assert adopted_in_order  # the population has compliant cases
        assert _migrated_records(system)[records_before:] == adopted_in_order
        assert system.backend.wal.flush_count == flushes_before + 1
        # committed before the call returned: the file already holds them
        assert len(system.backend.wal) == system.backend.wal.append_count
        system.close()

    def test_completing_sweep_commits_its_completion_record_with_the_adoptions(
        self, tmp_path
    ):
        system = AdeptSystem.open(str(tmp_path / "store"), cache_instances=4)
        handle, ids = _population(system)
        system.evolve(handle.type_id, _change(), rollout="lazy")
        flushes_before = system.backend.wal.flush_count
        system.sweep_rollout(handle.type_id, max_cases=len(ids))
        assert system.rollout_of(handle.type_id) is None
        assert system.backend.wal_records()[-1]["kind"] == "rollout_completed"
        assert system.backend.wal.flush_count == flushes_before + 1
        system.close()

    @pytest.mark.parametrize("failing_case", [1, 6, 17])
    def test_failure_at_the_kth_case_keeps_the_adoptions_before_it(
        self, tmp_path, failing_case
    ):
        store = str(tmp_path / "store")
        system = AdeptSystem.open(store, cache_instances=4)
        handle, ids = _population(system)
        rollout = system.evolve(handle.type_id, _change(), rollout="lazy")
        residue = system.evolution.residue(rollout)
        original = system.evolution._migrate_case
        calls = []

        def migrate_case(instance_id, *args, **kwargs):
            calls.append(instance_id)
            if len(calls) == failing_case:
                raise RuntimeError("injected")
            return original(instance_id, *args, **kwargs)

        system.evolution._migrate_case = migrate_case
        with pytest.raises(RuntimeError, match="injected"):
            system.sweep_rollout(handle.type_id)

        before = residue[: failing_case - 1]
        assert calls[:-1] == before
        assert _migrated_records(system) == [i for i in before if i in rollout.adopted]
        expected = _fingerprints(system, ids)
        system.backend.close()  # crash: the scope committed on its way out

        recovered = AdeptSystem.open(store, cache_instances=4)
        try:
            assert _fingerprints(recovered, ids) == expected
            assert recovered.rollout_of(handle.type_id).adopted == rollout.adopted
        finally:
            recovered.close()


class TestScratchDecisions:
    @pytest.mark.parametrize("rollout", ["eager", "lazy"])
    def test_a_fully_evicted_population_migrates_without_entering_the_cache(self, rollout):
        system = AdeptSystem(cache_instances=4)
        handle, ids = _population(system)
        live_before = system.live_instance_ids()
        assert not set(live_before) & set(ids)
        loads = []
        load = system.store.load
        system.store.load = lambda instance_id: loads.append(instance_id) or load(instance_id)
        evicted = []
        system.bus.subscribe(
            lambda event: evicted.append(event.instance_id)
            if event.name == "instance_evicted"
            else None
        )
        if rollout == "eager":
            report = system.evolve(handle.type_id, _change())
            assert report.migrated_count > 0
        else:
            system.evolve(handle.type_id, _change(), rollout="lazy")
            while system.rollout_of(handle.type_id) is not None:
                assert system.sweep_rollout(handle.type_id, max_cases=9) > 0
        assert loads  # first-of-class and biased cases were looked at
        assert system.live_instance_ids() == live_before
        assert evicted == []

    def test_scratch_decided_case_is_written_back_and_offered_its_new_work(self):
        system = AdeptSystem(cache_instances=4)
        handle, ids = _population(system)
        report = system.evolve(handle.type_id, _change())
        fresh = ids[1]  # one step in: compliant, step_2 offered
        assert fresh in report.migrated_instances
        record = system.store.record(fresh)
        assert record["schema_version"] == report.to_version
        offered = {item.activity_id for item in system.worklists.items_for_instance(fresh)}
        assert offered == {"step_2"}
        assert system.get_instance(fresh).schema_version == report.to_version

    def test_unknown_id_raises_the_canonical_engine_error(self):
        system = AdeptSystem(cache_instances=4)
        handle, _ = _population(system, cases=6)
        rollout = system.evolve(handle.type_id, _change(), rollout="lazy")
        with pytest.raises(EngineError, match="unknown instance"):
            system.evolution._migrate_case(
                "no-such-case", rollout.type_change, rollout.plan, rollout.cache
            )


class TestCheckpointVersusSweep:
    def test_checkpoint_through_the_sweep_loses_no_adoption(self, tmp_path):
        store = str(tmp_path / "store")
        system = AdeptSystem.open(store, cache_instances=4)
        handle, ids = _population(system)
        rollout = system.evolve(handle.type_id, _change(), rollout="lazy")
        flushes_before = system.backend.wal.flush_count

        got_in, thread = _checkpoint_at_case(system, 12)
        assert system.sweep_rollout(handle.type_id, max_cases=30) == 30
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert got_in == [30]  # the checkpoint got in after the sweep's last case
        # the sweep's records reached the WAL in one flush (its own commit
        # or the checkpoint's), and the snapshot covers every one of them
        assert system.backend.wal.flush_count == flushes_before + 1
        assert _migrated_records(system) == []
        adopted = set(rollout.adopted)
        expected = _fingerprints(system, ids)
        system.backend.close()

        recovered = AdeptSystem.open(store, cache_instances=4)
        try:
            assert recovered.last_recovery.snapshot_loaded
            assert recovered.rollout_of(handle.type_id).adopted == adopted
            assert _fingerprints(recovered, ids) == expected
        finally:
            recovered.close()
