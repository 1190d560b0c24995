"""A stepping call pays one WAL write + flush, not one per completed activity.

``step_many``, ``run`` and ``complete`` are operations: each holds the
system's execution lock for the whole call and journals inside one
commit scope of the persistence backend.  The WAL still gets one
``step`` record per completed activity, enqueued at its step, under the
lock, with the same ``seq`` and bytes as when every record was flushed
on its own; they are written and flushed once, after the lock is
released and before the call returns — also when the call raises.
"""

import threading
from contextlib import nullcontext

import pytest

from repro import AdeptSystem
from repro.runtime.engine import EngineError
from repro.schema import templates
from repro.storage.wal import WriteAheadLog
from repro.system.persistence import KIND_STEP


def _steps(system):
    return [record for record in system.backend.wal_records() if record["kind"] == KIND_STEP]


def _fingerprints(system, ids):
    return {instance_id: system.get_instance(instance_id).state_fingerprint() for instance_id in ids}


def _schedule(system):
    """Start six order cases, then step, complete and run them; returns the ids."""
    orders = system.deploy(templates.online_order_process())
    ids = [orders.start().instance_id for _ in range(6)]
    system.step_many(ids, steps=2)
    system.complete(ids[0], system.activated(ids[0])[0], user="alice")
    system.run(ids[1])
    return ids


class TestOneFlushPerCall:
    def test_step_many_over_several_cases_flushes_once(self, tmp_path):
        system = AdeptSystem.open(tmp_path / "db")
        orders = system.deploy(templates.online_order_process())
        ids = [orders.start().instance_id for _ in range(5)]
        wal = system.backend.wal
        records, appended, flushed = len(_steps(system)), wal.append_count, wal.flush_count

        results = system.step_many(ids, steps=3)

        steps = sum(result.steps for result in results)
        assert steps == 15
        assert [r["instance_id"] for r in _steps(system)[records:]] == [
            instance_id for instance_id in ids for _ in range(3)
        ]
        assert (wal.append_count, wal.flush_count) == (appended + steps, flushed + 1)
        assert len(wal) == wal.append_count  # committed before the call returned
        system.close()

    def test_run_flushes_once_for_every_activity_it_completes(self, tmp_path):
        system = AdeptSystem.open(tmp_path / "db")
        case_id = system.deploy(templates.online_order_process()).start().instance_id
        wal = system.backend.wal
        appended, flushed = wal.append_count, wal.flush_count

        result = system.run(case_id)

        assert result.ok and result.steps > 1
        assert len(_steps(system)) == result.steps
        assert (wal.append_count, wal.flush_count) == (appended + result.steps, flushed + 1)
        assert len(wal) == wal.append_count
        system.close()

    def test_complete_is_one_record_and_one_flush(self, tmp_path):
        system = AdeptSystem.open(tmp_path / "db")
        case_id = system.deploy(templates.online_order_process()).start().instance_id
        wal = system.backend.wal
        appended, flushed = wal.append_count, wal.flush_count

        system.complete(case_id, system.activated(case_id)[0], user="alice")

        (record,) = _steps(system)
        assert (record["action"], record["user"]) == ("complete", "alice")
        assert (wal.append_count, wal.flush_count) == (appended + 1, flushed + 1)
        system.close()

    def test_the_log_is_byte_identical_to_committing_every_record_on_its_own(self, tmp_path):
        deferred = AdeptSystem.open(tmp_path / "deferred")
        _schedule(deferred)
        deferred.backend.close()

        at_once = AdeptSystem.open(tmp_path / "at_once")
        # no commit scope: every record is written and flushed as it is journaled
        at_once.backend.commit_scope = nullcontext
        _schedule(at_once)
        assert at_once.backend.wal.flush_count == at_once.backend.wal.append_count
        at_once.backend.close()

        assert deferred.backend.wal.flush_count < deferred.backend.wal.append_count
        log = (tmp_path / "deferred" / "wal.jsonl").read_bytes()
        assert log == (tmp_path / "at_once" / "wal.jsonl").read_bytes()


class TestFailurePartWay:
    def _recovered_equals_live(self, store, system, ids, cache_instances):
        expected = _fingerprints(system, ids)
        system.backend.close()  # crash: the scope committed on its way out
        recovered = AdeptSystem.open(store, cache_instances=cache_instances)
        try:
            assert _fingerprints(recovered, ids) == expected
        finally:
            recovered.close()

    def test_an_unknown_id_in_a_later_chunk_keeps_the_steps_before_it(self, tmp_path):
        store = tmp_path / "db"
        system = AdeptSystem.open(store)
        handle = system.deploy(templates.sequential_process(length=6))
        ids = [handle.start().instance_id for _ in range(20)]  # more than one chunk
        wal = system.backend.wal
        records, flushed = len(_steps(system)), wal.flush_count

        with pytest.raises(EngineError, match="unknown instance"):
            system.step_many(ids + ["no-such-case"] + ids[:3], steps=2)

        assert [r["instance_id"] for r in _steps(system)[records:]] == [
            instance_id for instance_id in ids for _ in range(2)
        ]
        assert wal.flush_count == flushed + 1
        assert len(wal) == wal.append_count
        self._recovered_equals_live(store, system, ids, None)

    @pytest.mark.parametrize("failing_step", [1, 4, 8])
    def test_a_failure_in_a_later_chunk_keeps_the_steps_before_it(self, tmp_path, failing_step):
        store = tmp_path / "db"
        system = AdeptSystem.open(store, cache_instances=3)  # chunks of three cases
        handle = system.deploy(templates.sequential_process(length=6))
        ids = [handle.start().instance_id for _ in range(9)]
        records = len(_steps(system))
        calls = []

        def worker(node, values):
            calls.append(node.node_id)
            if len(calls) == failing_step:
                raise RuntimeError("injected")
            return {}

        with pytest.raises(RuntimeError, match="injected"):
            system.step_many(ids, steps=1, worker=worker)

        assert [r["instance_id"] for r in _steps(system)[records:]] == ids[: failing_step - 1]
        assert len(system.backend.wal) == system.backend.wal.append_count
        self._recovered_equals_live(store, system, ids, 3)


class TestTheFlushWaitsOutsideTheLock:
    def test_nothing_reaches_the_file_before_the_call_ends(self, monkeypatch, tmp_path):
        store = tmp_path / "db"
        system = AdeptSystem.open(store)
        handle = system.deploy(templates.sequential_process(length=6))
        ids = [handle.start().instance_id for _ in range(4)]
        wal_file = store / "wal.jsonl"
        size_before = wal_file.stat().st_size
        commits = []
        commit = WriteAheadLog.commit

        def spying_commit(self, ticket):
            commits.append(system._lock.held())
            return commit(self, ticket)

        monkeypatch.setattr(WriteAheadLog, "commit", spying_commit)
        sizes = []

        def worker(node, values):
            sizes.append(wal_file.stat().st_size)
            return {}

        results = system.step_many(ids, steps=3, worker=worker)

        assert sum(result.steps for result in results) == len(sizes) == 12
        assert set(sizes) == {size_before}  # every step ran before anything was written
        assert commits == [False]  # one commit, with the lock released
        assert wal_file.stat().st_size > size_before
        assert len(system.backend.wal) == system.backend.wal.append_count
        system.close()

    def test_another_operation_finishes_while_a_step_many_flushes(self, monkeypatch, tmp_path):
        store = tmp_path / "db"
        system = AdeptSystem.open(store)
        handle = system.deploy(templates.sequential_process(length=6))
        ids = [handle.start().instance_id for _ in range(4)]
        held = {}
        reached, release = threading.Event(), threading.Event()
        commit = WriteAheadLog.commit

        def held_commit(self, ticket):
            if threading.get_ident() == held.get("thread"):
                held["lock_held"] = system._lock.held()
                reached.set()
                assert release.wait(timeout=30)
            return commit(self, ticket)

        monkeypatch.setattr(WriteAheadLog, "commit", held_commit)
        results = []

        def stepper():
            held["thread"] = threading.get_ident()
            results.extend(system.step_many(ids[:3], steps=2))

        thread = threading.Thread(target=stepper, daemon=True)
        thread.start()
        try:
            assert reached.wait(timeout=10)
            assert held["lock_held"] is False  # its records wait outside the lock
            assert not results  # ... and the call has not returned yet
            # another thread's operation takes the lock and finishes meanwhile
            other = system.step_many([ids[3]], steps=1)
            assert [result.steps for result in other] == [1]
        finally:
            release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert [result.steps for result in results] == [2, 2, 2]
        assert len(_steps(system)) == 7
        assert len(system.backend.wal) == system.backend.wal.append_count
        expected = _fingerprints(system, ids)
        system.backend.close()  # crash

        recovered = AdeptSystem.open(store)
        try:
            assert _fingerprints(recovered, ids) == expected
        finally:
            recovered.close(checkpoint=False)
