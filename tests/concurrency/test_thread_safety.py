"""Thread-safety basics: parallel stepping, bus ordering, group commit."""

import threading

import pytest

from repro.schema import templates
from repro.storage.wal import WriteAheadLog
from repro.system import AdeptSystem, LockTable, RWLock
from repro.system.persistence import KIND_STEP

from tests.concurrency.harness import run_threads


class TestParallelStepping:
    def test_disjoint_cases_step_in_parallel_without_corruption(self):
        system = AdeptSystem()
        process = system.deploy(templates.sequential_process())
        ids = [process.start().instance_id for _ in range(48)]

        run_threads([
            (lambda part=ids[i::6]: [system.run(case_id) for case_id in part])
            for i in range(6)
        ])

        for case_id in ids:
            instance = system.get_instance(case_id)
            assert not instance.status.is_active
            assert instance.completed_activities() == [f"step_{n}" for n in range(1, 6)]

    def test_step_many_from_many_threads_is_exact(self):
        system = AdeptSystem()
        process = system.deploy(templates.sequential_process())
        ids = [process.start().instance_id for _ in range(30)]

        # every thread steps every case once; a case has 5 activities, so
        # 5 rounds of 1 step each complete the population exactly — no
        # step may be lost or double-applied under contention
        run_threads([(lambda: system.step_many(ids, steps=1)) for _ in range(5)])

        for case_id in ids:
            instance = system.get_instance(case_id)
            assert len(instance.completed_activities()) == 5

    def test_concurrent_starts_allocate_unique_ids(self):
        system = AdeptSystem()
        process = system.deploy(templates.sequential_process())
        collected = [[] for _ in range(6)]

        def starter(bucket):
            for _ in range(20):
                bucket.append(process.start().instance_id)

        run_threads([(lambda b=bucket: starter(b)) for bucket in collected])
        all_ids = [case_id for bucket in collected for case_id in bucket]
        assert len(all_ids) == len(set(all_ids)) == 120

    def test_duplicate_explicit_id_has_exactly_one_winner(self):
        from repro.runtime.engine import EngineError

        system = AdeptSystem()
        process = system.deploy(templates.sequential_process())
        outcomes = []
        lock = threading.Lock()

        def contender():
            try:
                process.start(case_id="contested")
                with lock:
                    outcomes.append("won")
            except EngineError:
                with lock:
                    outcomes.append("lost")

        run_threads([contender for _ in range(6)])
        assert outcomes.count("won") == 1
        assert outcomes.count("lost") == 5


class TestEventOrdering:
    def test_bus_seq_is_strictly_increasing_under_concurrent_publish(self):
        system = AdeptSystem()
        process = system.deploy(templates.sequential_process())
        ids = [process.start().instance_id for _ in range(24)]

        run_threads([
            (lambda part=ids[i::4]: [system.run(case_id) for case_id in part])
            for i in range(4)
        ])

        seqs = [event.seq for event in system.feed.events]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))
        assert not system.bus.delivery_errors


class TestGroupCommitWal:
    def test_concurrent_appends_all_survive_and_batch(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.jsonl"))

        def appender(worker_index):
            for record_index in range(50):
                wal.append({"worker": worker_index, "record": record_index})

        run_threads([(lambda w=w: appender(w)) for w in range(8)])
        records = wal.records()
        assert len(records) == 400
        assert {(r["worker"], r["record"]) for r in records} == {
            (w, i) for w in range(8) for i in range(50)
        }
        # group commit telemetry: every append accounted for
        assert wal.append_count == 400
        assert wal.flush_count <= wal.append_count

    def test_enqueue_preserves_order_and_commit_is_batched(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.jsonl"))
        tickets = [wal.enqueue({"n": n}) for n in range(5)]
        assert wal.flush_count == 0  # nothing durable yet
        wal.commit(tickets[-1])  # one commit flushes the whole batch
        assert wal.flush_count == 1
        assert [r["n"] for r in wal.records()] == [0, 1, 2, 3, 4]

    def test_torn_batch_applies_only_complete_prefix(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.jsonl"))
        wal.commit(max(wal.enqueue({"n": n}) for n in range(3)))
        wal.close()
        raw = wal.path.read_bytes()
        first_newline = raw.index(b"\n")
        # cut inside the second record of the single flushed batch
        wal.path.write_bytes(raw[: first_newline + 5])
        surviving = WriteAheadLog(str(wal.path)).records()
        assert [r["n"] for r in surviving] == [0]

    def test_thread_local_suspension_does_not_drop_other_threads_records(self, tmp_path):
        system = AdeptSystem.open(str(tmp_path / "store"))
        process = system.deploy(templates.sequential_process())
        case_a = process.start().instance_id
        case_b = process.start().instance_id
        backend = system.backend

        inside = threading.Event()
        release = threading.Event()

        def suspended_worker():
            with backend.suspended():
                inside.set()
                assert release.wait(timeout=10)

        def stepping_worker():
            assert inside.wait(timeout=10)
            system.complete(case_b, "step_1")
            release.set()

        run_threads([suspended_worker, stepping_worker])
        system.complete(case_a, "step_1")
        steps = [r for r in backend.wal_records() if r["kind"] == KIND_STEP]
        # case_b's step was journaled even though another thread had
        # journaling suspended at the time
        assert {r["instance_id"] for r in steps} == {case_a, case_b}
        system.close()


class TestPrimitives:
    def test_lock_table_multi_acquire_is_deadlock_free(self):
        table = LockTable(stripes=4)
        ids = [f"case-{n}" for n in range(40)]

        def worker(seed):
            import random

            rng = random.Random(seed)
            for _ in range(200):
                picked = rng.sample(ids, 3)
                with table.holding(*picked):
                    pass

        run_threads([(lambda s=s: worker(s)) for s in range(8)])

    def test_stripe_index_is_a_pure_function_of_the_key_over_all_stripes(self):
        """Stable across tables, processes and PYTHONHASHSEED values (the
        pinned indices are crc32's, not ``hash()``'s), and 10 000 generated
        ids reach every one of the 64 stripes about evenly."""
        table, other = LockTable(), LockTable()
        assert table._stripe_index("online_order-r000001") == 54
        assert table._stripe_index("sequence-00042") == 14
        ids = [f"online_order-r{n:06d}" for n in range(5000)]
        ids += [f"sequence-{n:05d}" for n in range(5000)]
        indices = [table._stripe_index(case_id) for case_id in ids]
        assert indices == [other._stripe_index(case_id) for case_id in ids]
        per_stripe = [indices.count(stripe) for stripe in range(len(table))]
        assert min(per_stripe) > 0
        assert max(per_stripe) < 2 * len(ids) / len(table)

    def test_rwlock_write_excludes_readers_and_vice_versa(self):
        lock = RWLock()
        state = {"readers": 0, "writers": 0, "max_readers": 0, "violations": 0}
        guard = threading.Lock()

        def reader():
            for _ in range(100):
                with lock.read():
                    with guard:
                        state["readers"] += 1
                        state["max_readers"] = max(state["max_readers"], state["readers"])
                        if state["writers"]:
                            state["violations"] += 1
                    with guard:
                        state["readers"] -= 1

        def writer():
            for _ in range(20):
                with lock.write():
                    with guard:
                        state["writers"] += 1
                        if state["readers"] or state["writers"] > 1:
                            state["violations"] += 1
                    with guard:
                        state["writers"] -= 1

        run_threads([reader, reader, reader, writer, writer])
        assert state["violations"] == 0
        assert state["max_readers"] >= 1


def _recording_table(monkeypatch, log, failing=()):
    """A 64-stripe table whose stripe locks log (index, action); ``failing`` raise."""
    from repro.system import concurrency

    created = []

    class RecordingLock:
        def __init__(self):
            self.index = len(created)
            created.append(self)

        def acquire(self, blocking=True):
            if self.index in failing:
                raise RuntimeError(f"stripe {self.index} failed")
            log.append(("acquire", self.index))
            return True

        def release(self):
            log.append(("release", self.index))

    with monkeypatch.context() as patch:
        patch.setattr(concurrency.threading, "RLock", RecordingLock)
        return LockTable()


class TestScopes:
    """What the lock and suspension scopes promise, whatever object implements them."""

    def test_holding_takes_each_distinct_stripe_once_ascending_and_releases_in_reverse(
        self, monkeypatch
    ):
        log = []
        table = _recording_table(monkeypatch, log)
        first, second = table._stripe_index("a"), table._stripe_index("b")
        assert first < second
        for keys in (("a", "b", "a"), ("b", "a", "b")):
            log.clear()
            with table.holding(*keys):
                assert log == [("acquire", first), ("acquire", second)]
            assert log[2:] == [("release", second), ("release", first)]
        log.clear()
        with table.holding("b"):
            assert log == [("acquire", second)]
        assert log == [("acquire", second), ("release", second)]

    def test_an_acquire_that_raises_releases_exactly_the_stripes_taken(self, monkeypatch):
        log = []
        probe = LockTable()
        low, middle, high = sorted(probe._stripe_index(key) for key in ("a", "d", "b"))
        table = _recording_table(monkeypatch, log, failing=(middle,))
        entered = False
        with pytest.raises(RuntimeError, match=f"stripe {middle}"):
            with table.holding("b", "d", "a"):
                entered = True
        assert not entered
        assert log == [("acquire", low), ("release", low)]
        assert ("acquire", high) not in log

    def test_read_scope_is_shared_and_write_scope_excludes_it(self):
        lock = RWLock()
        readers_in = threading.Barrier(3, timeout=10)
        leave = threading.Event()
        writer_in = threading.Event()
        writer_leave = threading.Event()
        late_reader_in = threading.Event()

        def reader():
            with lock.read():
                readers_in.wait()  # both readers are inside at once
                leave.wait(timeout=10)

        def writer():
            with lock.write():
                writer_in.set()
                writer_leave.wait(timeout=10)

        def late_reader():
            with lock.read():
                late_reader_in.set()

        threads = [threading.Thread(target=reader, daemon=True) for _ in range(2)]
        for thread in threads:
            thread.start()
        readers_in.wait()
        threads.append(threading.Thread(target=writer, daemon=True))
        threads[-1].start()
        assert not writer_in.wait(timeout=0.2)  # two readers hold the lock
        leave.set()
        assert writer_in.wait(timeout=10)
        threads.append(threading.Thread(target=late_reader, daemon=True))
        threads[-1].start()
        assert not late_reader_in.wait(timeout=0.2)  # the writer holds it alone
        writer_leave.set()
        assert late_reader_in.wait(timeout=10)
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()

    def test_suspension_nests_per_thread_and_restores_the_count_when_the_body_raises(
        self, tmp_path
    ):
        from repro.system.persistence import PersistentBackend

        backend = PersistentBackend(str(tmp_path / "store"))
        elsewhere = []
        try:
            with backend.suspended():
                with pytest.raises(RuntimeError):
                    with backend.suspended():
                        assert not backend.active
                        raise RuntimeError("the body fails")
                assert not backend.active  # the outer scope still holds
                thread = threading.Thread(target=lambda: elsewhere.append(backend.active))
                thread.start()
                thread.join(timeout=10)
                assert not thread.is_alive()
                assert backend.journal(KIND_STEP, instance_id="x") is None
            assert elsewhere == [True]
            assert backend.active
            assert backend.journal(KIND_STEP, instance_id="x") is not None
        finally:
            backend.close()

    def test_writer_waiting_is_set_exactly_while_a_writer_queues(self):
        lock = RWLock()
        assert not lock.writer_waiting
        writer_in = threading.Event()

        def writer():
            with lock.write():
                writer_in.set()

        lock.acquire_read()
        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        for _ in range(1000):
            if lock.writer_waiting:
                break
            threading.Event().wait(0.005)
        assert lock.writer_waiting and not writer_in.is_set()
        lock.release_read()  # the last reader out wakes the writer
        assert writer_in.wait(timeout=10)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert not lock.writer_waiting
        # with nobody waiting, readers come and go freely
        with lock.read():
            with lock.read():
                pass

    def test_commit_scope_defers_this_threads_commit_to_its_outermost_end(self, tmp_path):
        from repro.system.persistence import PersistentBackend

        backend = PersistentBackend(str(tmp_path / "store"))
        wal = backend.wal
        elsewhere = []
        try:
            with pytest.raises(RuntimeError):
                with backend.commit_scope():
                    with backend.commit_scope():
                        first = backend.journal(KIND_STEP, instance_id="a")
                    backend.journal(KIND_STEP, instance_id="b")
                    assert (len(wal), wal.flush_count) == (0, 0)  # enqueued, not committed
                    # another thread's records commit as always
                    thread = threading.Thread(
                        target=lambda: elsewhere.append(backend.journal(KIND_STEP, instance_id="c"))
                    )
                    thread.start()
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                    assert [r["instance_id"] for r in wal] == ["a", "b", "c"]
                    backend.commit()  # nothing of this thread's is left to commit
                    assert wal.flush_count == 1
                    backend.journal(KIND_STEP, instance_id="d")
                    raise RuntimeError("the body fails")
            # the scope committed on its way out, in one flush
            assert [r["seq"] for r in wal] == [first, first + 1, first + 2, first + 3]
            assert wal.flush_count == 2
            backend.journal(KIND_STEP, instance_id="e")  # outside: committed at once
            assert (len(wal), wal.flush_count) == (5, 3)
        finally:
            backend.close()
