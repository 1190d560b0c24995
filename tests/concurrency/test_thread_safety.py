"""Thread-safety basics: parallel stepping, bus ordering, group commit."""

import logging
import threading

import pytest

from repro.schema import templates
from repro.storage.wal import WriteAheadLog
from repro.system import AdeptSystem
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
    def test_bus_seq_is_strictly_increasing_under_concurrent_publish(self, caplog):
        system = AdeptSystem()
        received = []
        system.bus.subscribe(received.append)
        process = system.deploy(templates.sequential_process())
        ids = [process.start().instance_id for _ in range(24)]

        with caplog.at_level(logging.WARNING, logger="repro.system.events"):
            run_threads([
                (lambda part=ids[i::4]: [system.run(case_id) for case_id in part])
                for i in range(4)
            ])

        completed = [event for event in received if event.name == "instance_completed"]
        assert sorted(event.instance_id for event in completed) == sorted(ids)
        seqs = [event.seq for event in received]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))
        assert system.feed.counts()["type_deployed"] == 1
        assert system.bus.delivery_failures == 0
        assert not [record for record in caplog.records if record.name == "repro.system.events"]


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


class TestScopes:
    """What the suspension and commit scopes promise, whatever object implements them."""

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
