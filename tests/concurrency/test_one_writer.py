"""One writer per system: every operation holds the one execution lock.

Three promises of the single-writer design, checked by counting and by
blocking, never by timing:

* an operation enters :meth:`LockTable.holding` exactly once, at its
  outermost level — also when it hydrates, evicts, migrates, sweeps or
  runs a canary decision it took;
* a pool worker's function runs with the lock released, so a
  checkpoint finishes while the function is still blocked;
* a checkpoint commits what other operations enqueued and have not
  flushed yet: it meets no uncommitted record, the waiting caller
  returns normally, and recovery reproduces the live state.
"""

import threading
from contextlib import contextmanager

import pytest

from repro import AdeptSystem, ChangeSet
from repro.schema import templates
from repro.storage.wal import WriteAheadLog
from repro.system.concurrency import LockTable

from tests.concurrency.harness import system_fingerprint


@contextmanager
def _counting_holding(monkeypatch):
    """Count every entry to ``LockTable.holding`` (the one lock entry point)."""
    entries = []
    holding = LockTable.holding

    def counted_holding(self, *keys):
        entries.append(keys)
        return holding(self, *keys)

    with monkeypatch.context() as patch:
        patch.setattr(LockTable, "holding", counted_holding)
        yield entries


def _review():
    return ChangeSet().serial_insert("review", pred="step_2", succ="step_3")


def _system(path, cache):
    system = AdeptSystem.open(path, cache_instances=cache)
    handle = system.deploy(templates.sequential_process(length=6))
    ids = [handle.start().instance_id for _ in range(12)]
    system.step_many(ids[::3], steps=1)
    return system, handle, ids


def _operations(system, handle, ids):
    """name → (prepare, operation): the operation alone is counted."""

    def lazy_rollout():
        system.evolve(handle.type_id, _review(), rollout="lazy")

    def changeset():
        return system.change(ids[5]).serial_insert("extra", pred="step_5", succ="step_6")

    return {
        "step_many": (None, lambda _: system.step_many([ids[1]])),
        "complete": (None, lambda _: system.complete(ids[2], "step_1")),
        "start": (None, lambda _: handle.start()),
        "changeset_apply": (changeset, lambda change: change.apply()),
        "evolve": (None, lambda _: handle.evolve(_review())),
        "sweep_rollout": (lazy_rollout, lambda _: system.sweep_rollout(handle.type_id)),
        "checkpoint": (None, lambda _: system.checkpoint()),
    }


@pytest.mark.parametrize("cache", [None, 4])
@pytest.mark.parametrize(
    "name",
    ["step_many", "complete", "start", "changeset_apply", "evolve", "sweep_rollout", "checkpoint"],
)
def test_an_operation_takes_the_lock_once(monkeypatch, tmp_path, cache, name):
    system, handle, ids = _system(tmp_path / "db", cache)
    prepare, operation = _operations(system, handle, ids)[name]
    prepared = prepare() if prepare is not None else None
    with _counting_holding(monkeypatch) as entries:
        operation(prepared)
    assert len(entries) == 1, entries
    system.close()


def test_a_canary_decision_runs_inside_the_operation_that_took_it(monkeypatch, tmp_path):
    """The verdict tipped by a touch runs at the exit of that operation's scope."""
    system = AdeptSystem.open(tmp_path / "db")
    handle = system.deploy(templates.sequential_process(length=6))
    stepped = handle.start().instance_id
    system.step_many([stepped], steps=3)  # past step_2: the change conflicts
    rollout = system.evolve(
        handle.type_id,
        _review(),
        rollout="canary",
        fraction=1.0,
        conflict_threshold=0.0,
        min_observations=1,
    )
    with _counting_holding(monkeypatch) as entries:
        system.step_many([stepped])
    assert len(entries) == 1
    assert rollout.state == "rolled_back"
    assert system.rollout_of(handle.type_id) is None
    assert system.backend.wal_records()[-1]["kind"] == "rollout_rolled_back"
    system.close()


def test_a_blocked_worker_function_does_not_hold_the_system(tmp_path):
    system = AdeptSystem.open(tmp_path / "db")
    handle = system.deploy(templates.sequential_process(length=2))
    handle.start()
    entered, release = threading.Event(), threading.Event()

    def worker(node, data):
        entered.set()
        assert release.wait(timeout=30)
        return {}

    system.serve(workers=1, worker=worker)
    try:
        assert entered.wait(timeout=10)
        checkpointed = threading.Event()
        thread = threading.Thread(
            target=lambda: (system.checkpoint(), checkpointed.set()), daemon=True
        )
        thread.start()
        assert checkpointed.wait(timeout=10), "the checkpoint waited for the worker function"
        assert not release.is_set()
    finally:
        release.set()
    stats = system.drain(timeout=30)
    assert stats.items_completed == 2
    assert not stats.errors
    system.close()


def test_checkpoint_commits_what_another_operation_has_not_flushed(monkeypatch, tmp_path):
    store = tmp_path / "db"
    system = AdeptSystem.open(store)
    handle = system.deploy(templates.sequential_process())
    handle.start()
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
    started = []

    def starter():
        held["thread"] = threading.get_ident()
        started.append(handle.start().instance_id)

    thread = threading.Thread(target=starter, daemon=True)
    thread.start()
    try:
        assert reached.wait(timeout=10)
        assert held["lock_held"] is False  # its record waits outside the lock
        system.checkpoint()  # raises no PersistenceError: the record is committed first
    finally:
        release.set()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(started) == 1  # the held call returned normally
    assert system.backend.wal_records() == []  # the snapshot covers it
    expected = system_fingerprint(system)
    assert started[0] in expected["instances"]
    system.backend.close()  # crash

    recovered = AdeptSystem.open(store)
    try:
        assert system_fingerprint(recovered) == expected
    finally:
        recovered.close(checkpoint=False)
