"""Tests for the durable AdeptSystem: journaling, checkpoints, recovery
and the LRU-bounded live-instance cache."""

import json
import shutil
from pathlib import Path

import pytest

from repro.runtime.engine import EngineError, InstanceIdInUseError, ProcessEngine
from repro.runtime.states import InstanceStatus
from repro.schema import templates
from repro.storage.serialization import StorageError
from repro.system import AdeptSystem, RecoveryError
from repro.system.persistence import (
    KIND_ADHOC_CHANGE,
    KIND_EVOLUTION,
    KIND_INSTANCE_DELETED,
    KIND_INSTANCE_SAVED,
    KIND_INSTANCE_STARTED,
    KIND_STEP,
    KIND_TYPE_DEPLOYED,
    PersistentBackend,
)
from repro.workloads.order_process import order_type_change_v2


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "store")


def open_system(store_path, **kwargs):
    return AdeptSystem.open(store_path, **kwargs)


class TestJournaling:
    def test_mutations_produce_typed_records(self, store_path):
        system = open_system(store_path)
        orders = system.deploy(templates.online_order_process())
        case = orders.start(customer="jane")
        case.complete("get_order")
        case.save()
        case.change(comment="c").serial_insert(
            "extra", pred="get_order", succ="collect_data"
        ).apply()
        orders.evolve(order_type_change_v2(), migrate="none")
        system.abort(case.instance_id)
        kinds = [record["kind"] for record in system.backend.wal_records()]
        assert kinds[0] == KIND_TYPE_DEPLOYED
        assert KIND_INSTANCE_STARTED in kinds
        assert KIND_STEP in kinds
        assert KIND_INSTANCE_SAVED in kinds
        assert KIND_ADHOC_CHANGE in kinds
        assert KIND_EVOLUTION in kinds

    def test_sequence_numbers_are_monotonic(self, store_path):
        system = open_system(store_path)
        orders = system.deploy(templates.sequential_process())
        for _ in range(3):
            orders.start()
        seqs = [record["seq"] for record in system.backend.wal_records()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_step_records_carry_actual_outputs(self, store_path):
        system = open_system(store_path)
        orders = system.deploy(templates.online_order_process())
        case = orders.start()
        case.complete("get_order", outputs={"order": {"sku": 12}})
        steps = [
            record
            for record in system.backend.wal_records()
            if record["kind"] == KIND_STEP and record["action"] == "complete"
        ]
        assert steps[-1]["outputs"] == {"order": {"sku": 12}}

    def test_evolution_record_names_candidates_and_version(self, store_path):
        system = open_system(store_path)
        orders = system.deploy(templates.online_order_process())
        ids = sorted(orders.start().instance_id for _ in range(3))
        orders.evolve(order_type_change_v2())
        record = next(
            record
            for record in system.backend.wal_records()
            if record["kind"] == KIND_EVOLUTION
        )
        assert record["candidates"] == ids
        assert record["to_version"] == 2


class TestCheckpointAndRecovery:
    def test_checkpoint_truncates_wal_and_snapshot_restores(self, store_path):
        system = open_system(store_path)
        orders = system.deploy(templates.online_order_process())
        ids = [orders.start().instance_id for _ in range(3)]
        system.checkpoint()
        assert system.backend.wal_records() == []
        system.close(checkpoint=False)

        reopened = open_system(store_path)
        assert reopened.last_recovery.snapshot_loaded
        assert reopened.last_recovery.replayed_records == 0
        assert sorted(reopened.stored_instance_ids()) == sorted(ids)

    def test_checkpoint_is_durable_before_the_log_is_truncated(self, store_path, monkeypatch):
        """fsync the snapshot file, rename it, fsync the directory, then truncate."""
        import os
        import stat

        system = open_system(store_path)
        system.deploy(templates.online_order_process()).start()
        calls = []
        fsync, replace, truncate = os.fsync, os.replace, system.backend.wal.truncate

        def recorded_fsync(descriptor):
            kind = "directory" if stat.S_ISDIR(os.fstat(descriptor).st_mode) else "file"
            calls.append(("fsync", kind))
            fsync(descriptor)

        def recorded_replace(source, target):
            calls.append(("replace", Path(source).name, Path(target).name))
            replace(source, target)

        def recorded_truncate():
            calls.append(("truncate",))
            truncate()

        monkeypatch.setattr(os, "fsync", recorded_fsync)
        monkeypatch.setattr(os, "replace", recorded_replace)
        monkeypatch.setattr(system.backend.wal, "truncate", recorded_truncate)
        system.checkpoint()
        assert calls == [
            ("fsync", "file"),
            ("replace", "snapshot.json.tmp", "snapshot.json"),
            ("fsync", "directory"),
            ("truncate",),
        ]
        monkeypatch.undo()
        system.close(checkpoint=False)
        reopened = open_system(store_path)
        assert reopened.last_recovery.snapshot_instances == 1
        reopened.close(checkpoint=False)

    def test_unclean_exit_replays_wal_suffix(self, store_path):
        system = open_system(store_path)
        orders = system.deploy(templates.online_order_process())
        case = orders.start()
        case.complete("get_order")
        fingerprint = case.raw.state_fingerprint()
        case_id = case.instance_id
        system.backend.close()  # crash: no checkpoint

        recovered = open_system(store_path)
        assert recovered.last_recovery.replayed_records > 0
        assert recovered.get_instance(case_id).state_fingerprint() == fingerprint
        # and the case is resumable
        result = recovered.run(case_id)
        assert result.status is InstanceStatus.COMPLETED

    def test_crash_and_reopen_restore_the_stored_population_with_its_bias(self, store_path):
        system = open_system(store_path)
        orders = system.deploy(templates.online_order_process())
        cases = [orders.start() for _ in range(4)]
        for index, case in enumerate(cases):
            case.complete("get_order")
            if index % 2:
                case.change(comment="extra").serial_insert(
                    f"extra_{index}", pred="get_order", succ="collect_data"
                ).apply()
            case.save()
        biased = {case.instance_id: case.is_biased for case in cases}
        assert sorted(biased.values()) == [False, False, True, True]
        system.backend.close()  # crash: no checkpoint

        recovered = open_system(store_path)
        assert recovered.stored_instance_ids() == sorted(biased)
        assert {i: recovered.store.load(i).is_biased for i in biased} == biased
        assert recovered.store.biased_instances() == sorted(i for i in biased if biased[i])

    def test_released_versions_survive_reopen(self, store_path):
        system = open_system(store_path)
        orders = system.deploy(templates.online_order_process())
        orders.evolve(order_type_change_v2())
        system.backend.close()  # crash: no checkpoint
        for source in ("the WAL", "the snapshot"):
            reopened = open_system(store_path)
            assert reopened.last_recovery.snapshot_loaded == (source == "the snapshot")
            repository = reopened.repository
            assert repository.versions_of("online_order") == [1, 2]
            assert repository.schema("online_order", 2).has_node("send_questions")
            assert repository.schema("online_order", 1).structurally_equals(
                templates.online_order_process()
            )
            reopened.close()  # checkpoints: the next open reads the snapshot

    def test_a_log_in_the_old_start_complete_pair_form_replays_like_the_new_one(
        self, store_path, tmp_path
    ):
        """Code before the single commit point journaled every implicitly
        started step as a ``start`` + ``complete`` pair.  Such a log and the
        single-record log of the same schedule recover to the same system."""
        system = open_system(store_path)
        orders = system.deploy(templates.online_order_process())
        stepped, clerked, claimed = (orders.start().instance_id for _ in range(3))
        system.step_many([stepped, clerked], steps=2)
        system.complete(clerked, system.activated(clerked)[0], user="alice")
        system.start_activity(stepped, system.activated(stepped)[0], user="bob")  # explicit: a pair today
        system.claim(system.worklists.offered_items_for_instance(claimed)[0].item_id, "carol")
        system.backend.close()

        records = system.backend.wal_records()
        paired, explicitly_started = [], set()
        for record in records:
            if record["kind"] == KIND_STEP:
                key = (record["instance_id"], record["activity"])
                if record["action"] == "start":
                    explicitly_started.add(key)
                elif key not in explicitly_started:
                    paired.append(dict(record, action="start", outputs=None))
            paired.append(dict(record))
        assert len(paired) == len(records) + 5  # 2 × 2 batch steps and alice's completion
        old_store = tmp_path / "old_form"
        old_store.mkdir()
        (old_store / "wal.jsonl").write_text(
            "".join(
                json.dumps(dict(record, seq=seq), sort_keys=True) + "\n"
                for seq, record in enumerate(paired, start=1)
            )
        )

        new, old = open_system(store_path), open_system(str(old_store))
        assert old.last_recovery.replayed_records == new.last_recovery.replayed_records + 5
        for case_id in (stepped, clerked, claimed):
            ours, theirs = new.get_instance(case_id), old.get_instance(case_id)
            assert ours.state_fingerprint() == theirs.state_fingerprint()
            assert [entry.to_row() for entry in ours.history.entries] == [
                entry.to_row() for entry in theirs.history.entries
            ]
        assert {entry.user for entry in new.get_instance(clerked).history.entries} == {None, "alice"}
        assert new.get_instance(stepped).marking.running_nodes()
        offers = [
            sorted((item.instance_id, item.activity_id, item.state) for item in s.worklists.open_items())
            for s in (new, old)
        ]
        assert offers[0] == offers[1] and offers[0]

    def test_torn_trailing_record_is_ignored(self, store_path):
        system = open_system(store_path)
        orders = system.deploy(templates.sequential_process())
        orders.start()
        complete_records = len(system.backend.wal_records())
        system.backend.close()
        wal = system.backend.wal.path
        with wal.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "step", "seq": 999, "instance')  # torn mid-write

        recovered = open_system(store_path)
        assert recovered.last_recovery.replayed_records == complete_records

    def test_deleted_instance_stays_deleted_after_recovery(self, store_path):
        system = open_system(store_path)
        orders = system.deploy(templates.sequential_process())
        keep = orders.start().instance_id
        drop = orders.start().instance_id
        assert system.delete_instance(drop)
        system.backend.close()

        recovered = open_system(store_path)
        assert keep in recovered.live_instance_ids()
        assert drop not in recovered.live_instance_ids()
        assert drop not in recovered.stored_instance_ids()

    def test_deleting_an_unknown_id_journals_and_publishes_nothing(self, store_path):
        system = open_system(store_path)
        system.deploy(templates.sequential_process()).start(case_id="known")
        records = system.backend.wal_records()
        assert system.delete_instance("nope") is False
        assert system.backend.wal_records() == records
        assert system.feed.storage_summary()["instance_deleted"] == 0
        assert system.delete_instance("known") is True
        assert system.backend.wal_records()[-1]["kind"] == KIND_INSTANCE_DELETED
        assert system.feed.storage_summary()["instance_deleted"] == 1
        system.close(checkpoint=False)

    def test_version_reconciliation_rejects_tampered_journal(self, store_path):
        system = open_system(store_path)
        orders = system.deploy(templates.online_order_process())
        orders.start()
        orders.evolve(order_type_change_v2(), migrate="none")
        system.backend.close()
        wal = system.backend.wal.path
        lines = [line for line in wal.read_text().splitlines() if line]
        tampered = []
        for line in lines:
            record = json.loads(line)
            if record["kind"] == KIND_EVOLUTION:
                record["to_version"] = 9  # journal no longer matches the changelog
            tampered.append(json.dumps(record, sort_keys=True))
        wal.write_text("\n".join(tampered) + "\n")

        with pytest.raises(RecoveryError):
            open_system(store_path)

    def test_pin_retired_version_survives_checkpoint(self, store_path):
        """A "pin" canary rollback retires its version; the snapshot carries
        that, since the checkpoint truncates the record that said so."""
        system = open_system(store_path)
        orders = system.deploy(templates.online_order_process())
        fresh = [orders.start() for _ in range(15)]
        advanced = [orders.start() for _ in range(15)]
        for case in advanced:
            system.step_many([case.instance_id], steps=3)
        orders.evolve(
            order_type_change_v2(),
            rollout="canary",
            fraction=1.0,
            conflict_threshold=0.3,
            min_observations=20,
            canary_policy="pin",
        )
        for pair in zip(fresh, advanced):
            for case in pair:
                system.step_many([case.instance_id], steps=1)
            if system.rollout_of("online_order") is None:
                break
        assert system.rollout_status("online_order")["state"] == "rolled_back"
        assert orders.versions == [1, 2]
        assert orders.start().version == 1
        system.checkpoint()
        system.close(checkpoint=False)

        reopened = open_system(store_path)
        assert reopened.last_recovery.snapshot_loaded
        assert reopened.last_recovery.replayed_records == 0
        assert reopened.start("online_order").version == 1

    def test_recovery_publishes_bus_event(self, store_path):
        system = open_system(store_path)
        system.deploy(templates.sequential_process())
        system.backend.close()
        recovered = open_system(store_path)
        assert recovered.feed.counts().get("recovery_completed") == 1

    def test_open_context_manager_checkpoints_on_exit(self, store_path):
        with open_system(store_path) as system:
            orders = system.deploy(templates.sequential_process())
            orders.start()
        reopened = open_system(store_path)
        assert reopened.last_recovery.snapshot_loaded
        assert reopened.last_recovery.replayed_records == 0


class TestLazyHydration:
    def populate(self, store_path, count=8, cache=3):
        system = open_system(store_path, cache_instances=cache)
        orders = system.deploy(templates.online_order_process())
        ids = [orders.start().instance_id for _ in range(count)]
        return system, orders, ids

    def test_live_set_is_bounded(self, store_path):
        system, orders, ids = self.populate(store_path)
        assert len(system.live_instance_ids()) <= 3
        assert set(system.live_instance_ids()) | set(system.stored_instance_ids()) == set(ids)

    def test_eviction_saves_dirty_instances(self, store_path):
        system, orders, ids = self.populate(store_path)
        evicted = [i for i in ids if i not in system.live_instance_ids()]
        # every evicted case is hydratable with its full state
        for instance_id in evicted:
            instance = system.get_instance(instance_id)
            assert instance.instance_id == instance_id

    def test_hydration_round_trip_preserves_state(self, store_path):
        system, orders, ids = self.populate(store_path)
        first = ids[0]
        system.complete(first, "get_order")
        fingerprint = system.get_instance(first).state_fingerprint()
        # touch the others so `first` gets evicted
        for instance_id in ids[1:]:
            system.get_instance(instance_id)
        assert first not in system.live_instance_ids()
        assert system.get_instance(first).state_fingerprint() == fingerprint

    def test_eviction_and_hydration_publish_events(self, store_path):
        system, orders, ids = self.populate(store_path)
        for instance_id in ids:
            system.get_instance(instance_id)
        assert system.feed.counts().get("instance_evicted")
        assert system.feed.counts().get("instance_loaded")

    def test_step_many_advances_population_larger_than_cache(self, store_path):
        system, orders, ids = self.populate(store_path, count=10, cache=3)
        results = system.step_many(ids, steps=1)
        assert [result.instance_id for result in results] == ids
        assert all(result.steps == 1 for result in results)
        assert len(system.live_instance_ids()) <= 3

    def test_instances_of_covers_evicted_cases(self, store_path):
        system, orders, ids = self.populate(store_path)
        handles = system.instances_of("online_order")
        assert sorted(handle.instance_id for handle in handles) == sorted(ids)

    def test_evolve_migrates_evicted_cases(self, store_path):
        system, orders, ids = self.populate(store_path)
        report = orders.evolve(order_type_change_v2())
        assert report.total == len(ids)
        for instance_id in ids:
            assert system.get_instance(instance_id).schema_version == 2

    def test_worklist_claim_rehydrates_evicted_case(self, store_path):
        system, orders, ids = self.populate(store_path)
        evicted = next(i for i in ids if i not in system.live_instance_ids())
        items = system.worklists.items_for_instance(evicted)
        assert items, "evicted case should still have offered work items"
        claimed = system.claim(items[0].item_id, user="clerk")
        assert claimed.instance_id == evicted
        assert evicted in system.live_instance_ids()

    def test_an_unknown_id_is_an_engine_error(self, store_path):
        system, orders, ids = self.populate(store_path)
        with pytest.raises(EngineError, match="unknown instance 'no-such-case'"):
            system.get_instance("no-such-case")

    def test_a_stored_record_that_does_not_decode_keeps_its_own_error(self, store_path):
        """Only a missing record is an unknown id; a corrupt one says what is wrong."""
        system, orders, ids = self.populate(store_path)
        evicted = next(i for i in ids if i not in system.live_instance_ids())
        record = dict(system.store.record(evicted))
        record["marking"] = {**record["marking"], "layout": "not-this-layout"}
        system.store.put_record(record)
        with pytest.raises(StorageError, match="does not fit"):
            system.get_instance(evicted)
        assert evicted not in system.live_instance_ids()

    def test_lru_cache_works_without_backend(self, tmp_path):
        system = AdeptSystem(cache_instances=2)
        orders = system.deploy(templates.sequential_process())
        ids = [orders.start().instance_id for _ in range(5)]
        assert len(system.live_instance_ids()) <= 2
        for instance_id in ids:
            assert system.get_instance(instance_id).instance_id == instance_id

    def test_a_value_that_is_not_json_survives_eviction_without_backend(self):
        """No text for such a log: the evicted record keeps its lists."""
        import datetime

        system = AdeptSystem(cache_instances=1)
        orders = system.deploy(templates.online_order_process())
        case_id = orders.start().instance_id
        system.complete(case_id, "get_order", outputs={"order": datetime.date(2020, 1, 1)})
        orders.start()  # evicts the case
        assert case_id not in system.live_instance_ids()
        restored = system.get_instance(case_id)
        assert restored.data.get("order") == datetime.date(2020, 1, 1)
        assert [w.value for w in restored.data.writes] == [datetime.date(2020, 1, 1)]
        assert restored.completed_activities() == ["get_order"]


class TestBackendUnit:
    def test_fresh_directory_has_no_snapshot(self, store_path):
        backend = PersistentBackend(store_path)
        assert backend.load_snapshot() is None
        assert backend.wal_records() == []

    def test_suspended_journaling_is_dropped(self, store_path):
        backend = PersistentBackend(store_path)
        with backend.suspended():
            assert backend.journal("step", instance_id="x") is None
        assert backend.wal_records() == []
        assert backend.journal("step", instance_id="x") == 1

    def test_open_parses_snapshot_and_wal_once(self, store_path, monkeypatch):
        system = AdeptSystem.open(store_path)
        orders = system.deploy(templates.sequential_process())
        first = orders.start().instance_id
        system.checkpoint()
        second = orders.start().instance_id
        system.backend.close()

        from repro.storage.wal import WriteAheadLog

        reads = {"snapshot": 0, "wal": 0}
        load_snapshot, records = PersistentBackend.load_snapshot, WriteAheadLog.records

        def counted_snapshot(backend):
            reads["snapshot"] += 1
            return load_snapshot(backend)

        def counted_records(wal):
            reads["wal"] += 1
            return records(wal)

        monkeypatch.setattr(PersistentBackend, "load_snapshot", counted_snapshot)
        monkeypatch.setattr(WriteAheadLog, "records", counted_records)
        reopened = AdeptSystem.open(store_path)
        assert reads == {"snapshot": 1, "wal": 1}
        assert reopened.last_recovery.snapshot_loaded
        assert reopened.last_recovery.replayed_records == 1
        for instance_id in (first, second):
            assert reopened.get_instance(instance_id).instance_id == instance_id

    def test_recover_rereads_after_a_write_through_the_same_backend(self, store_path):
        """What the constructor read is dropped by any journal call in between."""
        backend = PersistentBackend(store_path)
        backend.journal("type_deployed", schema=templates.sequential_process().to_dict())
        system = AdeptSystem()
        system._attach_backend(backend)
        report = backend.recover(system)
        assert report.replayed_records == 1
        assert [handle.type_id for handle in system.types()] == ["sequence"]

    def test_sequence_continues_across_reopen(self, store_path):
        backend = PersistentBackend(store_path)
        backend.journal("step", instance_id="a")
        backend.journal("step", instance_id="b")
        backend.close()
        reopened = PersistentBackend(store_path)
        assert reopened.journal("step", instance_id="c") == 3


class TestMonitoringOfStorageEvents:
    def test_feed_storage_summary_counts_cache_churn(self, store_path):
        system = AdeptSystem.open(store_path, cache_instances=2)
        orders = system.deploy(templates.sequential_process())
        ids = [orders.start().instance_id for _ in range(5)]
        for instance_id in ids:
            system.get_instance(instance_id)
        system.checkpoint()
        summary = system.feed.storage_summary()
        assert summary["recovery_completed"] == 1
        assert summary["checkpoint_completed"] == 1
        assert summary["instance_evicted"] > 0
        assert summary["instance_loaded"] > 0
        assert set(summary) >= {"instance_saved", "instance_deleted"}
        system.close(checkpoint=False)


class TestReviewRegressions:
    """Regressions for the crash-window, journal-divergence and worklist
    lifecycle defects found in review."""

    def test_crash_between_snapshot_and_wal_truncate_recovers(self, store_path):
        """Snapshot replaced but WAL not yet truncated: records the snapshot
        already covers must be skipped, not double-applied."""
        system = open_system(store_path)
        orders = system.deploy(templates.online_order_process())
        case = orders.start()
        case.complete("get_order")
        fingerprint = case.raw.state_fingerprint()
        wal_before = system.backend.wal.path.read_bytes()
        system.checkpoint()  # snapshot written, WAL truncated...
        system.backend.close()
        system.backend.wal.path.write_bytes(wal_before)  # ...crash restores the un-truncated log

        recovered = open_system(store_path)
        assert recovered.last_recovery.snapshot_loaded
        assert recovered.last_recovery.replayed_records == 0  # all covered by the snapshot
        assert recovered.get_instance(case.instance_id).state_fingerprint() == fingerprint

    def test_records_past_the_snapshot_still_replay(self, store_path):
        """Only the covered prefix is skipped — later records replay."""
        system = open_system(store_path)
        orders = system.deploy(templates.online_order_process())
        case = orders.start()
        system.checkpoint()
        covered = system.backend.wal.path.read_bytes()  # empty after truncate
        case.complete("get_order")
        suffix = system.backend.wal.path.read_bytes()
        fingerprint = case.raw.state_fingerprint()
        system.backend.close()
        # crash right after the checkpoint's snapshot replace: prepend the
        # pre-checkpoint records (covered by next_seq) to the real suffix
        deploy_and_start = b""
        system2 = None
        recovered = open_system(store_path)
        assert recovered.get_instance(case.instance_id).state_fingerprint() == fingerprint
        assert recovered.last_recovery.replayed_records == len(
            [line for line in suffix.split(b"\n") if line]
        )

    def test_unjournalable_outputs_reject_the_step_before_commit(self, store_path):
        import datetime

        from repro.runtime.engine import EngineError, InstanceIdInUseError, ProcessEngine

        system = open_system(store_path)
        orders = system.deploy(templates.online_order_process())
        case = orders.start()
        before = case.raw.state_fingerprint()
        records_before = len(system.backend.wal_records())
        with pytest.raises(EngineError, match="cannot be journaled"):
            case.complete("get_order", outputs={"order": datetime.datetime.now()})
        # neither the in-memory state nor the journal moved
        assert case.raw.state_fingerprint() == before
        assert len(system.backend.wal_records()) == records_before
        # in-memory systems still accept arbitrary outputs
        plain = AdeptSystem()
        plain_case = plain.deploy(templates.online_order_process()).start()
        plain_case.complete("get_order", outputs={"order": datetime.datetime.now()})

    def test_restart_reoffers_work_items_of_snapshotted_cases(self, store_path):
        with open_system(store_path) as system:
            orders = system.deploy(templates.online_order_process())
            case_id = orders.start().instance_id
            assert system.worklists.open_items()
        reopened = open_system(store_path)
        items = [
            item for item in reopened.worklists.open_items()
            if item.instance_id == case_id
        ]
        assert items, "running snapshotted case must reappear on the worklist"
        claimed = reopened.claim(items[0].item_id, user="clerk")
        assert claimed.instance_id == case_id

    def test_delete_instance_withdraws_open_items(self, store_path):
        from repro.runtime.engine import EngineError, InstanceIdInUseError, ProcessEngine
        from repro.runtime.worklist import WorkItemState

        system = open_system(store_path)
        orders = system.deploy(templates.online_order_process())
        case_id = orders.start().instance_id
        items = [i for i in system.worklists.open_items() if i.instance_id == case_id]
        assert items
        system.delete_instance(case_id)
        # the held handles show the final state; closed items are not resident
        assert all(item.state is WorkItemState.WITHDRAWN for item in items)
        assert system.worklists.items_for_instance(case_id) == []
        assert len(system.worklists) == 0
        # a stale item id can no longer be claimed, and nothing gets stuck
        with pytest.raises(EngineError, match="unknown work item"):
            system.claim(items[0].item_id, user="clerk")
        assert items[0].state is WorkItemState.WITHDRAWN

    def test_evolve_skips_finished_stored_cases(self, store_path):
        system = open_system(store_path, cache_instances=2)
        orders = system.deploy(templates.online_order_process())
        running_ids = [orders.start().instance_id for _ in range(2)]
        finished_ids = []
        for _ in range(4):
            case = orders.start()
            case.run()
            finished_ids.append(case.instance_id)
        # push the finished cases out of the live set
        for instance_id in running_ids:
            system.get_instance(instance_id)
        stored_finished = [i for i in finished_ids if i not in system.live_instance_ids()]
        assert stored_finished, "test needs evicted finished cases"
        report = orders.evolve(order_type_change_v2())
        reported = {result.instance_id for result in report.results}
        assert set(running_ids) <= reported
        assert not (set(stored_finished) & reported)


class TestPickOrderAcrossRestart:
    """Which activity ``step_many`` picks must not depend on whether the
    case went through a store: a snapshot sorts the keys of a keyed
    marking, and a marking scanned in that order used to prefer
    ``compose_order`` where a never-stored case takes ``confirm_order``."""

    @staticmethod
    def picks(system, case_id, steps):
        sequence = []
        for _ in range(steps):
            done = system.get_instance(case_id).completed_activities()
            system.step_many([case_id], steps=1)
            sequence += system.get_instance(case_id).completed_activities()[len(done):]
        return sequence

    def run(self, store_path, restart, bias):
        system = open_system(store_path)
        system.deploy(templates.online_order_process())
        system.start("online_order", case_id="case")
        if bias:
            system.change("case").serial_insert(
                "verify_address", pred="get_order", succ="collect_data"
            ).apply()
        sequence = self.picks(system, "case", 2)
        if restart:
            system.checkpoint()
            system.close()
            system = open_system(store_path)
        sequence += self.picks(system, "case", 5)
        system.close()
        return sequence

    @pytest.mark.parametrize("bias", [False, True], ids=["unbiased", "biased"])
    def test_same_sequence_with_and_without_restart(self, tmp_path, bias):
        plain = self.run(str(tmp_path / "plain"), restart=False, bias=bias)
        restarted = self.run(str(tmp_path / "restarted"), restart=True, bias=bias)
        assert restarted == plain
        assert plain.index("confirm_order") < plain.index("compose_order")  # schema order

    def test_same_sequence_from_a_store_in_the_old_format(self, tmp_path):
        """``order-2`` of the format-1 fixture sits where both branches of
        the AND block are activated; its keyed marking is alphabetical."""
        fixture = Path(__file__).resolve().parents[1] / "fixtures" / "store_v1"
        shutil.copytree(fixture, tmp_path / "old")
        old = open_system(str(tmp_path / "old"))
        fresh = AdeptSystem()
        fresh.deploy(templates.online_order_process())
        fresh.start("online_order", case_id="order-2")
        fresh.step_many(["order-2"], steps=2)
        # (order-2 is outside the fixture's canary cohort and stays on v1)
        assert self.picks(old, "order-2", 4) == self.picks(fresh, "order-2", 4)
        old.close(checkpoint=False)


class TestAdoptionOverStoredIds:
    """An adoption may not take the id of a stored case; an old journal's may."""

    def evicted_population(self, store_path):
        system = open_system(store_path, cache_instances=2)
        orders = system.deploy(templates.online_order_process())
        ids = [orders.start().instance_id for _ in range(4)]
        assert ids[0] not in system.live_instance_ids()
        assert ids[0] in system.stored_instance_ids()
        return system, ids

    def outsider(self, system, instance_id):
        """A case built outside the system under ``instance_id``, one step on."""
        engine = ProcessEngine()
        instance = engine.create_instance(
            system.repository.resolve("online_order", 1), instance_id
        )
        engine.complete_activity(instance, "get_order")
        return instance

    def test_adopting_over_an_evicted_case_is_refused(self, store_path):
        system, ids = self.evicted_population(store_path)
        stored = system.store.record(ids[0])
        with pytest.raises(InstanceIdInUseError):
            system.adopt_instance(self.outsider(system, ids[0]))
        # the stored case is untouched and was neither journaled over nor loaded
        assert ids[0] not in system.live_instance_ids()
        assert system.store.record(ids[0]) == stored
        assert system.get_instance(ids[0]).completed_activities() == []
        system.close(checkpoint=False)
        reopened = open_system(store_path, cache_instances=2)
        assert reopened.get_instance(ids[0]).completed_activities() == []
        reopened.close()

    @pytest.mark.parametrize("cache", [None, 2])
    def test_a_journaled_adoption_over_a_stored_case_replays(self, store_path, cache):
        """A journal written when adoption refused only live ids still opens.

        Its ``instance_adopted`` record replaced a case that was stored
        then; on replay the case may be live (no cache bound) or stored.
        """
        system, ids = self.evicted_population(store_path)
        adopted = self.outsider(system, ids[0])
        expected = {i: system.get_instance(i).state_fingerprint() for i in ids[1:]}
        expected[ids[0]] = adopted.state_fingerprint()
        record = system.store.encode_record(adopted)
        system.backend.close()  # crash: the journal is all there is
        wal = Path(store_path) / "wal.jsonl"
        seq = json.loads(wal.read_text().splitlines()[-1])["seq"] + 1
        line = {"instance_id": ids[0], "kind": "instance_adopted", "record": record, "seq": seq}
        with wal.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(line, separators=(",", ":"), sort_keys=True) + "\n")

        reopened = open_system(store_path, cache_instances=cache)
        assert {i: reopened.get_instance(i).state_fingerprint() for i in ids} == expected
        assert reopened.activated(ids[0]) == adopted.activated_activities()
        reopened.close()


class TestEvictionLogging:
    """Each eviction under cache pressure is one DEBUG line, nothing at INFO."""

    LOGGER = "repro.system.facade"

    def test_one_debug_line_per_eviction(self, store_path, caplog):
        system = open_system(store_path, cache_instances=1)
        orders = system.deploy(templates.online_order_process())
        with caplog.at_level("DEBUG", logger=self.LOGGER):
            first = orders.start().instance_id
            second = orders.start().instance_id  # evicts the first, unsaved
            system.save(second)
            system.get_instance(first)  # evicts the second, saved since
        lines = [r for r in caplog.records if r.name == self.LOGGER]
        assert [r.levelname for r in lines] == ["DEBUG", "DEBUG"]
        assert [r.getMessage() for r in lines] == [
            f"evicted {first} (written back)",
            f"evicted {second} (clean)",
        ]

        caplog.clear()
        with caplog.at_level("INFO", logger=self.LOGGER):
            system.step_many([first, second], steps=1)
        assert caplog.records == []
        system.close(checkpoint=False)


class TestRecoveryLogging:
    """Recovery says what it did in one INFO line, and names the record it refuses."""

    LOGGER = "repro.system.persistence"

    def test_one_info_line_per_recovery_and_none_on_the_step_path(self, store_path, caplog):
        system = open_system(store_path, cache_instances=1)
        orders = system.deploy(templates.online_order_process())
        cases = [orders.start().instance_id for _ in range(3)]
        system.checkpoint()
        system.step_many(cases, steps=1)
        system.close(checkpoint=False)

        with caplog.at_level("DEBUG", logger=self.LOGGER):
            system = open_system(store_path, cache_instances=1)
        (line,) = [r for r in caplog.records if r.name == self.LOGGER]
        assert line.levelname == "INFO"
        assert line.getMessage() == (
            f"recovered {store_path}: snapshot with 3 instance(s), 3 record(s) replayed, step 3"
        )

        caplog.clear()
        with caplog.at_level("DEBUG", logger=self.LOGGER):
            system.step_many(cases, steps=1)  # hydrates and evicts every case
            system.get_instance(cases[0])
        assert caplog.records == []
        system.close(checkpoint=False)

    def test_a_warning_names_the_record_before_recovery_fails(self, store_path, caplog):
        system = open_system(store_path)
        orders = system.deploy(templates.online_order_process())
        orders.start()
        system.close(checkpoint=False)
        wal = Path(store_path) / "wal.jsonl"
        with wal.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "no_such_kind", "seq": 99}) + "\n")

        with caplog.at_level("WARNING", logger=self.LOGGER), pytest.raises(RecoveryError):
            open_system(store_path)
        (warning,) = [r for r in caplog.records if r.name == self.LOGGER]
        assert warning.levelname == "WARNING"
        assert warning.getMessage() == "WAL record #99: unknown kind 'no_such_kind'"

    def test_a_warning_names_the_failed_replay(self, store_path, caplog):
        system = open_system(store_path)
        orders = system.deploy(templates.online_order_process())
        orders.start()
        orders.evolve(order_type_change_v2(), migrate="none")
        system.backend.close()
        wal = system.backend.wal.path
        records = [json.loads(line) for line in wal.read_text().splitlines() if line]
        for record in records:
            if record["kind"] == KIND_EVOLUTION:
                record["to_version"] = 9
                seq = record["seq"]
        wal.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))

        with caplog.at_level("WARNING", logger=self.LOGGER), pytest.raises(RecoveryError):
            open_system(store_path)
        (warning,) = [r for r in caplog.records if r.name == self.LOGGER]
        assert warning.getMessage().startswith(f"replaying WAL record #{seq} (evolution) failed:")
