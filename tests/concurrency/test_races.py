"""Regression tests for the known-sharp concurrency edges.

Each test pins one race the single-threaded design left open: double
claiming one work item, an evolve racing a ``delete_instance``, and the
LRU eviction racing a step on the same case.
"""

import threading

import pytest

from repro.runtime.engine import EngineError
from repro.runtime.worklist import WorkItemState
from repro.schema import templates
from repro.system import AdeptSystem
from repro.workloads.order_process import order_type_change_v2

from tests.concurrency.harness import run_threads, system_fingerprint


class TestWorklistDoubleClaim:
    def test_one_item_claimed_by_exactly_one_of_many_threads(self):
        system = AdeptSystem()
        process = system.deploy(templates.sequential_process())
        process.start(case_id="case")
        (item,) = system.worklists.offered_items()
        outcomes = []
        guard = threading.Lock()
        barrier = threading.Barrier(8)

        def claimer(user):
            barrier.wait()
            try:
                system.claim(item.item_id, user)
                with guard:
                    outcomes.append(user)
            except EngineError:
                pass

        run_threads([(lambda u=f"user-{n}": claimer(u)) for n in range(8)])
        assert len(outcomes) == 1
        assert item.state is WorkItemState.CLAIMED
        assert item.claimed_by == outcomes[0]
        # the one winner can complete the work normally
        system.complete_item(item.item_id, outputs=None)
        assert item.state is WorkItemState.COMPLETED

    def test_failed_claim_of_lost_case_withdraws_item(self):
        """A claim whose case resolution fails must not stay CLAIMED —
        and since nothing could ever perform it, it withdraws."""
        system = AdeptSystem()
        process = system.deploy(templates.sequential_process())
        process.start(case_id="case")
        (item,) = system.worklists.offered_items()
        # simulate a lost case: live set and store both forget it while
        # the offered item lingers (the resolve inside the claim fails)
        with system._lock.holding():
            system._instances.pop("case")
            system._dirty.discard("case")
        system.worklists.unregister_instance("case")
        with pytest.raises(EngineError):
            system.claim(item.item_id, "worker")
        assert item.state is WorkItemState.WITHDRAWN
        assert item.claimed_by is None

    def test_transient_claim_failure_reverts_item_to_offered(self):
        """When the activity is genuinely still activated, a failed claim
        re-offers the item (the PR 3 contract: never stuck CLAIMED)."""
        from contextlib import contextmanager

        system = AdeptSystem()
        process = system.deploy(templates.sequential_process())
        process.start(case_id="case")
        (item,) = system.worklists.offered_items()
        original_guard = system.worklists.execution_guard

        @contextmanager
        def flaky_guard(instance_id):
            system.worklists.execution_guard = original_guard
            raise EngineError("transient infrastructure failure")
            yield  # pragma: no cover

        system.worklists.execution_guard = flaky_guard
        with pytest.raises(EngineError):
            system.claim(item.item_id, "worker")
        assert item.state is WorkItemState.OFFERED
        assert item.claimed_by is None
        # and the retry succeeds
        system.claim(item.item_id, "worker")
        assert item.state is WorkItemState.CLAIMED

    def test_claimed_item_survives_global_refresh(self):
        """refresh() must not withdraw CLAIMED items (their activity is
        RUNNING, not ACTIVATED) — a worker holding a claim would find its
        item withdrawn by any concurrent completion elsewhere."""
        system = AdeptSystem()
        process = system.deploy(templates.sequential_process())
        process.start(case_id="one")
        other = process.start(case_id="two")
        items = {item.instance_id: item for item in system.worklists.offered_items()}
        system.claim(items["one"].item_id, "worker")
        # a completion on another case triggers a global refresh
        other.complete("step_1")
        assert items["one"].state is WorkItemState.CLAIMED
        system.complete_item(items["one"].item_id)
        assert items["one"].state is WorkItemState.COMPLETED


class TestEvolveVersusDelete:
    @pytest.mark.parametrize("round_seed", range(4))
    def test_concurrent_evolve_and_delete_stay_consistent(self, tmp_path, round_seed):
        store = str(tmp_path / f"store-{round_seed}")
        system = AdeptSystem.open(store)
        orders = system.deploy(templates.online_order_process())
        ids = [orders.start().instance_id for _ in range(12)]
        victim = ids[round_seed % len(ids)]
        barrier = threading.Barrier(2)
        deleted = []

        def evolver():
            barrier.wait()
            orders.evolve(order_type_change_v2())

        def deleter():
            barrier.wait()
            deleted.append(system.delete_instance(victim))

        run_threads([evolver, deleter])
        assert deleted == [True]
        assert victim not in system.live_instance_ids()
        assert victim not in system.stored_instance_ids()
        # every surviving case migrated (nothing was advanced, all compliant)
        for case_id in ids:
            if case_id == victim:
                continue
            assert system.get_instance(case_id).schema_version == 2

        # the WAL linearisation agrees: replay reproduces the exact state
        expected = system_fingerprint(system)
        system.backend.close()
        recovered = AdeptSystem.open(store)
        try:
            assert system_fingerprint(recovered) == expected
        finally:
            recovered.backend.close()

    def test_migration_never_sees_half_deleted_candidate(self, tmp_path):
        """Interleave many evolve/delete pairs; no run may raise or lose a record."""
        store = str(tmp_path / "store")
        system = AdeptSystem.open(store)
        orders = system.deploy(templates.sequential_process())
        ids = [orders.start().instance_id for _ in range(20)]

        def deleter():
            for case_id in ids[::2]:
                system.delete_instance(case_id)

        def stepper():
            for case_id in ids[1::2]:
                try:
                    system.complete(case_id, "step_1")
                except EngineError:
                    pass

        run_threads([deleter, stepper])
        survivors = set(system.live_instance_ids())
        assert survivors == set(ids[1::2])
        expected = system_fingerprint(system)
        system.backend.close()
        recovered = AdeptSystem.open(store)
        try:
            assert system_fingerprint(recovered) == expected
        finally:
            recovered.backend.close()


class TestEagerEvolveVersusHydration:
    def test_a_reader_cannot_hydrate_a_stored_case_mid_rewrite(self, tmp_path):
        """Eager evolve decides and rewrites an evicted case inside one operation.

        A reader (``get_instance``) started between the decision and the
        store rewrite must wait for the rewrite: had it hydrated the
        pre-migration record, the live case would stay on v1 while the
        report, the store and recovery say v2.
        """
        store = str(tmp_path / "store")
        system = AdeptSystem.open(store, cache_instances=2)
        orders = system.deploy(templates.online_order_process())
        for _ in range(6):
            orders.start()
        rewrite = system.store.migrate_record
        readers = []

        def racing_rewrite(instance_id, *args, **kwargs):
            # the first record-level rewrite: its case is evicted and decided
            if not readers:
                reader = threading.Thread(target=system.get_instance, args=(instance_id,))
                readers.append((instance_id, reader))
                reader.start()
                reader.join(timeout=0.3)  # at most this long: it must wait for us
            return rewrite(instance_id, *args, **kwargs)

        system.store.migrate_record = racing_rewrite
        report = orders.evolve(order_type_change_v2())
        ((target, reader),) = readers
        reader.join(timeout=10.0)
        assert not reader.is_alive()
        assert report.to_version == 2
        assert system.get_instance(target).schema_version == report.to_version
        system.close(checkpoint=False)
        reopened = AdeptSystem.open(store)
        try:
            assert reopened.get_instance(target).schema_version == report.to_version
        finally:
            reopened.close(checkpoint=False)


class TestScratchDecisionVersusHydration:
    def test_a_reader_waits_for_the_scratch_copys_write_back(self, tmp_path):
        """A stored case decided on a scratch copy is written back inside the sweep.

        A reader that asks for the case between the scratch load and the
        write-back must get the migrated record, not the one the scratch
        copy was loaded from.
        """
        store = str(tmp_path / "store")
        system = AdeptSystem.open(store, cache_instances=2)
        orders = system.deploy(templates.online_order_process())
        for _ in range(6):
            orders.start()
        write_back = system.store.write_back
        readers = []

        def racing_write_back(instance):
            if not readers and instance.instance_id not in system._instances:
                reader = threading.Thread(target=system.get_instance, args=(instance.instance_id,))
                readers.append((instance.instance_id, reader))
                reader.start()
                reader.join(timeout=0.3)  # at most this long: it must wait for us
            return write_back(instance)

        system.store.write_back = racing_write_back
        rollout = orders.evolve(order_type_change_v2(), rollout="lazy")
        while system.rollout_of(orders.type_id) is not None:
            system.sweep_rollout(orders.type_id)
        ((target, reader),) = readers
        reader.join(timeout=10.0)
        assert not reader.is_alive()
        assert target in rollout.adopted
        assert system.get_instance(target).schema_version == rollout.to_version
        system.close(checkpoint=False)
        reopened = AdeptSystem.open(store)
        try:
            assert reopened.get_instance(target).schema_version == rollout.to_version
        finally:
            reopened.close(checkpoint=False)


class TestSweepVersusCheckpoint:
    def test_sweeps_steps_and_checkpoints_at_once_recover_exactly(self, tmp_path):
        """Sweeps, steps and checkpoints interleave whole; nothing is lost.

        Two sweepers drain a lazy rollout over a mostly stored population
        while two threads step cases and one checkpoints in a loop, on
        fewer cores and switching often.  Nothing may fail (a checkpoint
        that met a sweep's uncommitted record would raise), and a crash
        afterwards must recover every case exactly.
        """
        import sys

        store = str(tmp_path / "store")
        system = AdeptSystem.open(store, cache_instances=6)
        process = system.deploy(templates.sequential_process(length=6))
        cases = [process.start().instance_id for _ in range(120)]
        system.step_many(cases[::3], steps=2)
        rollout = process.evolve(_review_change(), rollout="lazy")
        done = threading.Event()

        def sweeper():
            while system.rollout_of(process.type_id) is not None:
                system.sweep_rollout(process.type_id, max_cases=17)
            done.set()

        def stepper(offset):
            def run():
                for instance_id in cases[offset::7]:
                    system.step_many([instance_id], steps=1)
            return run

        def checkpointer():
            while not done.is_set():
                system.checkpoint()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads([sweeper, sweeper, stepper(0), stepper(3), checkpointer], timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert rollout.state == "completed"
        expected = system_fingerprint(system)
        system.backend.close()
        recovered = AdeptSystem.open(store, cache_instances=6)
        try:
            assert system_fingerprint(recovered) == expected
        finally:
            recovered.close(checkpoint=False)


def _review_change():
    from repro import ChangeSet

    return ChangeSet().serial_insert("review", pred="step_4", succ="step_5")


class TestEvictionVersusStep:
    def test_step_pins_case_against_eviction(self, tmp_path):
        """The LRU must never write back (or drop) a case mid-step."""
        system = AdeptSystem.open(str(tmp_path / "store"), cache_instances=2)
        process = system.deploy(templates.sequential_process())
        hot = process.start().instance_id
        cold = [process.start().instance_id for _ in range(12)]

        stop = threading.Event()

        def stepper():
            for _ in range(5):
                system.complete(hot, system.get_instance(hot).activated_activities()[0])
            stop.set()

        def churner():
            # hydrate cold cases round-robin to force constant eviction
            index = 0
            while not stop.is_set():
                system.get_instance(cold[index % len(cold)])
                index += 1

        run_threads([stepper, churner])
        instance = system.get_instance(hot)
        assert len(instance.completed_activities()) == 5
        assert not instance.status.is_active
        # and the stored copy is the final state, not a torn intermediate
        system.checkpoint()
        assert system.store.load(hot).state_fingerprint() == instance.state_fingerprint()
        system.close()
