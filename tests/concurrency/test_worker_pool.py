"""The parallel worklist scheduler: serve/drain, stealing, evolve under load."""

import threading
import time

import pytest

from repro.runtime.engine import EngineError
from repro.schema import templates
from repro.system import AdeptSystem, WorkerPool, simulated_latency_worker
from repro.workloads.order_process import order_type_change_v2

from tests.chaos.harness import check_worklist_parity
from tests.concurrency.harness import system_fingerprint


@pytest.fixture(autouse=True)
def _parity_after_every_drain(monkeypatch):
    """Every successful ``drain()`` in this module ends parity-clean: the
    pool has no closing global refresh to paper over a missed sync."""
    drain = AdeptSystem.drain

    def checked_drain(self, *args, **kwargs):
        stats = drain(self, *args, **kwargs)
        check_worklist_parity(self)
        return stats

    monkeypatch.setattr(AdeptSystem, "drain", checked_drain)


class TestServeDrain:
    def test_drain_completes_every_case(self):
        system = AdeptSystem()
        process = system.deploy(templates.sequential_process())
        ids = [process.start().instance_id for _ in range(25)]
        system.serve(workers=4)
        stats = system.drain()
        assert stats.items_completed == 25 * 5
        assert not stats.errors
        for case_id in ids:
            assert not system.get_instance(case_id).status.is_active

    def test_serve_twice_without_drain_is_rejected(self):
        system = AdeptSystem()
        system.deploy(templates.sequential_process())
        system.serve(workers=2)
        with pytest.raises(EngineError):
            system.serve(workers=2)
        system.drain()
        system.serve(workers=2)  # after a drain a fresh pool may start
        system.drain()

    def test_drain_without_serve_is_rejected(self):
        system = AdeptSystem()
        with pytest.raises(EngineError):
            system.drain()

    def test_pool_handles_loops_and_branches(self):
        """Auto-generated outputs must drive loops and XOR guards to completion."""
        system = AdeptSystem()
        loop = system.deploy(templates.loop_process())
        order = system.deploy(templates.online_order_process())
        ids = [loop.start().instance_id for _ in range(6)]
        ids += [order.start().instance_id for _ in range(6)]
        system.serve(workers=3)
        stats = system.drain()
        assert not stats.errors
        for case_id in ids:
            assert not system.get_instance(case_id).status.is_active

    def test_work_started_mid_serve_is_picked_up(self):
        system = AdeptSystem()
        process = system.deploy(templates.sequential_process())
        system.serve(workers=2)
        late = [process.start().instance_id for _ in range(10)]
        stats = system.drain()
        assert stats.items_completed == 10 * 5
        for case_id in late:
            assert not system.get_instance(case_id).status.is_active

    def test_workers_steal_across_types(self):
        system = AdeptSystem()
        # two types with very different backlogs: the workers assigned to
        # the short queue must steal from the long one
        short = system.deploy(templates.online_order_process())
        long = system.deploy(templates.sequential_process())
        for _ in range(2):
            short.start()
        for _ in range(30):
            long.start()
        system.serve(workers=4, worker=simulated_latency_worker(0.001))
        stats = system.drain()
        assert stats.items_completed >= 30 * 5
        assert not stats.errors
        assert stats.steals > 0
        assert all(count > 0 for count in stats.steps_by_worker.values())


class TestPoolAuthorization:
    def test_pool_drains_role_restricted_items(self):
        """The pool executes as the system: org-model roles gate human
        worklists, not the scheduler.  (Regression: unauthorised pool
        claims left items offered and drain() livelocked forever.)"""
        from repro.org.model import OrgModel, Role, User

        org = OrgModel()
        org.add_role(Role("worker"))
        org.add_user(User("erik", roles={"worker"}))
        system = AdeptSystem(org_model=org)
        # sequential_process activities carry staff_assignment='worker'
        process = system.deploy(templates.sequential_process())
        ids = [process.start().instance_id for _ in range(6)]
        system.serve(workers=3)
        stats = system.drain(timeout=30)
        assert stats.items_completed == 6 * 5
        assert not stats.errors
        for case_id in ids:
            assert not system.get_instance(case_id).status.is_active
        # human claims still honour roles
        process.start()
        (item,) = system.worklists.offered_items()
        with pytest.raises(EngineError):
            system.claim(item.item_id, "mallory")
        system.claim(item.item_id, "erik")

    def test_concurrent_serve_calls_have_one_winner(self):
        system = AdeptSystem()
        process = system.deploy(templates.sequential_process())
        for _ in range(10):
            process.start()
        winners, losers = [], []
        barrier = threading.Barrier(4)

        def contender():
            barrier.wait()
            try:
                winners.append(system.serve(workers=2))
            except EngineError:
                losers.append(1)

        threads = [threading.Thread(target=contender, daemon=True) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(winners) == 1 and len(losers) == 3
        stats = system.drain()
        assert stats.items_completed == 10 * 5

    def test_stale_item_withdraws_instead_of_livelocking_drain(self):
        """Regression (confirmed livelock): an offered item whose activity
        is no longer activated must withdraw on a failed claim, not
        bounce back to OFFERED forever — drain() would otherwise spin on
        claim → fail → re-offer → resync → claim ..."""
        from repro.runtime.worklist import WorkItemState

        from repro.runtime.worklist import WorkItem

        system = AdeptSystem()
        process = system.deploy(templates.sequential_process())
        process.start(case_id="case")
        # complete step_1, then plant a stale OFFERED item for it (the
        # production shape: a claim whose execution scope failed to open
        # goes back to OFFERED unchecked while a direct completion of the
        # same activity slipped in between)
        system.complete("case", "step_1")
        worklists = system.worklists
        with worklists._lock:
            stale = WorkItem(
                item_id="wi-stale", instance_id="case", activity_id="step_1", role="worker"
            )
            worklists._items[stale.item_id] = stale
            worklists._open_by_instance["case"]["step_1"] = stale

        system.serve(workers=2)
        stats = system.drain(timeout=30)  # must terminate, not livelock
        # closed items leave the manager; the held handle shows how it ended
        assert stale.state is WorkItemState.WITHDRAWN
        assert len(worklists) == 0
        assert not system.get_instance("case").status.is_active
        assert stats.items_completed == 4  # step_2..step_5 still performed

    def test_withdrawn_item_is_not_resurrected_by_failed_claim(self):
        """Regression: a claim racing discard_instance must not flip a
        WITHDRAWN item back to OFFERED (a phantom no one could clear)."""
        from repro.runtime.worklist import WorkItemState

        system = AdeptSystem()
        process = system.deploy(templates.sequential_process())
        process.start(case_id="victim")
        (item,) = system.worklists.offered_items()

        original_guard = system.worklists.execution_guard
        from contextlib import contextmanager

        @contextmanager
        def delete_mid_claim(instance_id):
            # after the claim reserved the item, the case disappears and
            # its items are withdrawn before the engine start runs
            system.worklists.discard_instance("victim")
            with system._lock.holding():
                system._instances.pop("victim", None)
                system._dirty.discard("victim")
            system.worklists.execution_guard = original_guard
            with original_guard(instance_id) as instance:
                yield instance

        system.worklists.execution_guard = delete_mid_claim
        with pytest.raises(EngineError):
            system.claim(item.item_id, "worker")
        assert item.state is WorkItemState.WITHDRAWN
        assert item.item_id not in {
            offered.item_id for offered in system.worklists.offered_items()
        }


class TestEvolveDuringServe:
    def test_evolve_quiesces_only_affected_type(self):
        system = AdeptSystem()
        orders = system.deploy(templates.online_order_process())
        other = system.deploy(templates.sequential_process())
        order_ids = [orders.start().instance_id for _ in range(20)]
        other_ids = [other.start().instance_id for _ in range(20)]

        system.serve(workers=4, worker=simulated_latency_worker(0.001))
        time.sleep(0.02)
        report = orders.evolve(order_type_change_v2())
        stats = system.drain()
        assert not stats.errors
        assert report.total == 20
        # cases that had not reached the change region migrated; they and
        # everyone else still ran to completion afterwards
        for case_id in order_ids + other_ids:
            assert not system.get_instance(case_id).status.is_active

    def test_migrated_set_equals_new_version_population(self, tmp_path):
        system = AdeptSystem.open(str(tmp_path / "store"))
        orders = system.deploy(templates.online_order_process())
        ids = [orders.start().instance_id for _ in range(40)]
        system.step_many(ids[:15], steps=4)  # past the insertion point

        system.serve(workers=4, worker=simulated_latency_worker(0.001))
        time.sleep(0.02)
        report = orders.evolve(order_type_change_v2())
        stats = system.drain()
        assert not stats.errors

        migrated = {r.instance_id for r in report.results if r.migrated}
        on_v2 = {h.instance_id for h in orders.instances(version=report.to_version)}
        assert on_v2 == migrated

        expected = system_fingerprint(system)
        system.backend.close()
        recovered = AdeptSystem.open(str(tmp_path / "store"))
        try:
            assert system_fingerprint(recovered) == expected
        finally:
            recovered.backend.close()
