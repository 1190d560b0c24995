"""The population-independence gate (deterministic, no wall clock).

A façade request synchronises the work items of the cases it touched and
nothing else, so the number of markings it reads and of execution-lock
scopes it enters must not depend on how many *other* cases are live.  The gate counts
exactly that — cases synchronised (``WorklistManager.sync_offers``, one
marking pass each), ``ProcessInstance.activated_activities`` calls and
``LockTable.holding`` entries per request — for a population of 50 and
of 500 and requires the counts to be equal; a reintroduced population
scan shows up as a count that grows tenfold.  A second check bounds the
resident item set: closed items leave the manager.
"""

from contextlib import contextmanager

import pytest

from repro import AdeptSystem
from repro.runtime.instance import ProcessInstance
from repro.runtime.worklist import WorklistManager
from repro.schema import templates
from repro.system.concurrency import LockTable


class _Counts:
    def __init__(self):
        self.markings_read = 0  # cases synchronised + activated_activities() calls
        self.lock_entries = 0
        self.refreshes = 0

    def as_tuple(self):
        return (self.markings_read, self.lock_entries, self.refreshes)


@contextmanager
def _counting(monkeypatch):
    counts = _Counts()
    activated, sync_offers, holding, refresh = (
        ProcessInstance.activated_activities,
        WorklistManager.sync_offers,
        LockTable.holding,
        WorklistManager.refresh,
    )

    def counted_activated(self):
        counts.markings_read += 1
        return activated(self)

    def counted_sync_offers(self, *args, **kwargs):
        counts.markings_read += 1
        return sync_offers(self, *args, **kwargs)

    def counted_holding(self, *keys):
        counts.lock_entries += 1
        return holding(self, *keys)

    def counted_refresh(self):
        counts.refreshes += 1
        return refresh(self)

    with monkeypatch.context() as patch:
        patch.setattr(ProcessInstance, "activated_activities", counted_activated)
        patch.setattr(WorklistManager, "sync_offers", counted_sync_offers)
        patch.setattr(LockTable, "holding", counted_holding)
        patch.setattr(WorklistManager, "refresh", counted_refresh)
        yield counts


def _requests(system, orders, ids):
    """One request of each kind, each against one case."""
    first, second, third, fourth = ids[:4]
    return {
        "step_many": lambda: system.step_many([first], steps=1),
        "complete": lambda: system.complete(second, "get_order", outputs={"order": {}}),
        "apply_changeset": lambda: system.change(third)
        .serial_insert("call_customer", pred="get_order", succ="collect_data")
        .apply(),
        "delete_and_start": lambda: (system.delete_instance(fourth), orders.start()),
        "worklist": lambda: system.worklist("anyone"),
        "claim_and_complete_item": lambda: system.complete_item(
            system.claim(
                system.worklists.offered_items_for_instance(ids[4])[0].item_id, "anyone"
            ).item_id,
            outputs={"order": {}},
        ),
    }


def _profile(monkeypatch, population):
    system = AdeptSystem()
    orders = system.deploy(templates.online_order_process())
    ids = [orders.start().instance_id for _ in range(population)]
    profile = {}
    for name, request in _requests(system, orders, ids).items():
        with _counting(monkeypatch) as counts:
            request()
        profile[name] = counts.as_tuple()
    assert len(system.worklists) == population  # one open item per live case
    return profile


class TestPopulationIndependence:
    def test_request_cost_does_not_depend_on_the_live_population(self, monkeypatch):
        small = _profile(monkeypatch, 50)
        large = _profile(monkeypatch, 500)
        assert small == large
        # and the absolute numbers are per-case small, not merely equal
        assert small["worklist"] == (0, 0, 0)
        assert all(refreshes == 0 for _, _, refreshes in small.values())
        assert all(entries <= 2 for _, entries, _ in small.values())
        assert all(markings <= 4 for markings, _, _ in small.values()), small

    def test_batch_cost_is_proportional_to_the_batch(self, monkeypatch):
        system = AdeptSystem()
        orders = system.deploy(templates.online_order_process())
        ids = [orders.start().instance_id for _ in range(200)]
        per_batch = {}
        for size in (1, 10):
            with _counting(monkeypatch) as counts:
                system.step_many(ids[:size], steps=1)
            per_batch[size] = counts.markings_read
        assert per_batch[10] == 10 * per_batch[1]

    def test_resident_items_are_the_open_items(self):
        """200 complete/replace rounds leave no closed item behind."""
        system = AdeptSystem()
        sequence = system.deploy(templates.sequential_process(length=2))
        cases = [sequence.start().instance_id for _ in range(5)]
        for round_index in range(200):
            slot = round_index % len(cases)
            system.run(cases[slot])
            system.delete_instance(cases[slot])
            cases[slot] = sequence.start().instance_id
            assert len(system.worklists) == len(system.worklists.open_items()) == len(cases)
        assert system.worklists._counter >= 200  # items came and went
        assert len(system.worklists._items) == len(cases)
        assert sum(len(v) for v in system.worklists._open_by_instance.values()) == len(cases)

    def test_finished_cases_leave_nothing_behind_without_deletion(self):
        system = AdeptSystem()
        sequence = system.deploy(templates.sequential_process(length=3))
        for _ in range(50):
            system.run(sequence.start().instance_id)
        assert len(system.worklists) == 0
        assert system.worklists._open_by_instance == {}


@pytest.mark.parametrize("cache", [None, 8])
def test_evolve_synchronises_only_the_type_it_migrates(monkeypatch, tmp_path, cache):
    """An eager evolve reads the markings of its own candidates only."""
    from repro.core.operations import DeleteActivity

    system = AdeptSystem.open(tmp_path / "db", cache_instances=cache)
    orders = system.deploy(templates.online_order_process())
    sequence = system.deploy(templates.sequential_process())
    [orders.start() for _ in range(40)]
    ids = [sequence.start().instance_id for _ in range(6)]
    with _counting(monkeypatch) as counts:
        sequence.evolve([DeleteActivity(activity_id="step_1")])
    assert counts.refreshes == 0
    assert counts.markings_read <= 4 * len(ids)
    assert all(
        [i.activity_id for i in system.worklists.offered_items_for_instance(case)] == ["step_2"]
        for case in ids
    )
