"""A replayed ``evolution`` record runs the live release and migration.

Recovery replays an eager evolve through the method that journaled it
(``system.evolution.release_and_migrate``) with the journaled candidates
and policy.  So a WAL-only reopen publishes the same ``schema`` /
``migration`` events as the acknowledged evolve did and recovers the same
case states; only the strict dry run is skipped, because the record proves
it passed.
"""

import pytest

from repro import AdeptSystem, EventBus
from repro.schema import templates
from repro.system.evolution import Evolution
from repro.workloads.order_process import ORDER_EXECUTION_SEQUENCE, order_type_change_v2

#: The events an eager evolve publishes, besides the engine stream.
EVOLUTION_EVENTS = (
    "schema_version_released",
    "bulk_migration_classes",
    "migration_completed",
    "instance_migrated",
    "migration_rejected",
)


def _recorder(bus):
    """Subscribe to ``bus``; return the list of evolution events it receives."""
    seen = []

    def record(event):
        if event.name in EVOLUTION_EVENTS:
            seen.append((event.name, event.instance_id, event.type_id, dict(event.payload)))

    bus.subscribe(record)
    return seen


def _population(orders, blocked):
    """Cases at the start of the order process, all compliant with the change;
    ``blocked`` adds cases further on, up to past ``pack_goods``, which the
    change finds in a state conflict."""
    steps = range(6 if blocked else 3)
    ids = []
    for step in steps:
        for copy in range(3):
            case = orders.start(case_id=f"case-{step}-{copy}")
            for activity in ORDER_EXECUTION_SEQUENCE[:step]:
                case.complete(activity)
            ids.append(case.instance_id)
    return ids


@pytest.mark.parametrize("policy", ["compliant", "strict", "rollback", "none"])
def test_a_wal_only_reopen_publishes_what_the_live_evolve_did(tmp_path, policy):
    store = str(tmp_path / "store")
    system = AdeptSystem.open(store, cache_instances=4)
    orders = system.deploy(templates.online_order_process())
    ids = _population(orders, blocked=policy != "strict")
    live_events = _recorder(system.bus)
    report = orders.evolve(order_type_change_v2(), migrate=policy)
    expected = {case: system.get_instance(case).state_fingerprint() for case in ids}
    assert "schema_version_released" in [name for name, *_ in live_events]
    if policy != "none":
        assert report.migrated_count > 0
    system.backend.close()  # crash: no checkpoint, the WAL holds everything

    bus = EventBus()
    replayed_events = _recorder(bus)
    recovered = AdeptSystem.open(store, cache_instances=4, bus=bus)
    try:
        assert recovered.last_recovery.replayed_by_kind["evolution"] == 1
        assert replayed_events == live_events
        assert {case: recovered.get_instance(case).state_fingerprint() for case in ids} == expected
    finally:
        recovered.close()


def test_a_journaled_strict_evolution_replays_without_its_dry_run(tmp_path, monkeypatch):
    store = str(tmp_path / "store")
    system = AdeptSystem.open(store, cache_instances=4)
    orders = system.deploy(templates.online_order_process())
    ids = _population(orders, blocked=False)
    dry_runs = []
    require = Evolution._require_all_compliant

    def counting(self, *args):
        dry_runs.append(args[0].name)
        return require(self, *args)

    monkeypatch.setattr(Evolution, "_require_all_compliant", counting)
    orders.evolve(order_type_change_v2(), migrate="strict")
    assert dry_runs == ["online_order"]
    expected = {case: system.get_instance(case).state_fingerprint() for case in ids}
    system.backend.close()

    recovered = AdeptSystem.open(store, cache_instances=4)
    try:
        assert dry_runs == ["online_order"]  # the replay ran none
        assert {case: recovered.get_instance(case).state_fingerprint() for case in ids} == expected
    finally:
        recovered.close()
