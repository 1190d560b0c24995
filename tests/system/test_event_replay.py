"""A WAL-only reopen publishes the live run's engine and change events.

Recovery replays ``start`` / ``step`` / ``adhoc_change`` records through the
same engine calls that journaled them, and the engine reports to its one
listener, the bus.  So a subscriber to the ``engine`` and ``change``
categories of a reopened system hears the acknowledged run's event sequence
again, event for event.
"""

from repro import AdeptSystem, EventBus
from repro.schema import templates

CATEGORIES = ("engine", "change")


def _recorder(bus):
    """Subscribe to ``bus``'s engine and change events; return what it hears."""
    seen = []
    bus.subscribe(
        lambda event: seen.append(
            (event.category, event.name, event.instance_id, dict(event.payload))
        ),
        categories=CATEGORIES,
    )
    return seen


def _replayed(store):
    """Reopen ``store`` from its WAL alone; return the events the replay published."""
    bus = EventBus()
    replayed_events = _recorder(bus)
    recovered = AdeptSystem.open(store, cache_instances=3, bus=bus)
    try:
        assert recovered.last_recovery.replayed_records > 0
        assert not recovered.last_recovery.snapshot_loaded
        assert recovered.engine.event_listener == bus.publish_engine_event
    finally:
        recovered.close(checkpoint=False)
    return replayed_events


def test_a_wal_only_reopen_publishes_the_live_steps(tmp_path):
    store = str(tmp_path / "store")
    system = AdeptSystem.open(store, cache_instances=3)
    live_events = _recorder(system.bus)
    sequence = system.deploy(templates.sequential_process(length=5))
    ids = [sequence.start().instance_id for _ in range(6)]
    system.step_many(ids, steps=2)
    system.step_many(ids[::2], steps=9)
    system.complete(ids[1], system.get_instance(ids[1]).activated_activities()[0], user="ann")
    assert [name for _, name, *_ in live_events].count("instance_completed") == 3
    system.backend.close()  # crash: no checkpoint, the WAL holds everything

    assert _replayed(store) == live_events


def test_a_wal_only_reopen_publishes_the_live_adhoc_change(tmp_path):
    store = str(tmp_path / "store")
    system = AdeptSystem.open(store, cache_instances=3)
    live_events = _recorder(system.bus)
    orders = system.deploy(templates.online_order_process())
    ids = [orders.start().instance_id for _ in range(4)]
    system.step_many(ids, steps=1)
    succ = system.get_instance(ids[0]).execution_schema.successors("confirm_order")[0]
    result = (
        system.change(ids[0], comment="rush order")
        .serial_insert("call_customer", pred="confirm_order", succ=succ, role="sales")
        .apply()
    )
    assert result.ok
    system.step_many(ids, steps=20)
    assert ("change", "adhoc_change_applied") in [event[:2] for event in live_events]
    system.backend.close()

    assert _replayed(store) == live_events
