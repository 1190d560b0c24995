"""Tests for the EventBus: ordered delivery, categories, subscriber isolation."""

import pytest

from repro import AdeptSystem, EventBus, EventFeed
from repro.runtime.events import MAX_RETAINED_EVENTS
from repro.schema import templates
from repro.system.events import ALL_CATEGORIES, SystemEvent
from repro.workloads.order_process import order_type_change_v2


def ignore(event):
    pass


class TestOrderedDelivery:
    def test_engine_and_migration_events_arrive_in_order(self):
        """The acceptance scenario: one subscriber sees the whole story, ordered."""
        system = AdeptSystem()
        received = []
        system.bus.subscribe(received.append)

        orders = system.deploy(templates.online_order_process())
        case = orders.start(case_id="c1")
        case.complete("get_order")
        case.complete("collect_data")
        orders.evolve(order_type_change_v2())

        # strictly increasing sequence numbers == in-order delivery
        seqs = [event.seq for event in received]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

        names = [event.name for event in received]
        # engine events and migration events are interleaved in causal order
        expected_subsequence = [
            "type_deployed",
            "instance_created",
            "activity_completed",  # get_order
            "activity_completed",  # collect_data
            "schema_version_released",
            "instance_migrated",
            "migration_completed",
        ]
        positions = []
        cursor = 0
        for wanted in expected_subsequence:
            cursor = names.index(wanted, cursor)
            positions.append(cursor)
            cursor += 1
        assert positions == sorted(positions)

        # engine events carry the instance id, migration summary the counts
        completed = [e for e in received if e.name == "activity_completed"]
        assert all(e.instance_id == "c1" for e in completed)
        summary = [e for e in received if e.name == "migration_completed"][0]
        assert summary.payload["migrated"] == 1
        assert summary.payload["total"] == 1

    def test_monitoring_feed_is_first_subscriber(self):
        system = AdeptSystem()
        assert isinstance(system.feed, EventFeed)
        system.deploy(templates.online_order_process())
        assert system.feed.names() == ["type_deployed"]
        assert system.feed.events[0].seq == 1

    def test_feed_can_be_disabled(self):
        system = AdeptSystem(monitor=False)
        assert system.feed is None
        assert system.bus.subscriber_count == 0


class TestSubscriptionApi:
    def test_category_filtering(self):
        system = AdeptSystem()
        migrations = []
        system.bus.subscribe(migrations.append, categories=["migration", "schema"])
        orders = system.deploy(templates.online_order_process())
        orders.start().complete("get_order")
        orders.evolve(order_type_change_v2())
        assert {event.category for event in migrations} <= {"migration", "schema"}
        assert "migration_completed" in [event.name for event in migrations]
        assert "activity_completed" not in [event.name for event in migrations]

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        token = bus.subscribe(seen.append)
        bus.publish("system", "one")
        assert bus.unsubscribe(token)
        bus.publish("system", "two")
        assert [event.name for event in seen] == ["one"]
        assert not bus.unsubscribe(token)

    def test_pluggable_bus(self):
        """The façade accepts an externally owned bus."""
        bus = EventBus()
        external = []
        bus.subscribe(external.append)
        system = AdeptSystem(bus=bus)
        system.deploy(templates.online_order_process())
        assert [event.name for event in external] == ["type_deployed"]
        assert system.bus is bus

    def test_broken_subscriber_does_not_break_execution(self):
        system = AdeptSystem()

        def broken(event):
            raise RuntimeError("dashboard down")

        system.bus.subscribe(broken)
        orders = system.deploy(templates.online_order_process())
        case = orders.start()
        assert case.run().ok  # execution unaffected
        assert system.bus.delivery_errors
        handler, event, error = system.bus.delivery_errors[0]
        assert handler is broken
        assert isinstance(error, RuntimeError)

    def test_subscribing_and_unsubscribing_mid_delivery_leaves_the_event_in_flight_alone(self):
        """Each event goes to exactly the subscribers registered when it was
        published: a handler that unsubscribes itself still hears it once
        and never again, one subscribed mid-delivery starts with the next
        event, and a raising neighbour is recorded, not propagated."""
        bus = EventBus()
        heard = {"once": [], "late": [], "steady": []}
        tokens = {}

        def once(event):
            heard["once"].append(event.name)
            assert bus.unsubscribe(tokens["once"])
            bus.subscribe(lambda late_event: heard["late"].append(late_event.name))

        def broken(event):
            raise RuntimeError("dashboard down")

        tokens["once"] = bus.subscribe(once)
        bus.subscribe(broken)
        bus.subscribe(lambda event: heard["steady"].append(event.name))
        for name in ("one", "two", "three"):
            bus.publish("system", name)

        assert heard == {
            "once": ["one"],
            "late": ["two", "three"],
            "steady": ["one", "two", "three"],
        }
        assert [(handler, event.name) for handler, event, _ in bus.delivery_errors] == [
            (broken, "one"),
            (broken, "two"),
            (broken, "three"),
        ]
        assert bus.subscriber_count == 3

    def test_a_bare_string_is_not_a_category_list(self):
        """``categories="migration"`` would subscribe to its letters and hear
        nothing; it is refused, while custom category names stay allowed."""
        bus = EventBus()
        with pytest.raises(TypeError, match="migration"):
            bus.subscribe(ignore, categories="migration")
        assert bus.subscriber_count == 0 and bus.wanted == frozenset()
        heard = []
        bus.subscribe(heard.append, categories=("migration", "audit"))
        bus.publish("audit", "custom")
        bus.publish("migration", "migrated")
        assert [event.name for event in heard] == ["custom", "migrated"]


class TestOnDemand:
    """The bus builds an event only for a category some subscriber wants."""

    def test_wanted_is_the_union_of_the_subscriptions(self):
        bus = EventBus()
        assert bus.wanted == frozenset()
        heard = []
        migrations = bus.subscribe(heard.append, categories=["migration"])
        assert bus.wanted == {"migration"}
        everything = bus.subscribe(ignore)
        assert bus.wanted == set(ALL_CATEGORIES)
        bus.unsubscribe(everything)
        assert bus.wanted == {"migration"}
        assert bus.publish("system", "unwanted") is None
        assert bus.publish("migration", "wanted").seq == 1
        bus.unsubscribe(migrations)
        assert bus.wanted == frozenset()
        assert bus.publish("migration", "wanted") is None
        assert [event.name for event in heard] == ["wanted"]

    def test_default_feed_leaves_steps_unbuilt_at_the_bus(self):
        """Every step reaches the bus through the engine's one listener; with
        only the default feed subscribed, the bus builds none of them."""
        system = AdeptSystem()
        sequence = system.deploy(templates.sequential_process(length=5))
        ids = [sequence.start().instance_id for _ in range(20)]
        before = len(system.feed)
        offered = []
        to_bus = system.engine.event_listener
        assert to_bus == system.bus.publish_engine_event
        system.engine.event_listener = lambda event: offered.append((event, to_bus(event)))
        steps = sum(result.steps for result in system.step_many(ids, steps=5))
        assert steps == 100
        names = [event.event_type.value for event, _ in offered]
        assert names.count("activity_completed") == steps
        assert names.count("instance_completed") == len(ids)
        assert [built for _, built in offered] == [None] * len(offered)
        assert len(system.feed) == before
        assert "engine" not in system.feed.category_counts()

    def test_engine_subscriber_added_mid_run_hears_the_steps_from_then_on(self):
        system = AdeptSystem()
        orders = system.deploy(templates.online_order_process())
        early = orders.start(case_id="early")
        early.complete("get_order")
        heard = []
        token = system.bus.subscribe(heard.append, categories=["engine", "migration"])
        early.complete("collect_data")
        orders.evolve(order_type_change_v2())
        late = orders.start(case_id="late")
        assert system.bus.unsubscribe(token)
        late.complete("get_order")
        early.complete("compose_order")

        # the steps from the subscription on, interleaved with the migration
        # in causal order, and nothing after the unsubscription
        assert [(event.name, event.instance_id, event.payload.get("node")) for event in heard] == [
            ("activity_started", "early", "collect_data"),
            ("activity_completed", "early", "collect_data"),
            ("activity_activated", "early", "confirm_order"),
            ("activity_activated", "early", "compose_order"),
            ("instance_migrated", "early", None),
            ("migration_completed", None, None),
            ("instance_created", "late", None),
            ("activity_activated", "late", "get_order"),
        ]
        seqs = [event.seq for event in heard]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        # the feed got the very migration events the late subscriber heard
        assert [event for event in system.feed.events if event.category == "migration"] == [
            event for event in heard if event.category == "migration"
        ]

    def test_without_a_feed_a_step_builds_no_event(self, monkeypatch):
        import repro.system.events as events_module

        system = AdeptSystem(monitor=False)
        sequence = system.deploy(templates.sequential_process(length=4))
        case = sequence.start()

        def forbidden(*args):
            raise AssertionError("built a SystemEvent nobody wants")

        monkeypatch.setattr(events_module, "SystemEvent", forbidden)
        assert case.run().ok
        assert len(case.completed_activities()) == 4
        monkeypatch.undo()
        # no sequence number was taken: the first wanted event is number one
        system.bus.subscribe(ignore, categories=["system"])
        assert system.bus.publish("system", "first").seq == 1


class TestRetention:
    def test_thirty_thousand_steps_leave_the_feed_at_its_bound(self, tmp_path):
        """Events are a window, not an archive: the monitoring feed, the one
        place that retains them, holds its newest events at the one bound —
        while sequence numbers and the feed's counts keep counting and order
        is kept."""
        system = AdeptSystem.open(tmp_path / "db")
        # the feed also asks for the per-step engine events, so the bus builds them
        system.bus.subscribe(system.feed, categories=["engine"])
        sequence = system.deploy(templates.sequential_process(length=6))
        steps = deleted = 0
        while steps < 30000:
            ids = [sequence.start().instance_id for _ in range(250)]
            steps += sum(result.steps for result in system.step_many(ids, steps=6))
            for case_id in ids:
                system.delete_instance(case_id)
            deleted += len(ids)

        window = system.feed.events
        assert len(window) == system.feed.max_events == MAX_RETAINED_EVENTS
        # nothing stopped counting: far more was published than is retained
        # (the feed wants every category, so it got every published event)
        published = window[-1].seq
        assert published > 2 * steps > system.feed.max_events
        # and the window is the unbroken tail of what was published
        assert [event.seq for event in window] == list(
            range(published - len(window) + 1, published + 1)
        )
        assert system.feed.names()[-1] == "instance_deleted"
        # the counts are over everything delivered, not over the window
        assert sum(system.feed.category_counts().values()) == published
        assert system.feed.counts()["instance_completed"] == deleted
        assert system.feed.storage_summary()["instance_deleted"] == deleted
        system.close()

    def test_a_subscriber_that_always_raises_leaves_a_bounded_error_window(self):
        """Each recorded failure holds its exception, traceback and frames,
        so failures are a window like the feed's, with an exact count."""
        bus = EventBus()
        bus.subscribe(ignore)

        def broken(event):
            raise RuntimeError(event.name)

        bus.subscribe(broken)
        publishes = 3 * MAX_RETAINED_EVENTS
        for index in range(publishes):
            bus.publish("system", f"e{index}")
        assert len(bus.delivery_errors) == MAX_RETAINED_EVENTS
        assert bus.delivery_failures == publishes
        assert [str(error) for _, _, error in bus.delivery_errors] == [
            f"e{index}" for index in range(publishes - MAX_RETAINED_EVENTS, publishes)
        ]
        assert all(handler is broken for handler, _, _ in bus.delivery_errors)

    def test_summaries_are_exact_past_the_window(self):
        feed = EventFeed(max_events=5)
        names = [
            "instance_loaded",
            "instance_evicted",
            "rollout_case_adopted",
            "rollout_case_conflict",
        ] * 4 + ["checkpoint_completed", "rollout_started", "rollout_completed", "recovery_completed"]
        categories = {"rollout_case_adopted": "migration", "rollout_case_conflict": "migration"}
        for seq, name in enumerate(names, start=1):
            feed(SystemEvent(seq, categories.get(name, "system"), name))

        assert len(feed) == 5
        assert feed.names() == names[-5:]
        assert feed.counts() == {
            "instance_loaded": 4,
            "instance_evicted": 4,
            "rollout_case_adopted": 4,
            "rollout_case_conflict": 4,
            "checkpoint_completed": 1,
            "rollout_started": 1,
            "rollout_completed": 1,
            "recovery_completed": 1,
        }
        assert feed.category_counts() == {"system": 12, "migration": 8}
        assert feed.storage_summary() == {
            "instance_loaded": 4,
            "instance_evicted": 4,
            "instance_saved": 0,
            "instance_deleted": 0,
            "checkpoint_completed": 1,
            "recovery_completed": 1,
        }
        assert feed.rollout_summary() == {
            "rollout_started": 1,
            "rollout_case_adopted": 4,
            "rollout_case_conflict": 4,
            "rollout_promoted": 0,
            "rollout_rolled_back": 0,
            "rollout_swept": 0,
            "rollout_completed": 1,
        }

        feed.clear()
        assert len(feed) == 0 and feed.names() == []
        assert feed.counts() == {} and feed.category_counts() == {}
        assert set(feed.storage_summary().values()) == {0}
        assert set(feed.rollout_summary().values()) == {0}

