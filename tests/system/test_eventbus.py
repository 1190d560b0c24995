"""Tests for the EventBus: ordered delivery, categories, subscriber isolation,
and that no event outlives its delivery."""

import gc
import logging
import sys
import types

import pytest

from repro import AdeptSystem, EventBus, EventFeed
from repro.runtime.events import EngineEvent
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
        assert system.bus.subscriber_count == 1
        heard = []
        system.bus.subscribe(heard.append)
        system.deploy(templates.online_order_process())
        assert [(event.seq, event.name) for event in heard] == [(1, "type_deployed")]
        assert system.feed.counts() == {"type_deployed": 1}
        assert system.feed.category_counts() == {"schema": 1}

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

    def test_broken_subscriber_does_not_break_execution(self, caplog):
        system = AdeptSystem()
        delivered = []

        def broken(event):
            delivered.append(event.name)
            raise RuntimeError("dashboard down")

        system.bus.subscribe(broken)
        with caplog.at_level(logging.WARNING, logger="repro.system.events"):
            orders = system.deploy(templates.online_order_process())
            case = orders.start()
            assert case.run().ok  # execution unaffected
        # every failed delivery is counted and logged once, naming the
        # subscriber, the event and the exception
        records = [record for record in caplog.records if record.name == "repro.system.events"]
        assert system.bus.delivery_failures == len(delivered) == len(records) > 1
        for record, name in zip(records, delivered):
            assert record.levelno == logging.WARNING
            message = record.getMessage()
            assert repr(broken) in message and f" {name}: " in message
            assert "RuntimeError: dashboard down" in message
            assert record.exc_info[0] is RuntimeError
        assert delivered[0] == "type_deployed"

    def test_subscribing_and_unsubscribing_mid_delivery_leaves_the_event_in_flight_alone(
        self, caplog
    ):
        """Each event goes to exactly the subscribers registered when it was
        published: a handler that unsubscribes itself still hears it once
        and never again, one subscribed mid-delivery starts with the next
        event, and a raising neighbour is counted and logged, not propagated."""
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
        with caplog.at_level(logging.WARNING, logger="repro.system.events"):
            for name in ("one", "two", "three"):
                bus.publish("system", name)

        assert heard == {
            "once": ["one"],
            "late": ["two", "three"],
            "steady": ["one", "two", "three"],
        }
        assert bus.delivery_failures == 3
        assert [
            record.getMessage()
            for record in caplog.records
            if record.name == "repro.system.events"
        ] == [
            f"subscriber {broken!r} failed on event {name}: RuntimeError: dashboard down"
            for name in ("one", "two", "three")
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
        before = system.feed.counts()
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
        assert system.feed.counts() == before
        assert "engine" not in system.feed.category_counts()

    def test_engine_subscriber_added_mid_run_hears_the_steps_from_then_on(self):
        system = AdeptSystem()
        migrations = []
        system.bus.subscribe(migrations.append, categories=["migration"])
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
        # a subscriber from the start got the very migration events the late
        # subscriber heard, and the feed counted them
        assert migrations == [event for event in heard if event.category == "migration"]
        assert system.feed.category_counts()["migration"] == len(migrations) == 2

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


def _alive(kinds):
    """The objects of ``kinds`` the garbage collector can still reach."""
    gc.collect()
    return [obj for obj in gc.get_objects() if isinstance(obj, kinds)]


_OPAQUE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, types.MethodType)


def _footprint(*roots):
    """Bytes of every object reachable from ``roots``, short of code and modules."""
    seen, stack, total = set(), list(roots), 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


class _CountingHandler(logging.Handler):
    """Counts the records it is handed and keeps only the newest message."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0
        self.last = None

    def emit(self, record):
        self.count += 1
        self.last = (record.levelno, record.exc_info[0], record.getMessage())


class TestRetention:
    """No event outlives its delivery: the feed keeps counts, the bus counts
    and logs failed deliveries, and neither grows with event traffic."""

    @staticmethod
    def _assert_exact(system, steps, cases, first, durable):
        """The feed counted exactly what this incarnation of ``system`` published."""
        expected = dict.fromkeys(("activity_activated", "activity_started", "activity_completed"), steps)
        expected.update(dict.fromkeys(("instance_created", "instance_completed", "instance_deleted"), cases))
        if first:
            expected["type_deployed"] = 1
        if durable:
            expected["recovery_completed"] = 1
        assert system.feed.counts() == expected
        # the feed heard every event the bus numbered, this probe included
        probe = system.bus.publish("system", "probe")
        assert sum(system.feed.category_counts().values()) == probe.seq

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
    def test_thirty_thousand_steps_leave_no_event_behind(self, durable, tmp_path):
        """30 000 steps, each case deleted after it finished, a durable system
        restarted every 6 000: no event survives its delivery, the bus and
        the feed stay the size they were at 9 000 steps, and the counts are
        exact."""
        earlier = {id(event) for event in _alive((SystemEvent, EngineEvent))}

        def construct():
            system = AdeptSystem.open(tmp_path / "db") if durable else AdeptSystem()
            # the feed also counts the per-step engine events, so the bus builds them
            system.bus.subscribe(system.feed, categories=["engine"])
            return system

        system = construct()
        sequence = system.deploy(templates.sequential_process(length=6))
        first = True
        size = None
        rounds = steps = cases = 0
        while rounds < 20:
            ids = [sequence.start().instance_id for _ in range(250)]
            steps += sum(result.steps for result in system.step_many(ids, steps=6))
            for case_id in ids:
                system.delete_instance(case_id)
            cases += len(ids)
            rounds += 1
            if rounds == 6:
                size = _footprint(system.bus, system.feed)
            if durable and rounds % 4 == 0 and rounds < 20:
                # a clean restart: the closed incarnation counted exactly what
                # it published, and the reopened one starts counting afresh
                self._assert_exact(system, steps, cases, first, durable)
                system.close()
                system = construct()
                sequence = system.type("sequence")
                first = False
                steps = cases = 0
        assert steps == (6000 if durable else 30000)

        # the bus and the feed are no bigger after 30 000 steps than after 9 000
        assert _footprint(system.bus, system.feed) - size <= 16 * 1024
        self._assert_exact(system, steps, cases, first, durable)
        system.close()
        # and nothing kept an event after its delivery
        assert [
            event for event in _alive((SystemEvent, EngineEvent)) if id(event) not in earlier
        ] == []

    def test_a_subscriber_that_always_raises_leaves_no_exception_behind(self, monkeypatch):
        """Each failure's exception holds its traceback and frames: the bus
        counts and logs it and keeps none."""

        class DashboardDown(RuntimeError):
            pass

        def broken(event):
            raise DashboardDown(event.name)

        bus = EventBus()
        bus.subscribe(ignore)
        bus.subscribe(broken)
        warnings = _CountingHandler()
        logger = logging.getLogger("repro.system.events")
        # a capturing handler up the tree would keep every record and its exception
        monkeypatch.setattr(logger, "propagate", False)
        logger.addHandler(warnings)
        try:
            for index in range(30000):
                bus.publish("system", f"e{index}")
        finally:
            logger.removeHandler(warnings)
        assert bus.delivery_failures == warnings.count == 30000
        assert warnings.last == (
            logging.WARNING,
            DashboardDown,
            f"subscriber {broken!r} failed on event e29999: DashboardDown: e29999",
        )
        assert _alive(DashboardDown) == []

    def test_summaries_are_exact_counts(self):
        feed = EventFeed()
        names = [
            "instance_loaded",
            "instance_evicted",
            "rollout_case_adopted",
            "rollout_case_conflict",
        ] * 4 + ["checkpoint_completed", "rollout_started", "rollout_completed", "recovery_completed"]
        categories = {"rollout_case_adopted": "migration", "rollout_case_conflict": "migration"}
        for seq, name in enumerate(names, start=1):
            feed(SystemEvent(seq, categories.get(name, "system"), name))

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
        assert feed.counts() == {} and feed.category_counts() == {}
        assert set(feed.storage_summary().values()) == {0}
        assert set(feed.rollout_summary().values()) == {0}
