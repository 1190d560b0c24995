"""Tests for the worklist manager and the engine's events."""

import pytest

from repro.core.adhoc import AdHocChanger
from repro.core.operations import DeleteActivity
from repro.org.model import example_org_model
from repro.runtime.engine import EngineError, ProcessEngine
from repro.runtime.events import EngineEvent, EventType
from repro.runtime.states import InstanceStatus
from repro.runtime.worklist import WorkItemState, WorklistManager


@pytest.fixture
def org_model():
    return example_org_model()


@pytest.fixture
def worklists(engine, org_model):
    return WorklistManager(engine, org_model=org_model)


class TestWorklist:
    def test_items_created_for_activated_activities(self, engine, worklists, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        worklists.register_instance(instance)
        items = worklists.open_items()
        assert len(items) == 1
        assert items[0].activity_id == "get_order"
        assert items[0].role == "clerk"

    def test_worklist_filtered_by_role(self, engine, worklists, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        worklists.register_instance(instance)
        assert worklists.worklist_for("alice")  # alice is a clerk
        assert not worklists.worklist_for("bob")  # bob is warehouse/logistics

    def test_claim_and_complete(self, engine, worklists, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        worklists.register_instance(instance)
        item = worklists.worklist_for("alice")[0]
        claimed = worklists.claim(item.item_id, "alice")
        assert claimed.state is WorkItemState.CLAIMED
        completed = worklists.complete(item.item_id, outputs={"order": {"id": 9}})
        # the caller's handle shows the final state; the manager let go of it
        assert completed is item and completed.state is WorkItemState.COMPLETED
        assert instance.data.get("order") == {"id": 9}
        with pytest.raises(EngineError, match="unknown work item"):
            worklists.complete(item.item_id)
        # completing synchronised the case: the next activity is offered,
        # and only open items are resident
        assert [i.activity_id for i in worklists.open_items()] == ["collect_data"]
        assert len(worklists) == 1

    def test_an_auto_output_completion_resolves_its_case_once(
        self, engine, worklists, order_schema, monkeypatch
    ):
        """The pool's path (``auto_outputs=True``) generates the outputs and
        completes the activity on one lookup of the case's kernel, where
        ``outputs_for`` + ``complete_activity`` took two."""
        instances = [engine.create_instance(order_schema, f"i{k}") for k in range(3)]
        for instance in instances:
            worklists.register_instance(instance)
        lookups = []
        kernel_of = ProcessEngine._kernel_of

        def counted(self, instance):
            lookups.append(instance.instance_id)
            return kernel_of(self, instance)

        monkeypatch.setattr(ProcessEngine, "_kernel_of", counted)
        completed = 0
        while worklists.open_items():
            # a claim starts the activity: an operation, and a lookup, of its own
            item = worklists.claim(worklists.open_items()[0].item_id, "pool", enforce_roles=False)
            del lookups[:]
            worklists.complete(item.item_id, auto_outputs=True)
            assert lookups == [item.instance_id]
            completed += 1
        assert all(instance.status is InstanceStatus.COMPLETED for instance in instances)
        assert completed > len(instances)

    def test_claim_requires_role(self, engine, worklists, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        worklists.register_instance(instance)
        item = worklists.open_items()[0]
        with pytest.raises(EngineError):
            worklists.claim(item.item_id, "bob")

    def test_complete_requires_claim(self, engine, worklists, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        worklists.register_instance(instance)
        item = worklists.open_items()[0]
        with pytest.raises(EngineError):
            worklists.complete(item.item_id)

    def test_unknown_item_rejected(self, worklists):
        with pytest.raises(EngineError):
            worklists.claim("wi-missing", "alice")

    def test_items_withdrawn_when_activity_deleted(self, engine, worklists, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        engine.complete_activity(instance, "get_order")
        engine.complete_activity(instance, "collect_data")
        worklists.register_instance(instance)
        (offered,) = [i for i in worklists.open_items() if i.activity_id == "confirm_order"]
        AdHocChanger(engine).apply(
            instance,
            [DeleteActivity(activity_id="confirm_order", supply_values={"confirmation": True})],
        )
        worklists.sync_instance(instance)
        # the held handle shows the final state; a closed item is not resident
        assert offered.state is WorkItemState.WITHDRAWN
        assert offered not in worklists.items_for_instance("i1")
        assert all(i.activity_id != "confirm_order" for i in worklists.open_items())
        with pytest.raises(EngineError, match="unknown work item"):
            worklists.claim(offered.item_id, "alice")

    def test_refresh_resynchronises_cases_stepped_behind_the_managers_back(
        self, engine, worklists, order_schema, sequence_schema
    ):
        first = engine.create_instance(order_schema, "i1")
        second = engine.create_instance(sequence_schema, "i2")
        worklists.register_instance(first)
        worklists.register_instance(second)
        engine.complete_activity(first, "get_order")
        engine.run_to_completion(second)
        worklists.refresh()
        assert {(i.instance_id, i.activity_id) for i in worklists.open_items()} == {
            ("i1", "collect_data")
        }
        assert len(worklists) == 1

    def test_claimed_item_stays_while_its_activity_runs(self, engine, worklists, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        worklists.register_instance(instance)
        item = worklists.claim(worklists.open_items()[0].item_id, "alice")
        worklists.sync_instance(instance)
        assert item.state is WorkItemState.CLAIMED
        assert worklists.items_for_instance("i1") == [item]
        assert worklists.worklist_for("alice") == []  # claimed is not offered

    def test_claimed_item_withdraws_when_the_work_is_taken_from_under_it(
        self, engine, worklists, order_schema
    ):
        instance = engine.create_instance(order_schema, "i1")
        worklists.register_instance(instance)
        item = worklists.claim(worklists.open_items()[0].item_id, "alice")
        # somebody completes the running activity directly through the engine
        engine.complete_activity(instance, "get_order", outputs={"order": {}})
        worklists.sync_instance(instance)
        assert item.state is WorkItemState.WITHDRAWN
        with pytest.raises(EngineError, match="unknown work item"):
            worklists.complete(item.item_id)
        assert [i.activity_id for i in worklists.open_items()] == ["collect_data"]

    def test_an_aborted_case_keeps_nothing_open(self, engine, worklists, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        worklists.register_instance(instance)
        item = worklists.claim(worklists.open_items()[0].item_id, "alice")
        engine.abort_instance(instance)
        worklists.sync_instance(instance)
        assert item.state is WorkItemState.WITHDRAWN
        assert len(worklists) == 0

    def test_sync_offers_of_an_unmaterialised_case_leaves_claims_alone(
        self, engine, worklists, order_schema
    ):
        """A migration rewriting a stored record knows what the adapted
        marking activates, not what is running."""
        instance = engine.create_instance(order_schema, "i1")
        worklists.register_instance(instance)
        item = worklists.claim(worklists.open_items()[0].item_id, "alice")
        worklists.sync_offers("i1", {"send_questions": "sales"})
        assert item.state is WorkItemState.CLAIMED
        assert sorted(i.activity_id for i in worklists.items_for_instance("i1")) == [
            "get_order",
            "send_questions",
        ]
        worklists.sync_offers("i1", {})
        assert worklists.items_for_instance("i1") == [item]

    def test_user_without_org_model_can_do_anything(self, engine, order_schema):
        worklists = WorklistManager(engine)  # no org model
        instance = engine.create_instance(order_schema, "i1")
        worklists.register_instance(instance)
        assert worklists.worklist_for("whoever")

    def test_multiple_instances_tracked(self, engine, worklists, order_schema, sequence_schema):
        first = engine.create_instance(order_schema, "i1")
        second = engine.create_instance(sequence_schema, "i2")
        worklists.register_instance(first)
        worklists.register_instance(second)
        assert len(worklists.open_items()) == 2
        assert len(worklists.items_for_instance("i2")) == 1


class TestEngineEvents:
    def test_engine_reports_to_its_listener(self, engine, engine_events, sequence_schema):
        instance = engine.create_instance(sequence_schema, "i1")
        engine.run_to_completion(instance)
        assert engine_events[0] == EngineEvent(EventType.INSTANCE_CREATED, "i1")
        assert engine_events[-1].event_type is EventType.INSTANCE_COMPLETED
        assert {event.instance_id for event in engine_events} == {"i1"}

    def test_event_string_rendering(self):
        event = EngineEvent(
            event_type=EventType.ACTIVITY_COMPLETED,
            instance_id="i1",
            node_id="a",
            user="alice",
            details="done",
        )
        rendered = str(event)
        assert "activity_completed" in rendered and "alice" in rendered
