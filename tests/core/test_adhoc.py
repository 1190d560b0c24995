"""Tests for ad-hoc changes of single running instances."""

import pytest

from repro.core.adhoc import AdHocChangeError, AdHocChanger
from repro.core.changelog import ChangeLog
from repro.core.operations import (
    DeleteActivity,
    InsertSyncEdge,
    ParallelInsertActivity,
    SerialInsertActivity,
)
from repro.runtime.events import EventType
from repro.runtime.states import InstanceStatus, NodeState
from repro.schema.nodes import Node


@pytest.fixture
def changer(engine):
    return AdHocChanger(engine)


def started_instance(engine, schema, *completed):
    instance = engine.create_instance(schema, "case")
    for activity in completed:
        engine.complete_activity(instance, activity)
    return instance


class TestSuccessfulChanges:
    def test_serial_insert_into_running_instance(self, engine, changer, order_schema):
        instance = started_instance(engine, order_schema, "get_order")
        result = changer.apply(
            instance,
            [SerialInsertActivity(activity=Node(node_id="verify_address"), pred="collect_data", succ=None or order_schema.successors("collect_data")[0])],
        )
        assert instance.is_biased
        assert result.new_execution_schema.has_node("verify_address")
        engine.run_to_completion(instance)
        assert "verify_address" in instance.completed_activities()

    def test_insert_before_activated_activity_adapts_marking(self, engine, changer, order_schema):
        instance = started_instance(engine, order_schema, "get_order")
        assert instance.node_state("collect_data") is NodeState.ACTIVATED
        changer.apply(
            instance,
            [SerialInsertActivity(activity=Node(node_id="verify_address"), pred="get_order", succ="collect_data")],
        )
        assert instance.node_state("verify_address") is NodeState.ACTIVATED
        assert instance.node_state("collect_data") is NodeState.NOT_ACTIVATED

    def test_parallel_insert(self, engine, changer, order_schema):
        instance = started_instance(engine, order_schema, "get_order")
        changer.apply(
            instance,
            [ParallelInsertActivity(activity=Node(node_id="notify_warehouse"), parallel_to="confirm_order")],
        )
        assert instance.execution_schema.are_parallel("notify_warehouse", "confirm_order")
        engine.run_to_completion(instance)
        assert instance.status is InstanceStatus.COMPLETED

    def test_delete_not_started_activity(self, engine, changer, order_schema):
        instance = started_instance(engine, order_schema, "get_order", "collect_data")
        changer.apply(
            instance,
            [DeleteActivity(activity_id="confirm_order", supply_values={"confirmation": True})],
        )
        assert not instance.execution_schema.has_node("confirm_order")
        engine.run_to_completion(instance)
        assert instance.status is InstanceStatus.COMPLETED
        assert "confirm_order" not in instance.completed_activities()
        # the supplied value reached the instance data
        assert instance.data.get("confirmation") is True

    def test_successive_changes_compose_bias(self, engine, changer, order_schema):
        instance = started_instance(engine, order_schema, "get_order")
        changer.apply(
            instance,
            [SerialInsertActivity(activity=Node(node_id="step_a"), pred="get_order", succ="collect_data")],
        )
        changer.apply(
            instance,
            [SerialInsertActivity(activity=Node(node_id="step_b"), pred="step_a", succ="collect_data")],
        )
        assert len(instance.bias) == 2
        assert instance.execution_schema.has_edge("step_a", "step_b")

    def test_events_emitted(self, engine, engine_events, changer, order_schema):
        instance = started_instance(engine, order_schema, "get_order")
        changer.apply(
            instance,
            [SerialInsertActivity(activity=Node(node_id="x"), pred="get_order", succ="collect_data")],
            comment="extra check",
        )
        assert [e.event_type for e in engine_events].count(EventType.ADHOC_CHANGE_APPLIED) == 1

    def test_change_accepts_changelog(self, engine, changer, order_schema):
        instance = started_instance(engine, order_schema, "get_order")
        log = ChangeLog(
            [SerialInsertActivity(activity=Node(node_id="x"), pred="get_order", succ="collect_data")],
            comment="as log",
        )
        result = changer.apply(instance, log)
        assert result.operation_count == 1

    def test_try_apply_returns_result_or_none(self, engine, changer, order_schema):
        instance = started_instance(engine, order_schema, "get_order")
        ok = changer.try_apply(
            instance,
            [SerialInsertActivity(activity=Node(node_id="x"), pred="get_order", succ="collect_data")],
        )
        assert ok is not None
        bad = changer.try_apply(instance, [DeleteActivity(activity_id="get_order")])
        assert bad is None


class TestRejectedChanges:
    def test_empty_change_rejected(self, engine, changer, order_schema):
        instance = started_instance(engine, order_schema)
        with pytest.raises(AdHocChangeError):
            changer.apply(instance, [])

    def test_completed_instance_rejected(self, engine, changer, sequence_schema):
        instance = started_instance(engine, sequence_schema)
        engine.run_to_completion(instance)
        with pytest.raises(AdHocChangeError):
            changer.apply(
                instance,
                [SerialInsertActivity(activity=Node(node_id="x"), pred="step_1", succ="step_2")],
            )

    def test_delete_of_started_activity_rejected(self, engine, changer, order_schema):
        instance = started_instance(engine, order_schema, "get_order")
        with pytest.raises(AdHocChangeError) as excinfo:
            changer.apply(instance, [DeleteActivity(activity_id="get_order")])
        assert excinfo.value.conflicts

    def test_unsatisfied_precondition_rejected(self, engine, changer, order_schema):
        instance = started_instance(engine, order_schema)
        with pytest.raises(AdHocChangeError):
            changer.apply(
                instance,
                [SerialInsertActivity(activity=Node(node_id="x"), pred="ghost", succ="collect_data")],
            )

    def test_deadlock_causing_change_rejected(self, engine, changer, order_schema):
        instance = started_instance(engine, order_schema, "get_order")
        with pytest.raises(AdHocChangeError) as excinfo:
            changer.apply(
                instance,
                [
                    InsertSyncEdge(source="confirm_order", target="compose_order"),
                    InsertSyncEdge(source="pack_goods", target="confirm_order"),
                ],
            )
        assert any(conflict.kind.value == "structural" for conflict in excinfo.value.conflicts)
        assert not instance.is_biased  # nothing was applied

    def test_rejected_change_leaves_instance_untouched(
        self, engine, engine_events, changer, order_schema
    ):
        instance = started_instance(engine, order_schema, "get_order")
        marking_before = instance.marking.copy()
        with pytest.raises(AdHocChangeError):
            changer.apply(instance, [DeleteActivity(activity_id="get_order")])
        assert instance.marking.equivalent_to(marking_before)
        assert [e.event_type for e in engine_events].count(EventType.ADHOC_CHANGE_REJECTED) == 1

    def test_insert_reading_an_unwritten_element_rejected(self, engine, changer, order_schema):
        instance = started_instance(engine, order_schema, "get_order")
        audit = SerialInsertActivity(
            activity=Node(node_id="audit"), pred="get_order", succ="collect_data", reads=("audit_note",)
        )
        with pytest.raises(AdHocChangeError) as excinfo:
            changer.apply(instance, [audit])
        (conflict,) = excinfo.value.conflicts
        assert conflict.kind.value == "structural"
        assert "missing_input_data" in str(conflict) and "audit_note" in str(conflict)
        assert not instance.is_biased

    def test_missing_data_deletion_rejected_without_supply(self, engine, changer, order_schema):
        instance = started_instance(engine, order_schema, "get_order")
        with pytest.raises(AdHocChangeError):
            changer.apply(instance, [DeleteActivity(activity_id="pack_goods")])


class TestChangeThatFinishesACase:
    """Deleting a case's last pending activity ad hoc finishes the case."""

    def test_changer(self, engine, changer, sequence_schema):
        last = sequence_schema.activity_ids()[-1]
        instance = started_instance(engine, sequence_schema, *sequence_schema.activity_ids()[:-1])
        changer.apply(instance, [DeleteActivity(activity_id=last)])
        assert instance.node_state("end") is NodeState.COMPLETED
        assert instance.status is InstanceStatus.COMPLETED
        assert engine.run_to_completion(instance) == 0

    @pytest.mark.parametrize("durable", [False, True], ids=["in_memory", "reopened"])
    def test_facade_change_set(self, tmp_path, durable):
        from repro import AdeptSystem
        from repro.schema import templates

        def opened():
            if durable:
                return AdeptSystem.open(str(tmp_path / "store"), cache_instances=1)
            return AdeptSystem()

        system = opened()
        case = system.deploy(templates.sequential_process(length=3)).start(case_id="c").instance_id
        system.run(case, max_steps=2)
        assert system.activated(case) == ["step_3"]
        system.change(case).delete("step_3").apply()
        if durable:
            system.backend.close()  # crash: recovery replays the change
            system = opened()
        assert system.get_instance(case).status is InstanceStatus.COMPLETED
        assert system.worklists.items_for_instance(case) == []
        assert system.step_many([case], steps=5)[0].steps == 0
        system.close()
