"""Tests of the execution engine: activation, skipping, data, completion."""

import pytest

from repro.runtime.engine import EngineError, ProcessEngine
from repro.runtime.events import EventType
from repro.runtime.states import EdgeState, InstanceStatus, NodeState
from repro.schema import templates
from repro.schema.edges import EdgeType


class TestInstanceCreation:
    def test_first_activity_activated(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        assert instance.status is InstanceStatus.RUNNING
        assert instance.activated_activities() == ["get_order"]

    def test_start_node_auto_completed(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        assert instance.node_state("start") is NodeState.COMPLETED

    def test_initial_data_applied(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "i1", initial_data={"order": {"id": 7}})
        assert instance.data.get("order") == {"id": 7}

    def test_instance_created_event(self, engine, engine_events, order_schema):
        engine.create_instance(order_schema, "i1")
        assert [e.event_type for e in engine_events].count(EventType.INSTANCE_CREATED) == 1


class TestSequentialExecution:
    def test_activity_lifecycle(self, engine, sequence_schema):
        instance = engine.create_instance(sequence_schema, "i1")
        engine.start_activity(instance, "step_1", user="alice")
        assert instance.node_state("step_1") is NodeState.RUNNING
        engine.complete_activity(instance, "step_1")
        assert instance.node_state("step_1") is NodeState.COMPLETED
        assert instance.activated_activities() == ["step_2"]

    def test_complete_from_activated_implicitly_starts(self, engine, sequence_schema):
        instance = engine.create_instance(sequence_schema, "i1")
        engine.complete_activity(instance, "step_1")
        starts = instance.history.started_activities()
        assert "step_1" in starts

    def test_cannot_start_unactivated_activity(self, engine, sequence_schema):
        instance = engine.create_instance(sequence_schema, "i1")
        with pytest.raises(EngineError):
            engine.start_activity(instance, "step_3")

    def test_cannot_complete_unactivated_activity(self, engine, sequence_schema):
        instance = engine.create_instance(sequence_schema, "i1")
        with pytest.raises(EngineError):
            engine.complete_activity(instance, "step_3")

    def test_cannot_start_structural_node(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        with pytest.raises(EngineError):
            engine.start_activity(instance, "start")

    def test_run_to_completion(self, engine, sequence_schema):
        instance = engine.create_instance(sequence_schema, "i1")
        steps = engine.run_to_completion(instance)
        assert steps == 5
        assert instance.status is InstanceStatus.COMPLETED
        assert instance.progress() == 1.0

    def test_completed_instance_rejects_further_work(self, engine, sequence_schema):
        instance = engine.create_instance(sequence_schema, "i1")
        engine.run_to_completion(instance)
        with pytest.raises(EngineError):
            engine.complete_activity(instance, "step_1")

    def test_suspend_and_resume(self, engine, sequence_schema):
        instance = engine.create_instance(sequence_schema, "i1")
        engine.start_activity(instance, "step_1")
        engine.suspend_activity(instance, "step_1")
        assert instance.node_state("step_1") is NodeState.SUSPENDED
        engine.resume_activity(instance, "step_1")
        assert instance.node_state("step_1") is NodeState.RUNNING
        engine.complete_activity(instance, "step_1")

    def test_abort_instance(self, engine, sequence_schema):
        instance = engine.create_instance(sequence_schema, "i1")
        engine.abort_instance(instance)
        assert instance.status is InstanceStatus.ABORTED
        with pytest.raises(EngineError):
            engine.complete_activity(instance, "step_1")


class TestParallelExecution:
    def test_both_branches_activated(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        engine.complete_activity(instance, "get_order")
        engine.complete_activity(instance, "collect_data")
        assert set(instance.activated_activities()) == {"confirm_order", "compose_order"}

    def test_join_waits_for_both_branches(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        for activity in ("get_order", "collect_data", "confirm_order"):
            engine.complete_activity(instance, activity)
        assert "deliver_goods" not in instance.activated_activities()
        engine.complete_activity(instance, "compose_order")
        engine.complete_activity(instance, "pack_goods")
        assert instance.activated_activities() == ["deliver_goods"]

    def test_branches_executable_in_any_order(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        for activity in ("get_order", "collect_data", "compose_order", "pack_goods", "confirm_order", "deliver_goods"):
            engine.complete_activity(instance, activity)
        assert instance.status is InstanceStatus.COMPLETED


class TestConditionalExecution:
    def test_guarded_branch_taken_when_condition_holds(self, engine, credit_schema):
        instance = engine.create_instance(credit_schema, "i1")
        engine.complete_activity(instance, "receive_application")
        engine.complete_activity(instance, "check_identity")
        engine.complete_activity(instance, "compute_score", outputs={"score": 80})
        assert instance.activated_activities() == ["approve_credit"]
        assert instance.node_state("reject_credit") is NodeState.SKIPPED

    def test_default_branch_taken_otherwise(self, engine, credit_schema):
        instance = engine.create_instance(credit_schema, "i1")
        engine.complete_activity(instance, "receive_application")
        engine.complete_activity(instance, "check_identity")
        engine.complete_activity(instance, "compute_score", outputs={"score": 10})
        assert instance.activated_activities() == ["reject_credit"]
        assert instance.node_state("approve_credit") is NodeState.SKIPPED

    def test_skipped_activities_recorded_in_history(self, engine, credit_schema):
        instance = engine.create_instance(credit_schema, "i1")
        engine.complete_activity(instance, "receive_application")
        engine.complete_activity(instance, "check_identity")
        engine.complete_activity(instance, "compute_score", outputs={"score": 10})
        skipped = [e.activity for e in instance.history if e.event.value == "activity_skipped"]
        assert "approve_credit" in skipped

    def test_skipped_branch_edges_false_signaled(self, engine, credit_schema):
        instance = engine.create_instance(credit_schema, "i1")
        engine.complete_activity(instance, "receive_application")
        engine.complete_activity(instance, "check_identity")
        engine.complete_activity(instance, "compute_score", outputs={"score": 10})
        successor = credit_schema.successors("approve_credit", EdgeType.CONTROL)[0]
        assert (
            instance.marking.edge_state("approve_credit", successor) is EdgeState.FALSE_SIGNALED
        )

    def test_instance_completes_through_either_branch(self, engine, credit_schema):
        instance = engine.create_instance(credit_schema, "i1")
        engine.run_to_completion(instance)
        assert instance.status is InstanceStatus.COMPLETED


class TestDataHandling:
    def test_outputs_written_to_data_context(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        engine.complete_activity(instance, "get_order", outputs={"order": {"sku": "X"}})
        assert instance.data.get("order") == {"sku": "X"}

    def test_output_requires_write_edge(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        with pytest.raises(EngineError):
            engine.complete_activity(instance, "get_order", outputs={"shipment": {}})

    def test_read_values_recorded_on_start(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        engine.complete_activity(instance, "get_order", outputs={"order": {"sku": "X"}})
        engine.start_activity(instance, "collect_data")
        start_entry = instance.history.entries_for("collect_data")[0]
        assert start_entry.values == {"order": {"sku": "X"}}

    def test_default_worker_produces_writable_outputs(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "i1")
        engine.run_to_completion(instance)
        assert instance.data.has_value("shipment")
        assert instance.data.get("confirmation") is True


class TestAdvanceInstance:
    def test_advance_partial(self, engine, sequence_schema):
        instance = engine.create_instance(sequence_schema, "i1")
        executed = engine.advance_instance(instance, 3)
        assert executed == 3
        assert len(instance.completed_activities()) == 3
        assert instance.status is InstanceStatus.RUNNING

    def test_advance_beyond_end_stops(self, engine, sequence_schema):
        instance = engine.create_instance(sequence_schema, "i1")
        executed = engine.advance_instance(instance, 99)
        assert executed == 5
        assert instance.status is InstanceStatus.COMPLETED

    def test_custom_worker_controls_outputs(self, engine, credit_schema):
        def worker(node, data):
            if node.node_id == "compute_score":
                return {"score": 99}
            return {}

        instance = engine.create_instance(credit_schema, "i1")
        engine.run_to_completion(instance, worker=worker)
        assert "approve_credit" in instance.completed_activities()


class TestEvents:
    def test_completion_events_emitted(self, engine, engine_events, sequence_schema):
        instance = engine.create_instance(sequence_schema, "i1")
        engine.run_to_completion(instance)
        types = [e.event_type for e in engine_events]
        assert types.count(EventType.ACTIVITY_COMPLETED) == 5
        assert types.count(EventType.INSTANCE_COMPLETED) == 1

    def test_activation_events_emitted(self, engine, engine_events, order_schema):
        engine.create_instance(order_schema, "i1")
        assert EventType.ACTIVITY_ACTIVATED in [e.event_type for e in engine_events]
