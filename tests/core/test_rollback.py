"""Tests for partial rollback (compensation) and rollback-assisted migration."""

import pytest

from repro.core.changelog import ChangeLog
from repro.core.migration import MigrationManager, MigrationOutcome
from repro.core.rollback import RollbackError, RollbackManager, RollbackPlanner
from repro.runtime.events import EventType
from repro.runtime.history import HistoryEventType
from repro.runtime.states import InstanceStatus, NodeState
from repro.workloads.order_process import ORDER_EXECUTION_SEQUENCE, order_type_change_v2


def instance_at(engine, schema, progress, instance_id="case"):
    instance = engine.create_instance(schema, instance_id)
    for activity in ORDER_EXECUTION_SEQUENCE[:progress]:
        engine.complete_activity(instance, activity)
    return instance


class TestRollbackManager:
    def test_rollback_single_completed_activity(self, engine, order_schema):
        instance = instance_at(engine, order_schema, 2)
        manager = RollbackManager(engine)
        undone = manager.rollback_activities(instance, ["collect_data"])
        assert undone == ["collect_data"]
        assert instance.node_state("collect_data") is NodeState.ACTIVATED  # re-activated
        assert instance.node_state("get_order") is NodeState.COMPLETED  # untouched
        assert "collect_data" not in instance.completed_activities()

    def test_rollback_cascades_to_downstream_work(self, engine, order_schema):
        instance = instance_at(engine, order_schema, 5)  # up to pack_goods
        manager = RollbackManager(engine)
        undone = manager.rollback_activities(instance, ["compose_order"])
        assert set(undone) >= {"compose_order", "pack_goods"}
        assert instance.node_state("pack_goods") is NodeState.NOT_ACTIVATED
        assert instance.node_state("compose_order") is NodeState.ACTIVATED
        # the parallel branch is untouched
        assert instance.node_state("confirm_order") is NodeState.COMPLETED

    def test_compensation_recorded_in_history_and_events(self, engine, engine_events, order_schema):
        instance = instance_at(engine, order_schema, 2)
        RollbackManager(engine).rollback_activities(instance, ["collect_data"])
        compensations = [
            e for e in instance.history if e.event is HistoryEventType.ACTIVITY_COMPENSATED
        ]
        assert [e.activity for e in compensations] == ["collect_data"]
        assert [e.event_type for e in engine_events].count(EventType.ACTIVITY_COMPENSATED) == 1
        # the original completion is still in the full history, but superseded
        full = instance.history.completed_activities(reduced=False)
        assert "collect_data" in full

    def test_instance_continues_after_rollback(self, engine, order_schema):
        instance = instance_at(engine, order_schema, 4)
        RollbackManager(engine).rollback_activities(instance, ["compose_order"])
        engine.run_to_completion(instance)
        assert instance.status is InstanceStatus.COMPLETED
        assert instance.completed_activities().count("compose_order") == 1

    def test_rollback_of_not_started_activity_rejected(self, engine, order_schema):
        instance = instance_at(engine, order_schema, 1)
        with pytest.raises(RollbackError):
            RollbackManager(engine).rollback_activities(instance, ["pack_goods"])

    def test_rollback_of_unknown_activity_rejected(self, engine, order_schema):
        instance = instance_at(engine, order_schema, 1)
        with pytest.raises(RollbackError):
            RollbackManager(engine).rollback_activities(instance, ["ghost"])

    def test_rollback_of_finished_instance_rejected(self, engine, order_schema):
        instance = instance_at(engine, order_schema, 6)
        engine.run_to_completion(instance)
        with pytest.raises(RollbackError):
            RollbackManager(engine).rollback_activities(instance, ["get_order"])


class TestRollbackPlanner:
    def test_plan_for_state_conflicting_instance(self, engine, order_schema):
        instance = instance_at(engine, order_schema, 5)  # pack_goods completed -> conflict
        plan = RollbackPlanner(engine).plan(instance, order_type_change_v2().operations)
        assert plan.feasible
        assert "pack_goods" in plan.activities
        # planning must not modify the real instance
        assert instance.node_state("pack_goods") is NodeState.COMPLETED

    def test_plan_leaves_the_engine_listener_untouched(self, engine, order_schema):
        """The dry run compensates on a clone; no event of it reaches the real listener."""
        instance = instance_at(engine, order_schema, 5)
        events = []
        engine.event_listener = events.append
        plan = RollbackPlanner(engine).plan(instance, order_type_change_v2().operations)
        assert plan.activities
        assert events == []

    def test_plan_for_compliant_instance_is_empty(self, engine, order_schema):
        instance = instance_at(engine, order_schema, 2)
        plan = RollbackPlanner(engine).plan(instance, order_type_change_v2().operations)
        assert plan.feasible
        assert plan.activities == []

    def test_plan_reports_infeasible_for_structural_problems(self, fig1):
        # I2's conflict is structural (cycle), not state-related: rollback cannot help
        plan = RollbackPlanner(fig1.engine).plan(fig1.i2, fig1.type_change.operations)
        combined_feasible = plan.feasible and not plan.activities
        assert combined_feasible or not plan.feasible


class TestRollbackAssistedMigration:
    def test_state_conflicting_instance_migrates_with_rollback(self, engine, order_schema):
        from repro.core.evolution import ProcessType

        process_type = ProcessType("online_order", order_schema)
        blocked = instance_at(engine, order_schema, 5, "blocked")
        manager = MigrationManager(engine, rollback_on_state_conflict=True)
        report = manager.migrate_type(process_type, order_type_change_v2(), [blocked])
        assert report.results[0].outcome is MigrationOutcome.MIGRATED_WITH_ROLLBACK
        assert blocked.schema_version == 2
        engine.run_to_completion(blocked)
        completed = blocked.completed_activities()
        assert completed.index("send_questions") < completed.index("pack_goods")

    def test_rollback_policy_off_by_default(self, engine, order_schema):
        from repro.core.evolution import ProcessType

        process_type = ProcessType("online_order", order_schema)
        blocked = instance_at(engine, order_schema, 5, "blocked")
        report = MigrationManager(engine).migrate_type(
            process_type, order_type_change_v2(), [blocked]
        )
        assert report.results[0].outcome is MigrationOutcome.STATE_CONFLICT

    def test_rollback_migration_increases_migrated_share(self):
        from repro.workloads.order_process import paper_fig3_population

        process_type, engine, instances = paper_fig3_population(instance_count=120, seed=77)
        plain_report = MigrationManager(engine).migrate_type(
            process_type, order_type_change_v2(), instances
        )

        process_type2, engine2, instances2 = paper_fig3_population(instance_count=120, seed=77)
        rollback_report = MigrationManager(engine2, rollback_on_state_conflict=True).migrate_type(
            process_type2, order_type_change_v2(), instances2
        )
        assert rollback_report.migrated_count > plain_report.migrated_count
        assert rollback_report.count(MigrationOutcome.MIGRATED_WITH_ROLLBACK) > 0


class TestInstanceClone:
    def test_clone_is_independent(self, engine, order_schema):
        instance = instance_at(engine, order_schema, 3)
        clone = instance.clone()
        engine.complete_activity(clone, "compose_order")
        assert "compose_order" not in instance.completed_activities()
        assert "compose_order" in clone.completed_activities()

    def test_clone_preserves_bias(self, fig1):
        clone = fig1.i2.clone()
        assert clone.is_biased
        assert clone.execution_schema is fig1.i2.execution_schema
