"""Tests for instance migration (the paper's core scenario)."""

import pytest

from repro.core.adhoc import AdHocChanger
from repro.core.compliance import ComplianceChecker
from repro.core.evolution import ProcessType, TypeChange
from repro.core.migration import MigrationManager, MigrationOutcome
from repro.core.operations import ChangeActivityAttributes, DeleteActivity, SerialInsertActivity
from repro.paper.replay import check_by_replay
from repro.schema.builder import SchemaBuilder
from repro.runtime.events import EventType
from repro.runtime.states import InstanceStatus, NodeState
from repro.schema.nodes import Node
from repro.workloads.order_process import (
    ORDER_EXECUTION_SEQUENCE,
    i2_adhoc_bias,
    order_type_change_v2,
    paper_fig3_population,
)


@pytest.fixture
def manager(engine):
    return MigrationManager(engine)


class TestBiasRemovedWriter:
    """ΔT adds a reader of an element whose only writer the case's bias deleted."""

    def test_structural_conflict(self, engine):
        builder = SchemaBuilder("noted_v1", name="noted")
        builder.data("note")
        builder.activity("step_1").activity("step_2", writes=["note"])
        builder.activity("step_3").activity("step_4")
        schema = builder.build()
        process_type = ProcessType("noted", schema)
        instance = engine.create_instance(schema, "B1")
        AdHocChanger(engine).apply(instance, [DeleteActivity(activity_id="step_2")])
        reader = SerialInsertActivity(
            activity=Node(node_id="review"), pred="step_3", succ="step_4", reads=("note",)
        )
        report = MigrationManager(engine).migrate_type(
            process_type, TypeChange.of(1, [reader]), [instance]
        )
        (result,) = report.results
        assert result.outcome is MigrationOutcome.STRUCTURAL_CONFLICT
        assert result.was_biased
        assert any(
            "missing_input_data" in str(conflict) and "note" in str(conflict)
            for conflict in result.conflicts
        )
        assert instance.schema_version == 1
        assert not instance.execution_schema.has_node("review")


class TestFig1Scenario:
    """The paper's Fig. 1: I1 migrates, I2 and I3 are rejected for the right reasons."""

    def test_report_counts(self, manager, fig1):
        report = manager.migrate_type(fig1.process_type, fig1.type_change, fig1.instances)
        assert report.total == 3
        assert report.migrated_count == 1
        assert report.count(MigrationOutcome.MIGRATED) == 1
        assert report.count(MigrationOutcome.STRUCTURAL_CONFLICT) == 1
        assert report.count(MigrationOutcome.STATE_CONFLICT) == 1

    def test_i1_migrated_with_adapted_marking(self, manager, fig1):
        manager.migrate_type(fig1.process_type, fig1.type_change, fig1.instances)
        assert fig1.i1.schema_version == 2
        assert fig1.i1.node_state("send_questions") is NodeState.ACTIVATED
        assert fig1.i1.node_state("pack_goods") is NodeState.NOT_ACTIVATED

    def test_i2_structural_conflict(self, manager, fig1):
        report = manager.migrate_type(fig1.process_type, fig1.type_change, fig1.instances)
        i2_result = next(r for r in report.results if r.instance_id == "I2")
        assert i2_result.outcome is MigrationOutcome.STRUCTURAL_CONFLICT
        assert i2_result.was_biased
        assert any("cycle" in str(conflict) for conflict in i2_result.conflicts)
        assert fig1.i2.schema_version == 1

    def test_i3_state_conflict(self, manager, fig1):
        report = manager.migrate_type(fig1.process_type, fig1.type_change, fig1.instances)
        i3_result = next(r for r in report.results if r.instance_id == "I3")
        assert i3_result.outcome is MigrationOutcome.STATE_CONFLICT
        assert not i3_result.was_biased
        assert fig1.i3.schema_version == 1

    def test_non_migrated_instances_keep_running(self, manager, fig1):
        manager.migrate_type(fig1.process_type, fig1.type_change, fig1.instances)
        for instance in fig1.instances:
            fig1.engine.run_to_completion(instance)
            assert instance.status is InstanceStatus.COMPLETED

    def test_migrated_instance_respects_new_ordering(self, manager, fig1):
        manager.migrate_type(fig1.process_type, fig1.type_change, fig1.instances)
        fig1.engine.run_to_completion(fig1.i1)
        completed = fig1.i1.completed_activities()
        assert completed.index("send_questions") < completed.index("pack_goods")
        assert completed.index("send_questions") < completed.index("confirm_order")

    def test_events_emitted(self, manager, engine_events, fig1):
        manager.migrate_type(fig1.process_type, fig1.type_change, fig1.instances)
        types = [e.event_type for e in engine_events]
        assert types.count(EventType.SCHEMA_VERSION_RELEASED) == 1
        assert types.count(EventType.INSTANCE_MIGRATED) == 1
        assert types.count(EventType.MIGRATION_REJECTED) == 2

    def test_replay_method_gives_same_classification(self, fig1):
        """Per Fig. 1 case, the conditions' verdict is the trace-replay verdict.

        I2's structural conflict is the combined schema's, found before
        any state check; in state, I2 and I1 comply and I3 does not.
        """
        checker = ComplianceChecker()
        operations = fig1.type_change.operations
        target = operations.apply_to(fig1.schema_v1)
        verdicts = {}
        for instance in fig1.instances:
            by_conditions = checker.check_with_conditions(instance, operations).compliant
            assert by_conditions == check_by_replay(instance, target).compliant
            verdicts[instance.instance_id] = by_conditions
        assert verdicts == {"I1": True, "I2": True, "I3": False}


class TestBiasedMigration:
    def test_compatible_bias_migrates_and_keeps_bias(self, engine, manager, order_schema):
        process_type = ProcessType("online_order", order_schema)
        instance = engine.create_instance(order_schema, "biased")
        engine.complete_activity(instance, "get_order")
        AdHocChanger(engine).apply(
            instance,
            [SerialInsertActivity(activity=Node(node_id="credit_check"), pred="get_order", succ="collect_data")],
        )
        report = manager.migrate_type(process_type, order_type_change_v2(), [instance])
        result = report.results[0]
        assert result.outcome is MigrationOutcome.MIGRATED_WITH_BIAS
        assert instance.schema_version == 2
        assert instance.is_biased
        # both the bias and the type change are present on the execution schema
        assert instance.execution_schema.has_node("credit_check")
        assert instance.execution_schema.has_node("send_questions")
        engine.run_to_completion(instance)
        assert instance.status is InstanceStatus.COMPLETED

    def test_semantic_conflict_detected(self, engine, manager, order_schema):
        process_type = ProcessType("online_order", order_schema)
        instance = engine.create_instance(order_schema, "biased")
        # the instance already inserted an activity with the same id as ΔT's
        AdHocChanger(engine).apply(
            instance,
            [SerialInsertActivity(activity=Node(node_id="send_questions"), pred="get_order", succ="collect_data")],
        )
        report = manager.migrate_type(process_type, order_type_change_v2(), [instance])
        assert report.results[0].outcome is MigrationOutcome.SEMANTIC_CONFLICT
        assert instance.schema_version == 1


class TestPopulationMigration:
    def test_population_classification(self, manager):
        process_type, engine, instances = paper_fig3_population(instance_count=120, seed=3)
        report = MigrationManager(engine).migrate_type(
            process_type, order_type_change_v2(), instances
        )
        assert report.total == 120
        counts = report.outcome_counts()
        assert counts["migrated"] > 0
        assert counts["state_conflict"] > 0
        assert counts["structural_conflict"] > 0
        assert counts["finished"] > 0
        assert report.migrated_count + len(report.non_compliant_instances) + report.count(
            MigrationOutcome.FINISHED
        ) == report.total

    def test_migrated_instances_rebound_to_v2(self, manager):
        process_type, engine, instances = paper_fig3_population(instance_count=60, seed=5)
        report = MigrationManager(engine).migrate_type(
            process_type, order_type_change_v2(), instances
        )
        for result in report.results:
            instance = next(i for i in instances if i.instance_id == result.instance_id)
            if result.migrated:
                assert instance.schema_version == 2
            else:
                assert instance.schema_version == 1

    def test_all_instances_complete_after_migration(self, manager):
        process_type, engine, instances = paper_fig3_population(instance_count=40, seed=11)
        MigrationManager(engine).migrate_type(process_type, order_type_change_v2(), instances)
        for instance in instances:
            engine.run_to_completion(instance)
            assert instance.status is InstanceStatus.COMPLETED

    def test_completed_work_never_lost(self, manager):
        process_type, engine, instances = paper_fig3_population(instance_count=40, seed=19)
        before = {i.instance_id: list(i.completed_activities()) for i in instances}
        MigrationManager(engine).migrate_type(process_type, order_type_change_v2(), instances)
        for instance in instances:
            for activity in before[instance.instance_id]:
                assert instance.node_state(activity) is NodeState.COMPLETED


class TestReport:
    def test_summary_mentions_all_classes(self, manager, fig1):
        report = manager.migrate_type(fig1.process_type, fig1.type_change, fig1.instances)
        summary = report.summary()
        assert "state conflicts" in summary
        assert "structural conflicts" in summary
        assert "I2" in summary

    def test_report_to_dict(self, manager, fig1):
        report = manager.migrate_type(fig1.process_type, fig1.type_change, fig1.instances)
        payload = report.to_dict()
        assert payload["outcomes"]["migrated"] == 1
        assert len(payload["results"]) == 3

    def test_finished_instances_not_touched(self, engine, manager, order_schema):
        process_type = ProcessType("online_order", order_schema)
        done = engine.create_instance(order_schema, "done")
        engine.run_to_completion(done)
        report = manager.migrate_type(process_type, order_type_change_v2(), [done])
        assert report.results[0].outcome is MigrationOutcome.FINISHED
        assert done.schema_version == 1

    def test_attribute_only_change_migrates_everyone_active(self, engine, manager, order_schema):
        process_type = ProcessType("online_order", order_schema)
        instances = []
        for index, progress in enumerate((0, 2, 4, 6)):
            instance = engine.create_instance(order_schema, f"i{index}")
            for activity in ORDER_EXECUTION_SEQUENCE[:progress]:
                engine.complete_activity(instance, activity)
            instances.append(instance)
        change = TypeChange.of(1, [ChangeActivityAttributes(activity_id="deliver_goods", role="courier")])
        report = manager.migrate_type(process_type, change, instances)
        active = [i for i in instances if i.status.is_active]
        assert report.migrated_count == len(active)


class TestAnticipatedChanges:
    """An instance whose bias already contains ΔT is absorbed, not rejected."""

    def _anticipating_instance(self, engine, order_schema):
        from repro.core.adhoc import AdHocChanger
        from repro.workloads.order_process import order_type_change_v2

        instance = engine.create_instance(order_schema, "anticipated")
        engine.complete_activity(instance, "get_order")
        AdHocChanger(engine).apply(instance, order_type_change_v2().operations, comment="anticipated V2")
        return instance

    def test_bias_equal_to_type_change_is_absorbed(self, engine, manager, order_schema):
        from repro.core.evolution import ProcessType

        process_type = ProcessType("online_order", order_schema)
        instance = self._anticipating_instance(engine, order_schema)
        report = manager.migrate_type(process_type, order_type_change_v2(), [instance])
        result = report.results[0]
        assert result.outcome is MigrationOutcome.MIGRATED
        assert instance.schema_version == 2
        assert not instance.is_biased  # the bias was fully absorbed by V2
        engine.run_to_completion(instance)
        assert "send_questions" in instance.completed_activities()

    def test_partial_overlap_still_conflicts(self, engine, manager, order_schema):
        from repro.core.adhoc import AdHocChanger
        from repro.core.evolution import ProcessType

        process_type = ProcessType("online_order", order_schema)
        instance = engine.create_instance(order_schema, "partial")
        engine.complete_activity(instance, "get_order")
        # only the first ΔT operation was anticipated, and differently wired
        AdHocChanger(engine).apply(
            instance,
            [SerialInsertActivity(activity=Node(node_id="send_questions"), pred="get_order", succ="collect_data")],
        )
        report = manager.migrate_type(process_type, order_type_change_v2(), [instance])
        assert report.results[0].outcome is MigrationOutcome.SEMANTIC_CONFLICT

    def test_bias_superset_of_type_change_keeps_extra_operations(self, engine, manager, order_schema):
        from repro.core.adhoc import AdHocChanger
        from repro.core.evolution import ProcessType

        process_type = ProcessType("online_order", order_schema)
        instance = engine.create_instance(order_schema, "superset")
        engine.complete_activity(instance, "get_order")
        changer = AdHocChanger(engine)
        changer.apply(instance, order_type_change_v2().operations, comment="anticipated V2")
        changer.apply(
            instance,
            [SerialInsertActivity(activity=Node(node_id="extra_note"), pred="get_order", succ="collect_data")],
        )
        report = manager.migrate_type(process_type, order_type_change_v2(), [instance])
        result = report.results[0]
        assert result.outcome is MigrationOutcome.MIGRATED_WITH_BIAS
        assert instance.schema_version == 2
        assert instance.is_biased
        assert len(instance.bias) == 1  # only the extra operation remains
        engine.run_to_completion(instance)
        completed = instance.completed_activities()
        assert "extra_note" in completed and "send_questions" in completed
