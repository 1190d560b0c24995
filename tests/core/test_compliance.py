"""Tests for compliance checking (per-operation conditions vs. trace replay)."""

import pytest

from repro.core.changelog import ChangeLog
from repro.core.compliance import ComplianceChecker
from repro.core.operations import DeleteActivity, InsertSyncEdge, SerialInsertActivity
from repro.paper.replay import check_by_replay
from repro.runtime.engine import ProcessEngine
from repro.schema.nodes import Node
from repro.workloads.order_process import ORDER_EXECUTION_SEQUENCE, order_type_change_v2


@pytest.fixture
def checker():
    return ComplianceChecker()


@pytest.fixture
def delta_t():
    return order_type_change_v2()


@pytest.fixture
def schema_v2(order_schema, delta_t):
    return delta_t.operations.apply_to(order_schema)


def instance_at(engine, schema, progress, instance_id="inst"):
    instance = engine.create_instance(schema, instance_id)
    for activity in ORDER_EXECUTION_SEQUENCE[:progress]:
        engine.complete_activity(instance, activity)
    return instance


class TestConditions:
    def test_fresh_instance_is_compliant(self, checker, engine, order_schema, delta_t):
        instance = instance_at(engine, order_schema, 0)
        result = checker.check_with_conditions(instance, delta_t.operations)
        assert result.compliant
        assert result.checked_operations == 2

    def test_instance_before_change_region_is_compliant(self, checker, fig1, delta_t):
        # I1 of the paper: compose_order done, confirm_order still activated
        assert checker.check_with_conditions(fig1.i1, delta_t.operations).compliant

    def test_sync_target_already_completed_conflicts(self, checker, engine, order_schema, delta_t):
        # once confirm_order completed, the new sync edge can no longer be honoured
        instance = instance_at(engine, order_schema, 3)
        result = checker.check_with_conditions(instance, delta_t.operations)
        assert not result.compliant

    def test_instance_past_change_region_conflicts(self, checker, engine, order_schema, delta_t):
        instance = instance_at(engine, order_schema, 5)  # pack_goods done
        result = checker.check_with_conditions(instance, delta_t.operations)
        assert not result.compliant
        assert "state" in [k.value for k in result.conflict_kinds()]

    def test_completed_instance_conflicts(self, checker, engine, order_schema, delta_t):
        instance = instance_at(engine, order_schema, 6)
        assert not checker.check_with_conditions(instance, delta_t.operations).compliant

    def test_later_operations_know_introduced_nodes(self, checker, engine, order_schema):
        """The sync edge references the activity inserted by the same ΔT."""
        instance = instance_at(engine, order_schema, 2)
        operations = order_type_change_v2().operations
        result = checker.check_with_conditions(instance, operations)
        assert result.compliant  # no spurious "node does not exist" conflict

    def test_summary_text(self, checker, engine, order_schema, delta_t):
        compliant = checker.check_with_conditions(instance_at(engine, order_schema, 1), delta_t.operations)
        assert "compliant" in compliant.summary()
        conflicting = checker.check_with_conditions(
            instance_at(engine, order_schema, 5, "late"), delta_t.operations
        )
        assert "not compliant" in conflicting.summary()


class TestReplay:
    def test_fresh_instance_replayable(self, engine, order_schema, schema_v2):
        instance = instance_at(engine, order_schema, 0)
        assert check_by_replay(instance, schema_v2).compliant

    def test_partially_executed_instance_replayable(self, fig1, schema_v2, delta_t):
        target = delta_t.operations.apply_to(fig1.schema_v1)
        assert check_by_replay(fig1.i1, target).compliant

    def test_instance_past_change_region_not_replayable(self, engine, order_schema, schema_v2):
        instance = instance_at(engine, order_schema, 5)
        result = check_by_replay(instance, schema_v2)
        assert not result.compliant
        assert result.conflicts

    def test_replay_with_deleted_activity_in_history(self, engine, order_schema):
        instance = instance_at(engine, order_schema, 2)  # collect_data completed
        target = ChangeLog(
            [DeleteActivity(activity_id="collect_data", supply_values={"customer": {}})]
        ).apply_to(order_schema)
        result = check_by_replay(instance, target)
        assert not result.compliant

    def test_replay_preserves_data_decisions(self, engine, credit_schema):
        instance = engine.create_instance(credit_schema, "i1")
        engine.complete_activity(instance, "receive_application")
        engine.complete_activity(instance, "check_identity")
        engine.complete_activity(instance, "compute_score", outputs={"score": 77})
        engine.complete_activity(instance, "approve_credit", outputs={"approved": True})
        # replay on an extended schema: the same XOR branch must be taken
        extension = ChangeLog(
            [SerialInsertActivity(activity=Node(node_id="notify_board"), pred="approve_credit", succ=credit_schema.successors("approve_credit")[0])]
        )
        target = extension.apply_to(credit_schema)
        assert check_by_replay(instance, target).compliant

    def test_replay_scratch_instance_isolated(self, engine, order_schema, schema_v2):
        instance = instance_at(engine, order_schema, 3)
        before = len(instance.history)
        check_by_replay(instance, schema_v2)
        assert len(instance.history) == before  # original untouched


class TestMethodsAgree:
    @pytest.mark.parametrize("progress", range(0, 7))
    def test_conditions_agree_with_replay_on_order_process(
        self, checker, engine, order_schema, schema_v2, delta_t, progress
    ):
        instance = instance_at(engine, order_schema, progress, f"inst-{progress}")
        by_conditions = checker.check_with_conditions(instance, delta_t.operations).compliant
        by_replay = check_by_replay(instance, schema_v2).compliant
        assert by_conditions == by_replay
