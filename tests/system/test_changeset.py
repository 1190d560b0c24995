"""Tests for transactional ChangeSets: fluent building, atomicity, results."""

import pytest

from repro import AdeptSystem, AdHocChangeError
from repro.runtime.events import EventType
from repro.schema import templates


@pytest.fixture
def system():
    return AdeptSystem()


@pytest.fixture
def case(system):
    orders = system.deploy(templates.online_order_process())
    case = orders.start(case_id="c1")
    case.complete("get_order")
    return case


def _marking_snapshot(instance):
    schema = instance.execution_schema
    return {node_id: instance.marking.node_state(node_id) for node_id in schema.node_ids()}


class TestFluentApply:
    def test_serial_insert_and_sync_edge_commit_as_one_changelog_entry(self, system, case):
        changes = []
        system.bus.subscribe(changes.append, categories=["change"])
        succ = case.raw.execution_schema.successors("confirm_order")[0]
        result = (
            case.change(comment="rush order")
            .serial_insert("call_customer", pred="confirm_order", succ=succ, role="sales")
            .sync_edge("call_customer", "compose_order")
            .apply()
        )
        assert result.ok
        assert result.operations == 2
        assert case.is_biased
        # both operations landed in ONE bias changelog...
        assert len(case.raw.bias) == 2
        # ...and produced exactly one change-applied event on the bus
        assert [event.name for event in changes] == [EventType.ADHOC_CHANGE_APPLIED.value]
        # the instance keeps running with the new activity
        run = case.run()
        assert run.ok
        assert "call_customer" in case.completed_activities()

    def test_builder_shortcuts_produce_operations(self, system, case):
        changeset = (
            case.change()
            .delete("deliver_goods")
            .move("pack_goods", "x", "y")
            .attributes("collect_data", role="clerk")
        )
        names = [op.operation_name for op in changeset.operations]
        assert names == ["delete_activity", "move_activity", "change_activity_attributes"]

    def test_detached_changeset_cannot_apply(self):
        from repro import ChangeSet

        detached = ChangeSet().delete("x")
        with pytest.raises(ValueError):
            detached.apply()

    def test_change_unknown_instance(self, system):
        from repro import EngineError

        with pytest.raises(EngineError):
            system.change("missing")


class TestAtomicity:
    def test_failing_second_operation_leaves_instance_untouched(self, system, case):
        """All-or-nothing: a valid insert + an invalid delete change nothing."""
        marking_before = _marking_snapshot(case.raw)
        data_before = dict(case.raw.data.values)
        engine_events = []
        system.bus.subscribe(engine_events.append, categories=["engine", "change"])
        succ = case.raw.execution_schema.successors("confirm_order")[0]

        changeset = (
            case.change(comment="doomed")
            .serial_insert("call_customer", pred="confirm_order", succ=succ)
            .delete("get_order")  # already completed -> state conflict
        )
        with pytest.raises(AdHocChangeError) as excinfo:
            changeset.apply()
        assert excinfo.value.conflicts

        # marking, changelog/bias, data and schema are exactly as before
        assert _marking_snapshot(case.raw) == marking_before
        assert not case.is_biased
        assert case.raw.bias is None
        assert dict(case.raw.data.values) == data_before
        assert not case.raw.execution_schema.has_node("call_customer")
        # no change-applied event, no step; exactly one rejection was reported
        assert [event.name for event in engine_events] == [EventType.ADHOC_CHANGE_REJECTED.value]

    def test_failing_first_operation_same_guarantee(self, system, case):
        marking_before = _marking_snapshot(case.raw)
        with pytest.raises(AdHocChangeError):
            case.change().delete("no_such_activity").delete("deliver_goods").apply()
        assert _marking_snapshot(case.raw) == marking_before
        assert not case.is_biased

    def test_try_apply_returns_failed_result(self, system, case):
        result = case.change().delete("get_order").try_apply()
        assert not result.ok
        assert result.error
        assert result.conflicts
        assert not case.is_biased
        payload = result.to_dict()
        assert payload["ok"] is False

    def test_empty_changeset_is_rejected(self, system, case):
        with pytest.raises(AdHocChangeError):
            case.change().apply()
