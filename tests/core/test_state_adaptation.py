"""Tests for marking adaptation after migrations and ad-hoc changes."""

import pytest

from repro.core.state_adaptation import StateAdapter
from repro.paper.replay import adapt_and_verify, check_by_replay, recompute_by_replay
from repro.runtime.states import NodeState
from repro.workloads.order_process import ORDER_EXECUTION_SEQUENCE, order_type_change_v2


@pytest.fixture
def adapter():
    return StateAdapter()


@pytest.fixture
def schema_v2(order_schema):
    return order_type_change_v2().operations.apply_to(order_schema)


def instance_at(engine, schema, progress, instance_id="inst"):
    instance = engine.create_instance(schema, instance_id)
    for activity in ORDER_EXECUTION_SEQUENCE[:progress]:
        engine.complete_activity(instance, activity)
    return instance


class TestIncrementalAdaptation:
    def test_completed_work_preserved(self, adapter, engine, order_schema, schema_v2):
        instance = instance_at(engine, order_schema, 4)
        marking = adapter.adapt(instance, schema_v2)
        for activity in ORDER_EXECUTION_SEQUENCE[:4]:
            assert marking.node_state(activity) is NodeState.COMPLETED

    def test_new_activity_activated_and_successor_deactivated(self, adapter, engine, order_schema, schema_v2):
        """The paper's I1: pack_goods loses its activation to send_questions."""
        instance = instance_at(engine, order_schema, 4)
        assert instance.node_state("pack_goods") is NodeState.ACTIVATED
        marking = adapter.adapt(instance, schema_v2)
        assert marking.node_state("send_questions") is NodeState.ACTIVATED
        assert marking.node_state("pack_goods") is NodeState.NOT_ACTIVATED

    def test_new_activity_not_activated_when_region_not_reached(self, adapter, engine, order_schema, schema_v2):
        instance = instance_at(engine, order_schema, 1)
        marking = adapter.adapt(instance, schema_v2)
        assert marking.node_state("send_questions") is NodeState.NOT_ACTIVATED

    def test_running_activity_stays_running(self, adapter, engine, order_schema, schema_v2):
        instance = instance_at(engine, order_schema, 2)
        engine.start_activity(instance, "confirm_order")
        marking = adapter.adapt(instance, schema_v2)
        assert marking.node_state("confirm_order") is NodeState.RUNNING

    def test_adaptation_does_not_mutate_instance(self, adapter, engine, order_schema, schema_v2):
        instance = instance_at(engine, order_schema, 4)
        adapter.adapt(instance, schema_v2)
        assert instance.node_state("pack_goods") is NodeState.ACTIVATED

    def test_adapted_instance_continues_correctly(self, adapter, engine, order_schema, schema_v2):
        instance = instance_at(engine, order_schema, 4)
        instance.marking = adapter.adapt(instance, schema_v2)
        instance.rebind_schema(schema_v2)
        engine.run_to_completion(instance)
        completed = instance.completed_activities()
        assert "send_questions" in completed
        assert completed.index("send_questions") < completed.index("pack_goods")


class TestAdaptationInSkippedRegions:
    def test_new_activity_in_skipped_branch_is_skipped(self, adapter, engine, credit_schema):
        from repro.core.changelog import ChangeLog
        from repro.core.operations import SerialInsertActivity
        from repro.schema.nodes import Node

        instance = engine.create_instance(credit_schema, "i1")
        engine.complete_activity(instance, "receive_application")
        engine.complete_activity(instance, "check_identity")
        engine.complete_activity(instance, "compute_score", outputs={"score": 10})
        # the approve branch was skipped; insert a new activity into it
        target = ChangeLog(
            [
                SerialInsertActivity(
                    activity=Node(node_id="board_review"),
                    pred=credit_schema.predecessors("approve_credit")[0],
                    succ="approve_credit",
                )
            ]
        ).apply_to(credit_schema)
        marking = adapter.adapt(instance, target)
        assert marking.node_state("board_review") is NodeState.SKIPPED


class TestReplayBaselineAgreement:
    @pytest.mark.parametrize("progress", range(0, 3))
    def test_incremental_equals_replay(self, engine, order_schema, schema_v2, progress):
        instance = instance_at(engine, order_schema, progress, f"i-{progress}")
        incremental, agrees = adapt_and_verify(instance, schema_v2)
        assert agrees, incremental.differences(recompute_by_replay(instance, schema_v2))

    def test_incremental_equals_replay_for_paper_i1(self, fig1):
        target = fig1.type_change.operations.apply_to(fig1.schema_v1)
        _, agrees = adapt_and_verify(fig1.i1, target)
        assert agrees

    def test_replay_baseline_rejects_non_compliant_instance(self, engine, order_schema, schema_v2):
        instance = instance_at(engine, order_schema, 5)
        with pytest.raises(ValueError):
            recompute_by_replay(instance, schema_v2)

    def test_adapt_and_verify_reports_disagreement_for_non_compliant(self, engine, order_schema, schema_v2):
        instance = instance_at(engine, order_schema, 5)
        _, agrees = adapt_and_verify(instance, schema_v2)
        assert not agrees

    def test_agreement_with_biased_instance(self, engine, fig1):
        """The biased I2 is adapted on its own (bias-extended) schema."""
        from repro.core.changelog import ChangeLog
        from repro.core.operations import ChangeActivityAttributes

        compatible_change = ChangeLog(
            [ChangeActivityAttributes(activity_id="deliver_goods", role="courier")]
        )
        target = compatible_change.apply_to(fig1.i2.execution_schema)
        incremental, agrees = adapt_and_verify(fig1.i2, target)
        assert agrees


class TestSkipRederivation:
    """Regression: SKIPPED states are derived, not performed work.

    A dead-branch activity of an already decided XOR split is SKIPPED.
    Inserting an activity *before* the split resets the branching
    decision; the incremental adaptation must leave the branch undecided
    (NOT_ACTIVATED), exactly like replaying the (empty) history — carrying
    the stale skip was the historic divergence between ``adapt`` and
    ``recompute_by_replay``.
    """

    @pytest.fixture
    def xor_schema(self):
        from repro.schema.builder import SchemaBuilder
        from repro.schema.data import DataType

        builder = SchemaBuilder("skip_regression", name="skip_regression")
        builder.data("flag", DataType.BOOLEAN, default=False)
        builder.conditional(
            [
                ("flag", lambda seq: seq.activity("fast_path")),
                (None, lambda seq: seq.activity("slow_path")),
            ],
            label="route",
        )
        return builder.build()

    def test_skip_not_carried_when_split_decision_resets(self, adapter, engine, xor_schema):
        from repro.core.changelog import ChangeLog
        from repro.core.operations import SerialInsertActivity
        from repro.schema.nodes import Node, NodeType

        instance = engine.create_instance(xor_schema, "case")
        # the split sits right behind start and decides at creation time
        assert instance.node_state("fast_path") is NodeState.SKIPPED
        split_id = next(
            node_id
            for node_id in xor_schema.node_ids()
            if xor_schema.node(node_id).node_type is NodeType.XOR_SPLIT
        )
        change = ChangeLog(
            [
                SerialInsertActivity(
                    activity=Node(node_id="triage", node_type=NodeType.ACTIVITY, name="triage"),
                    pred="start",
                    succ=split_id,
                )
            ]
        )
        target = change.apply_to(xor_schema)
        assert check_by_replay(instance, target).compliant
        incremental = adapter.adapt(instance, target)
        replayed = recompute_by_replay(instance, target)
        for activity in target.activity_ids():
            assert incremental.node_state(activity) is replayed.node_state(activity)
        # the decision is pending again, so nothing in the block is skipped
        assert incremental.node_state("fast_path") is NodeState.NOT_ACTIVATED
        assert incremental.node_state("slow_path") is NodeState.NOT_ACTIVATED

    def test_skip_rederived_when_decision_survives(self, adapter, engine, xor_schema):
        """When the change leaves the decided split alone, the skip comes back."""
        from repro.core.changelog import ChangeLog
        from repro.core.operations import SerialInsertActivity
        from repro.schema.nodes import Node, NodeType

        instance = engine.create_instance(xor_schema, "case")
        assert instance.node_state("fast_path") is NodeState.SKIPPED
        # insert after the decided block: the split's decision is untouched
        join_id = next(
            node_id
            for node_id in xor_schema.node_ids()
            if xor_schema.node(node_id).node_type is NodeType.XOR_JOIN
        )
        change = ChangeLog(
            [
                SerialInsertActivity(
                    activity=Node(node_id="audit", node_type=NodeType.ACTIVITY, name="audit"),
                    pred=join_id,
                    succ="end",
                )
            ]
        )
        target = change.apply_to(xor_schema)
        incremental = adapter.adapt(instance, target)
        replayed = recompute_by_replay(instance, target)
        for activity in target.activity_ids():
            assert incremental.node_state(activity) is replayed.node_state(activity)
        assert incremental.node_state("fast_path") is NodeState.SKIPPED


class TestDerivedStateJustification:
    """Regression: structural-node states are consequences, not work.

    A join (or loop start) is COMPLETED only because its incoming edges
    were signalled.  When a change resets the region *upstream* of such a
    node (e.g. an activity inserted into one branch before the join), the
    node's own incident edges may be untouched — but its justification is
    gone, and carrying the stale COMPLETED state used to re-activate
    everything behind the join although the replay baseline leaves the
    flow parked before the inserted activity.
    """

    @pytest.fixture
    def parallel_then_tail(self):
        from repro.schema.builder import SchemaBuilder

        builder = SchemaBuilder("justify_regression", name="justify_regression")
        builder.parallel(
            [
                lambda seq: seq.activity("left_a").activity("left_b"),
                lambda seq: seq.activity("right_a").activity("right_b"),
            ],
            label="work",
        )
        builder.activity("tail")
        return builder.build()

    def _complete_branches(self, engine, schema):
        instance = engine.create_instance(schema, "case")
        for activity in ("left_a", "left_b", "right_a", "right_b"):
            engine.complete_activity(instance, activity)
        assert instance.node_state("tail") is NodeState.ACTIVATED
        return instance

    def test_join_not_carried_when_branch_resets(self, adapter, engine, parallel_then_tail):
        from repro.core.changelog import ChangeLog
        from repro.core.operations import SerialInsertActivity
        from repro.schema.nodes import Node, NodeType

        schema = parallel_then_tail
        instance = self._complete_branches(engine, schema)
        join_id = next(
            node_id
            for node_id in schema.node_ids()
            if schema.node(node_id).node_type is NodeType.AND_JOIN
        )
        # insert into the right branch, directly before the join: the join
        # keeps its own incident-edge *count* shape but loses one input
        change = ChangeLog(
            [
                SerialInsertActivity(
                    activity=Node(node_id="right_c", node_type=NodeType.ACTIVITY, name="right_c"),
                    pred="right_b",
                    succ=join_id,
                )
            ]
        )
        target = change.apply_to(schema)
        assert check_by_replay(instance, target).compliant
        incremental = adapter.adapt(instance, target)
        replayed = recompute_by_replay(instance, target)
        assert incremental.differences(replayed) == []
        # the flow is parked before the inserted activity — nothing behind
        # the join may stay activated or completed
        assert incremental.node_state("right_c") is NodeState.ACTIVATED
        assert incremental.node_state(join_id) is NodeState.NOT_ACTIVATED
        assert incremental.node_state("tail") is NodeState.NOT_ACTIVATED

    def test_downstream_chain_uncarried_transitively(self, adapter, engine):
        """A whole chain of derived states behind the reset region resets."""
        from repro.core.changelog import ChangeLog
        from repro.core.operations import SerialInsertActivity
        from repro.schema.builder import SchemaBuilder
        from repro.schema.nodes import Node, NodeType

        builder = SchemaBuilder("justify_chain", name="justify_chain")
        builder.parallel(
            [
                lambda seq: seq.activity("only_a"),
                lambda seq: seq.activity("only_b"),
            ],
            label="first",
        )
        builder.parallel(
            [
                lambda seq: seq.activity("late_a"),
                lambda seq: seq.activity("late_b"),
            ],
            label="second",
        )
        schema = builder.build()
        engine_instance = engine.create_instance(schema, "case")
        for activity in ("only_a", "only_b"):
            engine.complete_activity(engine_instance, activity)
        # both joins/splits between the blocks are completed; late_a/late_b activated
        assert engine_instance.node_state("late_a") is NodeState.ACTIVATED
        change = ChangeLog(
            [
                SerialInsertActivity(
                    activity=Node(node_id="gate", node_type=NodeType.ACTIVITY, name="gate"),
                    pred="only_b",
                    succ=next(
                        node_id
                        for node_id in schema.node_ids()
                        if schema.node(node_id).node_type is NodeType.AND_JOIN
                        and schema.has_edge("only_b", node_id)
                    ),
                )
            ]
        )
        target = change.apply_to(schema)
        assert check_by_replay(engine_instance, target).compliant
        incremental = adapter.adapt(engine_instance, target)
        replayed = recompute_by_replay(engine_instance, target)
        assert incremental.differences(replayed) == []
        # the second parallel block (join -> split -> branches) reset too
        assert incremental.node_state("late_a") is NodeState.NOT_ACTIVATED
        assert incremental.node_state("late_b") is NodeState.NOT_ACTIVATED


class TestKernelOnlyWhenAResetNodeCanFire:
    """The target's step kernel is compiled only when the reset region can move.

    A biased case's combined schema is private to the case, so compiling
    its kernel is paid per case; a case the change's region does not reach
    yet keeps every code and needs none.
    """

    @staticmethod
    def _migrate(progress):
        from repro.core.adhoc import AdHocChanger
        from repro.core.changelog import ChangeLog
        from repro.core.evolution import ProcessType, TypeChange
        from repro.core.migration import MigrationManager, MigrationOutcome
        from repro.core.operations import SerialInsertActivity
        from repro.runtime.engine import ProcessEngine
        from repro.schema.nodes import Node
        from repro.schema.templates import sequential_process

        schema = sequential_process(length=6)
        engine = ProcessEngine()
        case = engine.create_instance(schema, "case")
        AdHocChanger(engine).apply(
            case, [SerialInsertActivity(activity=Node(node_id="adhoc"), pred="step_5", succ="step_6")]
        )
        engine.advance_instance(case, progress)
        delta = TypeChange(
            from_version=1,
            operations=ChangeLog(
                [SerialInsertActivity(activity=Node(node_id="extra"), pred="step_3", succ="step_4")]
            ),
        )
        report = MigrationManager().migrate_type(ProcessType(schema.name, schema), delta, [case])
        assert [r.outcome for r in report.results] == [MigrationOutcome.MIGRATED_WITH_BIAS]
        return case

    @pytest.mark.parametrize("progress", [0, 1, 2], ids=["at_step_1", "at_step_2", "at_step_3"])
    def test_region_not_reached_compiles_no_kernel(self, progress):
        case = self._migrate(progress)
        assert case.execution_schema.index._step_kernel is None
        assert case.activated_activities() == [f"step_{progress + 1}"]
        assert case.marking.settled

    def test_region_reached_compiles_the_kernel(self):
        case = self._migrate(3)  # step_3 completed: "extra" activates
        assert case.execution_schema.index._step_kernel is not None
        assert case.activated_activities() == ["extra"]
        assert case.node_state("step_4") is NodeState.NOT_ACTIVATED


class TestTakenDecisionsStay:
    """A decision the change does not reach is kept, not taken again.

    The split ``c2`` chose its default branch while ``g`` was False; a
    later activity set ``g``.  A change elsewhere must not re-open the
    branch not taken.  The replay baseline agrees.  The name-based
    procedure the positional one replaced re-decided every split behind a
    join with a skipped branch on the case's *current* data — here it
    activated ``c`` after ``d`` and ``w`` had completed.
    """

    def test_kept_decision_agrees_with_replay(self, adapter, engine):
        from repro.core.changelog import ChangeLog
        from repro.core.operations import SerialInsertActivity
        from repro.schema.builder import SchemaBuilder
        from repro.schema.data import DataType
        from repro.schema.nodes import Node

        from tests.baselines.reference_adaptation import ReferenceAdapter

        builder = SchemaBuilder("taken", name="taken")
        builder.data("g", DataType.BOOLEAN, default=False)
        builder.conditional([("g", lambda s: s.activity("a")), (None, lambda s: s.activity("b"))])
        builder.conditional([("g", lambda s: s.activity("c")), (None, lambda s: s.activity("d"))])
        builder.activity("w", writes=["g"]).activity("z")
        schema = builder.build()
        instance = engine.create_instance(schema, "case")
        engine.complete_activity(instance, "b")
        engine.complete_activity(instance, "d")
        engine.complete_activity(instance, "w", {"g": True})
        target = ChangeLog(
            [SerialInsertActivity(activity=Node(node_id="x"), pred="z", succ="end")]
        ).apply_to(schema)

        adapted = adapter.adapt(instance, target)
        assert adapted.node_state("c") is NodeState.SKIPPED
        assert adapted.activated_nodes() == ["z"]
        assert adapted.differences(recompute_by_replay(instance, target)) == []
        re_decided = ReferenceAdapter().adapt(instance, target)
        assert re_decided.node_state("c") is NodeState.ACTIVATED
