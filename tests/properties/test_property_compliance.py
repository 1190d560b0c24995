"""Property-based tests on compliance, migration and state adaptation.

These encode the paper's central correctness claims as executable
properties: the efficient per-operation compliance conditions agree with
the general trace-replay criterion, migrated instances keep their
completed work, and incremental state adaptation is equivalent to
replaying the history on the changed schema.

The conditions are the only compliance criterion the product runs, so
the two agreement properties are its evidence: tier-1 runs 25 examples
each, their ``stress`` variants 2 000 (the CI ``chaos`` job).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.compliance import ComplianceChecker
from repro.core.migration import MigrationManager
from repro.core.state_adaptation import StateAdapter
from repro.core.evolution import ProcessType
from repro.paper.replay import check_by_replay, recompute_by_replay
from repro.runtime.engine import ProcessEngine
from repro.runtime.states import NodeState
from repro.schema.templates import online_order_process
from repro.workloads.change_generator import ChangeScenarioGenerator
from repro.workloads.order_process import ORDER_EXECUTION_SEQUENCE, order_type_change_v2

from .strategies import random_schemas

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
STRESS = settings(RELAXED, max_examples=2000)


def _advance(engine, instance, steps):
    engine.advance_instance(instance, steps)


def conditions_never_accept_what_replay_rejects(schema, steps, seed):
    """Invariant 3 on one random schema, instance and type change."""
    engine = ProcessEngine()
    instance = engine.create_instance(schema, "prop")
    _advance(engine, instance, steps)
    change = ChangeScenarioGenerator(schema, seed=seed).random_type_change(operation_count=2)
    target = change.operations.apply_to(schema)
    checker = ComplianceChecker()
    by_conditions = checker.check_with_conditions(instance, change.operations).compliant
    by_replay = check_by_replay(instance, target).compliant
    # The per-operation conditions must never accept an instance the
    # general criterion rejects (they may only be more conservative).
    if by_conditions:
        assert by_replay


def conditions_equal_replay_on_order_process(steps):
    schema = online_order_process()
    engine = ProcessEngine()
    instance = engine.create_instance(schema, "prop")
    for activity in ORDER_EXECUTION_SEQUENCE[:steps]:
        engine.complete_activity(instance, activity)
    change = order_type_change_v2()
    target = change.operations.apply_to(schema)
    checker = ComplianceChecker()
    assert (
        checker.check_with_conditions(instance, change.operations).compliant
        == check_by_replay(instance, target).compliant
    )


agreement_cases = dict(
    schema=random_schemas(min_activities=4, max_activities=12),
    steps=st.integers(min_value=0, max_value=14),
    seed=st.integers(min_value=0, max_value=9999),
)
order_progress = st.integers(min_value=0, max_value=6)


class TestComplianceAgreement:
    @RELAXED
    @given(**agreement_cases)
    def test_conditions_agree_with_replay(self, schema, steps, seed):
        """Invariant 3 on random schemas, instances and type changes."""
        conditions_never_accept_what_replay_rejects(schema, steps, seed)

    @RELAXED
    @given(steps=order_progress)
    def test_exact_agreement_on_order_process(self, steps):
        conditions_equal_replay_on_order_process(steps)

    @pytest.mark.stress
    @STRESS
    @given(**agreement_cases)
    def test_conditions_agree_with_replay_stress(self, schema, steps, seed):
        conditions_never_accept_what_replay_rejects(schema, steps, seed)

    @pytest.mark.stress
    @STRESS
    @given(steps=order_progress)
    def test_exact_agreement_on_order_process_stress(self, steps):
        conditions_equal_replay_on_order_process(steps)


class TestMigrationProperties:
    @RELAXED
    @given(
        steps=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=6),
    )
    def test_migration_preserves_completed_work(self, steps):
        """Invariant 6/7: completed activities survive; non-compliant stay on V1."""
        schema = online_order_process()
        engine = ProcessEngine()
        process_type = ProcessType("online_order", schema)
        instances = []
        for index, progress in enumerate(steps):
            instance = engine.create_instance(schema, f"prop-{index}")
            for activity in ORDER_EXECUTION_SEQUENCE[:progress]:
                engine.complete_activity(instance, activity)
            instances.append(instance)
        before = {i.instance_id: set(i.completed_activities()) for i in instances}
        report = MigrationManager(engine).migrate_type(process_type, order_type_change_v2(), instances)
        for instance in instances:
            for activity in before[instance.instance_id]:
                assert instance.node_state(activity) is NodeState.COMPLETED
        for result in report.results:
            instance = next(i for i in instances if i.instance_id == result.instance_id)
            assert instance.schema_version == (2 if result.migrated else 1)

    @RELAXED
    @given(
        steps=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4),
    )
    def test_every_instance_completes_after_migration(self, steps):
        schema = online_order_process()
        engine = ProcessEngine()
        process_type = ProcessType("online_order", schema)
        instances = []
        for index, progress in enumerate(steps):
            instance = engine.create_instance(schema, f"prop-{index}")
            for activity in ORDER_EXECUTION_SEQUENCE[:progress]:
                engine.complete_activity(instance, activity)
            instances.append(instance)
        MigrationManager(engine).migrate_type(process_type, order_type_change_v2(), instances)
        for instance in instances:
            engine.run_to_completion(instance)
            assert instance.status.value == "completed"
            if instance.schema_version == 2:
                assert "send_questions" in instance.completed_activities()


class TestStateAdaptationProperties:
    @RELAXED
    @given(
        schema=random_schemas(min_activities=4, max_activities=10),
        steps=st.integers(min_value=0, max_value=12),
        seed=st.integers(min_value=0, max_value=9999),
    )
    def test_incremental_adaptation_matches_replay_for_compliant_instances(self, schema, steps, seed):
        """Invariant 4 on random schemas and changes."""
        engine = ProcessEngine()
        instance = engine.create_instance(schema, "prop")
        _advance(engine, instance, steps)
        change = ChangeScenarioGenerator(schema, seed=seed).random_type_change(operation_count=1)
        target = change.operations.apply_to(schema)
        if not check_by_replay(instance, target).compliant:
            return
        adapter = StateAdapter()
        incremental = adapter.adapt(instance, target)
        replayed = recompute_by_replay(instance, target)
        for activity in target.activity_ids():
            assert incremental.node_state(activity) is replayed.node_state(activity)
