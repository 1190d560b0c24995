"""Unit tests for compiled migration plans and fingerprint memoization."""

import pytest

from repro.core.compliance import ComplianceChecker
from repro.core.evolution import ProcessType, TypeChange
from repro.core.migration import MigrationManager, MigrationOutcome, MigrationReport
from repro.core.migration_plan import FingerprintCache, MigrationPlan
from repro.core.operations import DeleteActivity, SerialInsertActivity
from repro.runtime.engine import ProcessEngine
from repro.schema.nodes import Node, NodeType
from repro.schema.templates import online_order_process
from repro.storage.serialization import instance_from_record, instance_to_dict
from repro.workloads.order_process import ORDER_EXECUTION_SEQUENCE, order_type_change_v2


@pytest.fixture
def schema():
    return online_order_process()


@pytest.fixture
def change():
    return order_type_change_v2()


@pytest.fixture
def plan(schema, change):
    new_schema = change.operations.apply_to(schema)
    new_schema.version = 2
    return MigrationPlan.compile(schema, new_schema, change)


def _instance_at(engine, schema, progress, instance_id="case"):
    instance = engine.create_instance(schema, instance_id)
    for activity in ORDER_EXECUTION_SEQUENCE[:progress]:
        engine.complete_activity(instance, activity)
    return instance


def _migrate(manager, plan, cache, instance, change):
    return manager.migrate_instance(
        instance, plan.old_schema, plan.new_schema, change, plan=plan, cache=cache
    )


class TestPlanCompilation:
    def test_plan_checks_agree_with_interpreted_conditions(self, schema, change, plan):
        """A class's verdict is the interpreted conditions, for its first and later members."""
        engine = ProcessEngine()
        checker = ComplianceChecker()
        manager = MigrationManager()
        cache = FingerprintCache()
        outcomes = set()
        for progress in range(len(ORDER_EXECUTION_SEQUENCE) + 1):
            for member in ("first", "second"):
                instance = _instance_at(engine, schema, progress, f"case-{progress}-{member}")
                expected = checker.check_with_conditions(instance, change.operations)
                result = _migrate(manager, plan, cache, instance, change)
                if not instance.status.is_active:  # the whole sequence ran
                    assert result.outcome is MigrationOutcome.FINISHED
                    continue
                assert [str(c) for c in result.conflicts] == [
                    str(c) for c in expected.conflicts
                ]
                assert result.outcome is (
                    MigrationOutcome.MIGRATED
                    if expected.compliant
                    else MigrationOutcome.STATE_CONFLICT
                )
                assert instance.schema_version == (2 if expected.compliant else 1)
                outcomes.add(result.outcome)
        # the sequence crosses the change's state conflicts
        assert outcomes == {MigrationOutcome.MIGRATED, MigrationOutcome.STATE_CONFLICT}
        assert cache.hits == cache.misses == len(ORDER_EXECUTION_SEQUENCE)

    def test_structurally_impossible_operation_compiles_to_constant(self, schema):
        """An insertion between absent nodes is a structural conflict for every case."""
        change = TypeChange.of(
            1,
            [
                SerialInsertActivity(
                    activity=Node(node_id="x", node_type=NodeType.ACTIVITY, name="x"),
                    pred="nope",
                    succ="also_nope",
                )
            ],
        )
        new_schema = schema.copy()
        new_schema.version = 2
        plan = MigrationPlan.compile(schema, new_schema, change)
        engine = ProcessEngine()
        manager = MigrationManager()
        cache = FingerprintCache()
        for progress in range(len(ORDER_EXECUTION_SEQUENCE) + 1):
            instance = _instance_at(engine, schema, progress, f"case-{progress}")
            result = _migrate(manager, plan, cache, instance, change)
            assert result.outcome is (
                MigrationOutcome.STRUCTURAL_CONFLICT
                if instance.status.is_active
                else MigrationOutcome.FINISHED
            )
            assert instance.schema_version == 1

    def test_insert_sync_edge_includes_history_in_fingerprint(self, plan):
        # order_type_change_v2 contains an insertSyncEdge: the condition
        # orders history events, so the fingerprint must project them
        assert plan.include_history

    def test_delete_activity_collects_written_elements(self):
        """Whether the deleted writer's element holds a value splits the class."""
        from repro.schema.builder import SchemaBuilder

        builder = SchemaBuilder("del_plan", name="del_plan")
        # the default keeps the reader's input supplied once b is gone
        builder.data("x", default="fallback")
        builder.activity("a").activity("b", writes=("x",)).activity("c", reads=("x",))
        small = builder.build()
        change = TypeChange.of(1, [DeleteActivity(activity_id="b")])
        target = change.operations.apply_to(small, check=True)
        target.version = 2
        plan = MigrationPlan.compile(small, target, change)
        engine = ProcessEngine()
        valued = engine.create_instance(small, "valued")
        assert valued.data.get("x") == "fallback"
        # a stored case whose record holds no value for x, at the same marking
        record = instance_to_dict(engine.create_instance(small, "empty"))
        empty = instance_from_record(dict(record, data={"values": {}, "writes": []}), small)
        assert not empty.data.has_value("x")
        assert valued.marking.to_dict() == empty.marking.to_dict()
        # the deletion condition asks whether x holds a value: the two
        # cases must fall into different classes
        assert plan.fingerprint_of_instance(valued) != plan.fingerprint_of_instance(empty)
        manager = MigrationManager()
        cache = FingerprintCache()
        migrated = _migrate(manager, plan, cache, valued, change)
        refused = _migrate(manager, plan, cache, empty, change)
        assert migrated.outcome is MigrationOutcome.MIGRATED
        assert refused.outcome is MigrationOutcome.DATA_CONFLICT
        assert (valued.schema_version, empty.schema_version) == (2, 1)


class TestFingerprints:
    def test_record_and_instance_fingerprints_coincide(self, schema, plan):
        import json

        engine = ProcessEngine()
        for progress in (0, 2, 4):
            instance = _instance_at(engine, schema, progress, f"case-{progress}")
            live = plan.fingerprint_of_instance(instance)
            stored = plan.fingerprint_of_record(instance_to_dict(instance))
            assert live == stored
            # a record that went through the store's JSON round trip has
            # fresh (un-interned) string objects everywhere — the digest
            # must be structural, never identity-sensitive
            round_tripped = json.loads(json.dumps(instance_to_dict(instance)))
            assert plan.fingerprint_of_record(round_tripped) == live

    def test_equal_states_share_a_fingerprint(self, schema, plan):
        engine = ProcessEngine()
        first = _instance_at(engine, schema, 3, "a")
        second = _instance_at(engine, schema, 3, "b")
        assert plan.fingerprint_of_instance(first) == plan.fingerprint_of_instance(second)

    def test_different_states_differ(self, schema, plan):
        engine = ProcessEngine()
        first = _instance_at(engine, schema, 2, "a")
        second = _instance_at(engine, schema, 3, "b")
        assert plan.fingerprint_of_instance(first) != plan.fingerprint_of_instance(second)

    def test_biased_instances_are_not_fingerprinted(self, schema, plan):
        from repro.core.adhoc import AdHocChanger
        from repro.core.operations import SerialInsertActivity as Insert

        engine = ProcessEngine()
        instance = _instance_at(engine, schema, 1, "biased")
        AdHocChanger(engine).apply(
            instance,
            [
                Insert(
                    activity=Node(node_id="extra", node_type=NodeType.ACTIVITY, name="extra"),
                    pred="compose_order",
                    succ="pack_goods",
                )
            ],
        )
        assert instance.is_biased
        assert plan.fingerprint_of_instance(instance) is None
        assert plan.fingerprint_of_record(instance_to_dict(instance)) is None


class TestFingerprintCache:
    def test_hit_miss_accounting(self, schema, plan):
        from repro.core.migration_plan import ClassVerdict
        from repro.core.compliance import ComplianceResult

        cache = FingerprintCache()
        assert cache.get("fp1") is None
        cache.put(ClassVerdict("fp1", ComplianceResult(compliant=False)))
        assert cache.get("fp1") is not None
        assert (cache.hits, cache.misses, cache.classes) == (1, 1, 1)


class TestMemoizedMigrateType:
    def test_memoized_counts_classes_not_instances(self, schema, change):
        engine = ProcessEngine()
        process_type = ProcessType("online_order", schema)
        instances = [
            _instance_at(engine, schema, progress % 4, f"case-{progress}")
            for progress in range(40)
        ]
        manager = MigrationManager(engine)
        cache = FingerprintCache()
        report = manager.migrate_type(
            process_type, change, instances, cache=cache
        )
        assert report.total == 40
        assert cache.classes == 4  # one verdict per distinct progress level
        assert cache.misses == 4
        assert cache.hits == 36

    def test_rollback_policy_routes_state_conflicts_per_instance(self, schema, change):
        engine = ProcessEngine()
        process_type = ProcessType("online_order", schema)
        instances = [
            _instance_at(engine, schema, 5, f"case-{index}") for index in range(4)
        ]
        manager = MigrationManager(engine, rollback_on_state_conflict=True)
        report = manager.migrate_type(process_type, change, instances)
        # all four share a fingerprint class, yet each one rolled back and
        # migrated individually (the compensation mutates the case)
        assert report.count(MigrationOutcome.MIGRATED_WITH_ROLLBACK) == 4


class TestReportTrimming:
    def test_counters_without_results(self, schema, change):
        engine = ProcessEngine()
        process_type = ProcessType("online_order", schema)
        instances = [
            _instance_at(engine, schema, progress % 7, f"case-{progress}")
            for progress in range(30)
        ]
        manager = MigrationManager(engine)
        report = manager.migrate_type(
            process_type, change, instances, collect_results=False
        )
        assert report.results == []
        assert report.total == 30
        assert report.migrated_count > 0
        assert report.count(MigrationOutcome.STATE_CONFLICT) > 0
        assert report.conflict_samples  # bounded conflict detail survives
        assert len(report.conflict_samples) <= report.conflict_sample_limit
        payload = report.to_dict()
        assert payload["collect_results"] is False
        assert payload["results"] == []
        assert payload["conflict_samples"]
        assert "conflict details" in report.summary()

    def test_sample_cap_respected(self):
        from repro.core.migration import InstanceMigrationResult
        from repro.core.conflicts import state_conflict

        report = MigrationReport(
            "t", 1, 2, collect_results=False, conflict_sample_limit=3
        )
        for index in range(10):
            report.add(
                InstanceMigrationResult(
                    instance_id=f"case-{index}",
                    outcome=MigrationOutcome.STATE_CONFLICT,
                    conflicts=[state_conflict("boom", nodes=("n",))],
                )
            )
        assert report.total == 10
        assert len(report.conflict_samples) == 3

    def test_prefilled_results_keep_counters_consistent(self):
        from repro.core.migration import InstanceMigrationResult

        results = [
            InstanceMigrationResult("a", MigrationOutcome.MIGRATED),
            InstanceMigrationResult("b", MigrationOutcome.STATE_CONFLICT),
        ]
        report = MigrationReport("t", 1, 2, results=results)
        assert report.total == 2
        assert report.migrated_count == 1


class TestStoredRecordMigration:
    def test_migrate_record_rewrites_version_marking_and_index(self):
        from repro.storage.instance_store import InstanceStore
        from repro.storage.repository import SchemaRepository

        schema = online_order_process()
        repository = SchemaRepository()
        repository.register_type(schema)
        store = InstanceStore(repository)
        engine = ProcessEngine()
        instance = _instance_at(engine, schema, 2, "case-1")
        store.save(instance)
        change = order_type_change_v2()
        new_schema = repository.release_version("online_order", change)

        template = {"node_states": {"get_order": "completed"}, "edge_states": []}
        record = store.migrate_record("case-1", new_schema.version, template)
        assert record["schema_version"] == new_schema.version
        assert record["marking"] == template
        assert store.instances_of_type("online_order", new_schema.version) == ["case-1"]
        loaded = store.load("case-1")
        assert loaded.schema_version == new_schema.version

    def test_migrate_record_unknown_id_raises(self):
        from repro.storage.instance_store import InstanceStore, StorageError
        from repro.storage.repository import SchemaRepository

        store = InstanceStore(SchemaRepository())
        with pytest.raises(StorageError):
            store.migrate_record("nope", 2, {})

    def test_records_for_batches_known_ids(self):
        from repro.storage.instance_store import InstanceStore
        from repro.storage.repository import SchemaRepository

        schema = online_order_process()
        repository = SchemaRepository()
        repository.register_type(schema)
        store = InstanceStore(repository)
        engine = ProcessEngine()
        for index in range(3):
            store.save(_instance_at(engine, schema, index, f"case-{index}"))
        pairs = store.records_for(["case-0", "missing", "case-2"])
        assert [pair[0] for pair in pairs] == ["case-0", "case-2"]
