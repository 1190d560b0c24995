"""Tests for instance representations (Fig. 2) and the instance store."""

import pytest

from repro.core.adhoc import AdHocChanger
from repro.core.operations import InsertSyncEdge, SerialInsertActivity
from repro.runtime.states import InstanceStatus, NodeState
from repro.schema.nodes import Node
from repro.storage.instance_store import InstanceStore, StorageError
from repro.storage.repository import SchemaRepository
from repro.storage.representations import (
    FullCopyRepresentation,
    HybridSubstitutionRepresentation,
    MaterializeOnAccessRepresentation,
)


@pytest.fixture
def repository(order_schema):
    repo = SchemaRepository()
    repo.register_type(order_schema)
    return repo


def make_instances(engine, order_schema, count=4, biased_every=2):
    """A small mixed population: some plain, some ad-hoc modified."""
    changer = AdHocChanger(engine)
    instances = []
    for index in range(count):
        instance = engine.create_instance(order_schema, f"case-{index}")
        engine.complete_activity(instance, "get_order")
        if index % biased_every == 1:
            changer.apply(
                instance,
                [
                    SerialInsertActivity(
                        activity=Node(node_id=f"extra_{index}"), pred="get_order", succ="collect_data"
                    ),
                    InsertSyncEdge(source="confirm_order", target="compose_order"),
                ],
            )
        instances.append(instance)
    return instances


ALL_STRATEGIES = [
    FullCopyRepresentation,
    MaterializeOnAccessRepresentation,
    HybridSubstitutionRepresentation,
]


class TestRepresentations:
    @pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
    def test_roundtrip_preserves_execution_schema(self, engine, order_schema, repository, strategy_cls):
        store = InstanceStore(repository, strategy=strategy_cls())
        instances = make_instances(engine, order_schema)
        store.save_all(instances)
        for original in instances:
            loaded = store.load(original.instance_id)
            assert loaded.execution_schema.structurally_equals(original.execution_schema)
            assert loaded.is_biased == original.is_biased

    @pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
    def test_roundtrip_preserves_state(self, engine, order_schema, repository, strategy_cls):
        store = InstanceStore(repository, strategy=strategy_cls())
        instances = make_instances(engine, order_schema)
        store.save_all(instances)
        for original in instances:
            loaded = store.load(original.instance_id)
            assert loaded.marking.equivalent_to(original.marking)
            assert loaded.data.values == original.data.values
            assert loaded.completed_activities() == original.completed_activities()
            assert loaded.status == original.status

    @pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
    def test_loaded_instance_can_continue(self, engine, order_schema, repository, strategy_cls):
        store = InstanceStore(repository, strategy=strategy_cls())
        instances = make_instances(engine, order_schema)
        store.save_all(instances)
        for original in instances:
            loaded = store.load(original.instance_id)
            engine.run_to_completion(loaded)
            assert loaded.status is InstanceStatus.COMPLETED

    def test_unbiased_instances_have_no_schema_payload(self, engine, order_schema, repository):
        for strategy in (MaterializeOnAccessRepresentation(), HybridSubstitutionRepresentation()):
            instance = engine.create_instance(order_schema, f"plain-{strategy.name}")
            assert strategy.encode(instance) == {}

    def test_full_copy_always_stores_schema(self, engine, order_schema, repository):
        instance = engine.create_instance(order_schema, "plain")
        payload = FullCopyRepresentation().encode(instance)
        assert "schema_copy" in payload

    def test_hybrid_payload_smaller_than_full_copy(self, engine, order_schema, repository):
        instances = make_instances(engine, order_schema)
        biased = next(i for i in instances if i.is_biased)
        hybrid_size = HybridSubstitutionRepresentation().payload_size_bytes(
            HybridSubstitutionRepresentation().encode(biased)
        )
        full_size = FullCopyRepresentation().payload_size_bytes(
            FullCopyRepresentation().encode(biased)
        )
        assert hybrid_size < full_size / 2


class TestInstanceStore:
    def test_save_requires_registered_type(self, engine, credit_schema, repository):
        store = InstanceStore(repository)
        foreign = engine.create_instance(credit_schema, "foreign")
        with pytest.raises(StorageError):
            store.save(foreign)

    def test_load_unknown_instance(self, repository):
        store = InstanceStore(repository)
        with pytest.raises(StorageError):
            store.load("missing")

    def test_delete(self, engine, order_schema, repository):
        store = InstanceStore(repository)
        instance = engine.create_instance(order_schema, "x")
        store.save(instance)
        assert store.delete("x")
        assert not store.contains("x")
        assert not store.delete("x")

    def test_indexes_by_type_version_status(self, engine, order_schema, repository):
        store = InstanceStore(repository)
        instances = make_instances(engine, order_schema)
        engine.run_to_completion(instances[0])
        store.save_all(instances)
        assert store.instances_of_type("online_order") == sorted(i.instance_id for i in instances)
        assert store.instances_of_type("online_order", version=1)
        assert instances[0].instance_id not in store.running_instances()
        assert set(store.biased_instances()) == {
            i.instance_id for i in instances if i.is_biased
        }

    def test_record_and_size_accounting(self, engine, order_schema, repository):
        store = InstanceStore(repository)
        instances = make_instances(engine, order_schema)
        stored = store.save_all(instances)
        assert store.total_bytes() > 0
        assert all(s.total_bytes > 0 for s in stored)
        biased_records = [s for s in stored if s.biased]
        unbiased_records = [s for s in stored if not s.biased]
        assert all(s.schema_payload_bytes > 0 for s in biased_records)
        assert all(s.schema_payload_bytes <= 2 for s in unbiased_records)

    def test_resave_updates_record(self, engine, order_schema, repository):
        store = InstanceStore(repository)
        instance = engine.create_instance(order_schema, "x")
        store.save(instance)
        engine.complete_activity(instance, "get_order")
        store.save(instance)
        loaded = store.load("x")
        assert "get_order" in loaded.completed_activities()
        assert len(store) == 1

    def test_save_of_a_non_json_value_changes_neither_record_nor_index(
        self, engine, order_schema, repository
    ):
        store = InstanceStore(repository)
        instance = engine.create_instance(order_schema, "x")
        store.save(instance)
        before = store.record("x")
        engine.complete_activity(instance, "get_order", outputs={"order": object()})
        engine.run_to_completion(instance)
        with pytest.raises(TypeError):
            store.save(instance)
        assert store.record("x") is before
        assert store.running_instances() == ["x"]
        unsaved = engine.create_instance(order_schema, "y")
        engine.complete_activity(unsaved, "get_order", outputs={"order": object()})
        with pytest.raises(TypeError):
            store.save(unsaved)
        assert not store.contains("y")
        assert store.instances_of_type("online_order") == ["x"]
