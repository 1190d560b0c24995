"""Tests for instance representations (Fig. 2) and the instance store."""

import json

import pytest

from repro.core.adhoc import AdHocChanger
from repro.core.operations import InsertSyncEdge, SerialInsertActivity
from repro.runtime.states import InstanceStatus, NodeState
from repro.schema.nodes import Node
from repro.paper.storage import (
    STRATEGIES,
    FullCopyRepresentation,
    MaterializeOnAccessRepresentation,
    RepresentationStore,
    schema_payload_bytes,
)
from repro.storage.instance_store import InstanceStore, StorageError
from repro.storage.repository import SchemaRepository
from repro.workloads.population import PopulationConfig, PopulationGenerator


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


class TestRepresentations:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_roundtrip_preserves_execution_schema(self, engine, order_schema, repository, strategy):
        store = RepresentationStore(repository, strategy)
        instances = make_instances(engine, order_schema)
        store.save_all(instances)
        for original in instances:
            loaded = store.load(original.instance_id)
            assert loaded.execution_schema.structurally_equals(original.execution_schema)
            assert loaded.is_biased == original.is_biased

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_roundtrip_preserves_state(self, engine, order_schema, repository, strategy):
        store = RepresentationStore(repository, strategy)
        instances = make_instances(engine, order_schema)
        store.save_all(instances)
        for original in instances:
            loaded = store.load(original.instance_id)
            assert loaded.marking.equivalent_to(original.marking)
            assert loaded.data.values == original.data.values
            assert loaded.completed_activities() == original.completed_activities()
            assert loaded.status == original.status

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_loaded_instance_can_continue(self, engine, order_schema, repository, strategy):
        store = RepresentationStore(repository, strategy)
        instances = make_instances(engine, order_schema)
        store.save_all(instances)
        for original in instances:
            loaded = store.load(original.instance_id)
            engine.run_to_completion(loaded)
            assert loaded.status is InstanceStatus.COMPLETED

    def test_unbiased_instances_have_no_schema_payload(self, engine, order_schema, repository):
        instance = engine.create_instance(order_schema, "plain")
        assert MaterializeOnAccessRepresentation().encode(instance) == {}
        representation = InstanceStore(repository).encode_record(instance)["representation"]
        assert representation == {"strategy": "hybrid_substitution"}

    def test_full_copy_always_stores_schema(self, engine, order_schema, repository):
        instance = engine.create_instance(order_schema, "plain")
        payload = FullCopyRepresentation().encode(instance)
        assert "schema_copy" in payload

    def test_hybrid_payload_smaller_than_full_copy(self, engine, order_schema, repository):
        instances = make_instances(engine, order_schema)
        biased = next(i for i in instances if i.is_biased)
        hybrid_size = schema_payload_bytes(RepresentationStore(repository).encode_record(biased))
        full_size = schema_payload_bytes(
            RepresentationStore(repository, "full_copy").encode_record(biased)
        )
        assert hybrid_size < full_size / 2

    def test_unknown_representation_is_refused(self, repository):
        with pytest.raises(ValueError):
            RepresentationStore(repository, "hybrid")


class TestHybridRowIsTheProductStore:
    """The Fig. 2 table's hybrid row measures the records the product stores."""

    def test_hybrid_records_equal_the_store_records_byte_for_byte(self, order_schema, repository):
        population = PopulationGenerator(
            order_schema,
            config=PopulationConfig(instance_count=60, biased_fraction=0.3, seed=5),
        ).generate()
        assert any(instance.is_biased for instance in population)
        harness = RepresentationStore(repository, "hybrid_substitution")
        harness.save_all(population)
        store = InstanceStore(repository)
        store.save_all(population)
        assert sorted(harness.records) == store.instance_ids()
        biased_blocks = 0
        for instance_id, record in harness.records.items():
            assert json.dumps(record, sort_keys=True) == json.dumps(
                store.record(instance_id), sort_keys=True
            )
            biased_blocks += "substitution_block" in record["representation"]
        assert biased_blocks == sum(1 for instance in population if instance.is_biased)
        assert harness.total_bytes() == store.total_bytes()

    def test_baseline_records_keep_the_stored_state(self, order_schema, repository):
        """A baseline record differs from the product's only in its representation."""
        population = PopulationGenerator(
            order_schema,
            config=PopulationConfig(instance_count=20, biased_fraction=0.5, seed=9),
        ).generate()
        store = InstanceStore(repository)
        for strategy in ("full_copy", "materialize_on_access"):
            harness = RepresentationStore(repository, strategy)
            for instance in population:
                record = harness.encode_record(instance)
                product = store.encode_record(instance)
                assert record.pop("representation")["strategy"] == strategy
                product.pop("representation")
                assert json.dumps(record, sort_keys=True) == json.dumps(product, sort_keys=True)


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
