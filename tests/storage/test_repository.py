"""Tests for the versioned schema repository."""

import json

import pytest

from repro.core.evolution import EvolutionError
from repro.schema import templates
from repro.storage.repository import SchemaRepository
from repro.workloads.order_process import order_type_change_v2


class TestRegistration:
    def test_register_and_resolve(self, order_schema):
        repository = SchemaRepository()
        repository.register_type(order_schema)
        assert repository.has_type("online_order")
        assert repository.schema("online_order", 1) is order_schema
        assert repository.latest_schema("online_order") is order_schema
        assert repository.resolve("online_order", 1) is order_schema

    def test_duplicate_registration_rejected(self, order_schema):
        repository = SchemaRepository()
        repository.register_type(order_schema)
        with pytest.raises(EvolutionError):
            repository.register_type(templates.online_order_process())

    def test_unknown_type_rejected(self):
        repository = SchemaRepository()
        with pytest.raises(EvolutionError):
            repository.process_type("nope")

    def test_multiple_types(self):
        repository = SchemaRepository()
        for schema in templates.all_templates():
            repository.register_type(schema)
        assert len(repository) == 6
        assert "patient_treatment" in repository.type_names()


class TestVersioning:
    def test_release_version(self, order_schema):
        repository = SchemaRepository()
        repository.register_type(order_schema)
        new_schema = repository.release_version("online_order", order_type_change_v2())
        assert new_schema.version == 2
        assert repository.versions_of("online_order") == [1, 2]
        assert repository.latest_schema("online_order") is new_schema
        # version 1 still resolvable for instances that stay behind
        assert repository.schema("online_order", 1).version == 1

    def test_storage_size_grows_with_versions(self, order_schema):
        repository = SchemaRepository()
        repository.register_type(order_schema)
        before = repository.storage_size_bytes()
        assert before == len(json.dumps({"online_order:1": order_schema.to_dict()}, sort_keys=True))
        repository.release_version("online_order", order_type_change_v2())
        assert repository.storage_size_bytes() > before
