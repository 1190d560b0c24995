"""Tests for workload generation (schemas, populations, change scenarios)."""

import pytest

from repro.core.changelog import ChangeLog
from repro.core.compliance import ComplianceChecker
from repro.runtime.engine import ProcessEngine
from repro.runtime.states import InstanceStatus
from repro.schema import templates
from repro.verification import verify_schema
from repro.workloads.change_generator import ChangeScenarioGenerator
from repro.workloads.population import PopulationConfig, PopulationGenerator
from repro.workloads.order_process import (
    ORDER_EXECUTION_SEQUENCE,
    i2_adhoc_bias,
    order_type_change_v2,
    paper_fig1_scenario,
    paper_fig3_population,
)
from repro.workloads.schema_generator import RandomSchemaGenerator, SchemaGeneratorConfig


class TestRandomSchemaGenerator:
    def test_generated_schemas_verify(self):
        generator = RandomSchemaGenerator(seed=1)
        for schema in generator.generate_many(5):
            assert verify_schema(schema).is_correct

    def test_target_size_respected(self):
        config = SchemaGeneratorConfig(target_activities=30)
        schema = RandomSchemaGenerator(config, seed=2).generate()
        assert 20 <= len(schema.activity_ids()) <= 45

    def test_deterministic_for_seed(self):
        first = RandomSchemaGenerator(seed=9).generate("a")
        second = RandomSchemaGenerator(seed=9).generate("a")
        assert first.structurally_equals(second)

    def test_different_seeds_differ(self):
        first = RandomSchemaGenerator(seed=1).generate("a")
        second = RandomSchemaGenerator(seed=2).generate("a")
        assert not first.structurally_equals(second)

    def test_generated_schema_executes(self):
        schema = RandomSchemaGenerator(seed=3).generate()
        engine = ProcessEngine()
        instance = engine.create_instance(schema, "run")
        engine.run_to_completion(instance)
        assert instance.status is InstanceStatus.COMPLETED

    def test_generate_many_unique_ids(self):
        schemas = RandomSchemaGenerator(seed=4).generate_many(4, prefix="x")
        assert len({s.schema_id for s in schemas}) == 4


class TestPopulationGenerator:
    def test_population_size_and_spread(self, order_schema):
        generator = PopulationGenerator(
            order_schema, config=PopulationConfig(instance_count=50, biased_fraction=0.2, seed=7)
        )
        population = generator.generate()
        assert len(population) == 50
        progresses = {len(i.completed_activities()) for i in population}
        assert len(progresses) > 2  # spread over several stages
        assert any(i.is_biased for i in population)
        assert any(not i.is_biased for i in population)

    def test_zero_bias_fraction(self, order_schema):
        generator = PopulationGenerator(
            order_schema, config=PopulationConfig(instance_count=10, biased_fraction=0.0)
        )
        assert not any(i.is_biased for i in generator.generate())

    def test_population_is_reproducible(self, order_schema):
        config = PopulationConfig(instance_count=15, biased_fraction=0.3, seed=21)
        first = PopulationGenerator(order_schema, config=config).generate()
        second = PopulationGenerator(order_schema, config=config).generate()
        assert [i.completed_activities() for i in first] == [
            i.completed_activities() for i in second
        ]
        assert [i.is_biased for i in first] == [i.is_biased for i in second]

    def test_population_on_looping_schema(self, treatment_schema):
        generator = PopulationGenerator(
            treatment_schema, config=PopulationConfig(instance_count=10, biased_fraction=0.1, seed=3)
        )
        population = generator.generate()
        assert len(population) == 10


class TestChangeScenarioGenerator:
    def test_random_type_change_is_applicable(self, order_schema):
        generator = ChangeScenarioGenerator(order_schema, seed=13)
        for _ in range(5):
            change = generator.random_type_change(operation_count=2)
            changed = change.operations.apply_to(order_schema)
            assert verify_schema(changed).is_correct

    def test_every_generated_type_change_verifies(self, order_schema):
        """The generator draws without a verifier; every ΔT it returns still verifies."""
        schemas = [order_schema] + RandomSchemaGenerator(seed=5).generate_many(3)
        for schema in schemas:
            for seed in range(200):
                change = ChangeScenarioGenerator(schema, seed=seed).random_type_change()
                report = verify_schema(change.operations.apply_to(schema, check=False))
                assert report.is_correct, f"{schema.schema_id} seed {seed}:\n{report.summary()}"

    def test_random_adhoc_operations_apply(self, engine, order_schema):
        generator = ChangeScenarioGenerator(order_schema, seed=17)
        instance = engine.create_instance(order_schema, "i1")
        engine.complete_activity(instance, "get_order")
        operations = generator.random_adhoc_operations(instance)
        assert operations
        checker = ComplianceChecker()
        assert checker.check_with_conditions(instance, operations).compliant

    def test_adhoc_operations_for_finished_instance_empty(self, engine, sequence_schema):
        generator = ChangeScenarioGenerator(sequence_schema, seed=23)
        instance = engine.create_instance(sequence_schema, "i1")
        engine.run_to_completion(instance)
        assert generator.random_adhoc_operations(instance) == []

    def test_individual_generators(self, order_schema):
        generator = ChangeScenarioGenerator(order_schema, seed=29)
        assert generator.random_serial_insert() is not None
        assert generator.random_sync_insert() is not None
        assert generator.random_attribute_change() is not None
        delete = generator.random_delete()
        assert delete is not None
        assert not delete.check_preconditions(order_schema)


class TestOrderProcessScenario:
    def test_fig1_scenario_states(self):
        scenario = paper_fig1_scenario()
        assert scenario.i1.node_state("compose_order").value == "completed"
        assert scenario.i1.node_state("pack_goods").value == "activated"
        assert scenario.i2.is_biased
        assert scenario.i3.node_state("pack_goods").value == "completed"
        assert len(scenario.type_change.operations) == 2

    def test_fig3_population_properties(self):
        process_type, engine, instances = paper_fig3_population(instance_count=80, seed=1)
        assert len(instances) == 80
        assert process_type.latest_version == 1
        assert any(i.is_biased for i in instances)
        assert any(i.status is InstanceStatus.COMPLETED for i in instances)
        assert any(i.status is InstanceStatus.RUNNING for i in instances)

    def test_execution_sequence_is_valid(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "seq")
        for activity in ORDER_EXECUTION_SEQUENCE:
            engine.complete_activity(instance, activity)
        assert instance.status is InstanceStatus.COMPLETED

    def test_i2_bias_applies_to_fresh_instance(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "fresh")
        checker = ComplianceChecker()
        assert checker.check_with_conditions(instance, ChangeLog(i2_adhoc_bias())).compliant

    def test_type_change_produces_verified_v2(self, order_schema):
        changed = order_type_change_v2().operations.apply_to(order_schema)
        assert verify_schema(changed).is_correct
        assert changed.has_node("send_questions")
