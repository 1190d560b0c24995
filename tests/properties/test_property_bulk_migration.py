"""Property-based tests for the migration pipeline.

The fingerprint-sharing soundness contract: instances with equal
compliance fingerprints receive byte-identical ``ComplianceResult``s and
adapted markings, so migrating a population through the one pipeline
(compiled plan, class verdicts, stored-record rewrites) must produce the
``MigrationReport`` and the end states of the per-instance reference
migrator (``tests/baselines/reference_migration.py``) — including biased
instances, the rollback-on-state-conflict policy and mid-stream LRU
eviction under a small ``cache_instances`` bound.

A class's verdict is the operations' compliance conditions on its first
member, so these properties are the oracle of the plan's state
projection: a projection that misses an input the conditions read puts
cases with different verdicts into one class.  Execution alone never
reaches some of those inputs — every case holds each element's schema
default — so one property also draws stored data states: records in
which the element a deleted activity writes holds no value.  Tier-1
runs 15 examples each, their ``stress`` variants 300 (the CI ``chaos``
job).
"""

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.compliance import ComplianceChecker
from repro.core.evolution import ProcessType, TypeChange
from repro.core.migration import MigrationManager
from repro.core.migration_plan import MigrationPlan
from repro.core.operations import DeleteActivity, OperationError
from repro.core.state_adaptation import StateAdapter
from repro.schema.graph import SchemaError
from repro.storage.serialization import instance_to_dict
from repro.system import AdeptSystem
from repro.workloads.change_generator import ChangeScenarioGenerator
from repro.workloads.population import PopulationConfig, PopulationGenerator
from repro.workloads.schema_generator import RandomSchemaGenerator, SchemaGeneratorConfig

from tests.baselines.reference_migration import (
    ReferenceMigrator,
    reference_evolve,
    report_payload,
)

RELAXED = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
STRESS = settings(RELAXED, max_examples=300)


def _random_schema(seed: int, activities: int):
    config = SchemaGeneratorConfig(
        target_activities=activities,
        parallel_probability=0.25,
        conditional_probability=0.2,
        loop_probability=0.1,
        max_depth=2,
    )
    return RandomSchemaGenerator(config, seed=seed).generate(f"bulk_{seed}_{activities}")


def _data_flow_schema(seed: int):
    """A small random schema whose activities often read and write a pool of four elements."""
    config = SchemaGeneratorConfig(
        target_activities=6,
        parallel_probability=0.25,
        conditional_probability=0.2,
        loop_probability=0.1,
        max_depth=2,
        data_element_pool=4,
        read_probability=0.8,
        write_probability=0.6,
    )
    return RandomSchemaGenerator(config, seed=seed).generate(f"data_{seed}")


def _writer_deletion(schema, seed: int):
    """``ΔT`` deleting the sole writer of an element a mandatory read needs.

    The check accepts it because the element has a schema default; its
    compliance condition then asks whether a case's element holds a
    value.  ``(None, ())`` when the schema has no such writer.
    """
    candidates = []
    for activity in schema.activity_ids():
        elements = tuple(
            write.element
            for write in schema.writes_of(activity)
            if schema.writers_of(write.element) == [activity]
            and any(
                edge.element == write.element
                and edge.is_read
                and edge.mandatory
                and edge.activity != activity
                for edge in schema.data_edges
            )
        )
        if not elements:
            continue
        change = TypeChange.of(schema.version, [DeleteActivity(activity_id=activity)])
        try:
            change.operations.apply_to(schema, check=True)
        except (OperationError, SchemaError):
            continue
        candidates.append((change, elements))
    if not candidates:
        return None, ()
    return random.Random(seed).choice(candidates)


def _population(schema, seed: int, count: int, biased: float):
    generator = PopulationGenerator(
        schema,
        config=PopulationConfig(
            instance_count=count, biased_fraction=biased, seed=seed, id_prefix="bulk"
        ),
    )
    return generator.generate()


def _type_change(schema, seed: int):
    try:
        change = ChangeScenarioGenerator(schema, seed=seed).random_type_change(
            operation_count=2
        )
        change.operations.apply_to(schema, check=True)
    except Exception:
        return None
    return change


def _state_digest(instances) -> list:
    return [json.dumps(instance_to_dict(i), sort_keys=True) for i in instances]


def memoized_equals_per_instance(schema_seed, activities, population_seed, change_seed, rollback):
    """The manager's reports and end states are the reference migrator's."""
    schema = _random_schema(schema_seed, activities)
    change = _type_change(schema, change_seed)
    if change is None:
        return
    runs = []
    for migrator in (
        ReferenceMigrator(rollback_on_state_conflict=rollback),
        MigrationManager(rollback_on_state_conflict=rollback),
    ):
        fresh_schema = _random_schema(schema_seed, activities)
        population = _population(fresh_schema, population_seed, 30, biased=0.25)
        process_type = ProcessType(fresh_schema.name, fresh_schema)
        report = migrator.migrate_type(
            process_type, _type_change(fresh_schema, change_seed), population
        )
        runs.append((report_payload(report), _state_digest(population)))
    assert runs[0][0] == runs[1][0], "reports diverge from the reference migrator"
    assert runs[0][1] == runs[1][1], "instance end states diverge from the reference migrator"


def fingerprint_classes_share_exact_verdicts(schema_seed, population_seed, change_seed):
    """Equal fingerprint ⇒ byte-identical compliance result and marking."""
    schema = _random_schema(schema_seed, 8)
    change = _type_change(schema, change_seed)
    if change is None:
        return
    new_schema = change.operations.apply_to(schema)
    new_schema.version = schema.version + 1
    plan = MigrationPlan.compile(schema, new_schema, change)
    population = _population(schema, population_seed, 30, biased=0.0)
    checker = ComplianceChecker()
    classes = {}
    for instance in population:
        if not instance.status.is_active:
            continue
        fingerprint = plan.fingerprint_of_instance(instance)
        assert fingerprint is not None
        result = checker.check_with_conditions(instance, change.operations)
        marking = None
        if result.compliant:
            marking = json.dumps(
                StateAdapter().adapt(instance, new_schema).to_dict(), sort_keys=True
            )
        observed = (
            result.compliant,
            tuple(str(conflict) for conflict in result.conflicts),
            marking,
        )
        if fingerprint in classes:
            assert classes[fingerprint] == observed, (
                "two instances with equal fingerprints computed different "
                "verdicts or adapted markings"
            )
        else:
            classes[fingerprint] = observed


def streaming_evolve_with_eviction_matches_hydrated(
    schema_seed, population_seed, change_seed, cache_cap, migrate
):
    """Facade parity: evolve under a tiny LRU == the per-instance reference."""
    probe_schema = _random_schema(schema_seed, 6)
    if _type_change(probe_schema, change_seed) is None:
        return
    outcomes = []
    # same LRU bound on both sides: the candidate set (live cases plus
    # *running* stored cases) depends on which finished cases are still
    # live, so differing caps would compare different populations
    for evolve in (reference_evolve, AdeptSystem.evolve):
        system = AdeptSystem(cache_instances=cache_cap)
        schema = _random_schema(schema_seed, 6)
        handle = system.deploy(schema, verify=False)
        PopulationGenerator(
            schema,
            config=PopulationConfig(
                instance_count=25,
                biased_fraction=0.2,
                seed=population_seed,
                id_prefix="case",
            ),
            system=system,
        ).generate()
        # part of the population rests in the store only (evicted)
        report = evolve(
            system, handle.type_id, _type_change(schema, change_seed), migrate=migrate
        )
        states = {
            handle_.instance_id: system.get_instance(
                handle_.instance_id
            ).state_fingerprint()
            for handle_ in system.instances_of(handle.type_id)
        }
        outcomes.append((report_payload(report), states))
        system.close()
    assert outcomes[0][0] == outcomes[1][0], "reports diverge from the reference"
    assert outcomes[0][1] == outcomes[1][1], "end states diverge from the reference"


def stored_data_states_match_hydrated(schema_seed, population_seed, drop_seed, cache_cap, migrate):
    """Facade parity over stored records whose deleted writer's element is empty.

    Half the stored-only records (drawn by ``drop_seed``) lose the value
    of each element the deleted activity alone writes, through
    ``store.put_record`` on a copied record.  Two such records at one
    marking differ only in ``has_value``, which the deletion's condition
    reads: the plan must put them in different classes, as the reference
    decides each case on its own.
    """
    change, elements = _writer_deletion(_data_flow_schema(schema_seed), schema_seed)
    if change is None:
        return
    outcomes = []
    for evolve in (reference_evolve, AdeptSystem.evolve):
        system = AdeptSystem(cache_instances=cache_cap)
        schema = _data_flow_schema(schema_seed)
        handle = system.deploy(schema, verify=False)
        PopulationGenerator(
            schema,
            config=PopulationConfig(
                instance_count=25, biased_fraction=0.2, seed=population_seed, id_prefix="case"
            ),
            system=system,
        ).generate()
        live = set(system.live_instance_ids())
        drop = random.Random(drop_seed)
        for instance_id in system.store.instance_ids():
            if instance_id in live or drop.random() < 0.5:
                continue
            record = json.loads(json.dumps(system.store.record(instance_id)))
            for element in elements:
                record["data"]["values"].pop(element, None)
            system.store.put_record(record)
        report = evolve(system, handle.type_id, change, migrate=migrate)
        states = {
            case.instance_id: system.get_instance(case.instance_id).state_fingerprint()
            for case in system.instances_of(handle.type_id)
        }
        outcomes.append((report_payload(report), states))
        system.close()
    assert outcomes[0][0] == outcomes[1][0], "reports diverge from the reference"
    assert outcomes[0][1] == outcomes[1][1], "end states diverge from the reference"


_PARITY_CASES = dict(
    schema_seed=st.integers(min_value=0, max_value=9999),
    activities=st.integers(min_value=4, max_value=10),
    population_seed=st.integers(min_value=0, max_value=9999),
    change_seed=st.integers(min_value=0, max_value=9999),
    rollback=st.booleans(),
)
_CLASS_CASES = dict(
    schema_seed=st.integers(min_value=0, max_value=9999),
    population_seed=st.integers(min_value=0, max_value=9999),
    change_seed=st.integers(min_value=0, max_value=9999),
)
_EVOLVE_CASES = dict(
    schema_seed=st.integers(min_value=0, max_value=999),
    population_seed=st.integers(min_value=0, max_value=999),
    change_seed=st.integers(min_value=0, max_value=999),
    cache_cap=st.integers(min_value=2, max_value=6),
    migrate=st.sampled_from(["compliant", "rollback"]),
)

def _has_writer_deletion(seed: int) -> bool:
    return _writer_deletion(_data_flow_schema(seed), seed)[0] is not None


_STORED_DATA_CASES = dict(
    # about 70 % of these schemas have such a writer; draw only those
    schema_seed=st.integers(min_value=0, max_value=999).filter(_has_writer_deletion),
    population_seed=st.integers(min_value=0, max_value=999),
    drop_seed=st.integers(min_value=0, max_value=999),
    cache_cap=st.integers(min_value=2, max_value=6),
    migrate=st.sampled_from(["compliant", "rollback"]),
)


class TestMemoizationParity:
    @RELAXED
    @given(**_PARITY_CASES)
    def test_memoized_equals_per_instance(self, **case):
        memoized_equals_per_instance(**case)

    @RELAXED
    @given(**_CLASS_CASES)
    def test_fingerprint_classes_share_exact_verdicts(self, **case):
        fingerprint_classes_share_exact_verdicts(**case)

    @RELAXED
    @given(**_EVOLVE_CASES)
    def test_streaming_evolve_with_eviction_matches_hydrated(self, **case):
        streaming_evolve_with_eviction_matches_hydrated(**case)

    @RELAXED
    @given(**_STORED_DATA_CASES)
    def test_stored_data_states_match_hydrated(self, **case):
        stored_data_states_match_hydrated(**case)

    @pytest.mark.stress
    @STRESS
    @given(**_PARITY_CASES)
    def test_memoized_equals_per_instance_stress(self, **case):
        memoized_equals_per_instance(**case)

    @pytest.mark.stress
    @STRESS
    @given(**_CLASS_CASES)
    def test_fingerprint_classes_share_exact_verdicts_stress(self, **case):
        fingerprint_classes_share_exact_verdicts(**case)

    @pytest.mark.stress
    @STRESS
    @given(**_EVOLVE_CASES)
    def test_streaming_evolve_with_eviction_matches_hydrated_stress(self, **case):
        streaming_evolve_with_eviction_matches_hydrated(**case)

    @pytest.mark.stress
    @STRESS
    @given(**_STORED_DATA_CASES)
    def test_stored_data_states_match_hydrated_stress(self, **case):
        stored_data_states_match_hydrated(**case)
