"""Property-based parity: lazy on-touch adoption ≡ eager evolution.

The zero-downtime rollout migrates each case individually when it is
touched, through the same compiled :class:`MigrationPlan` and shared
fingerprint verdicts as the eager bulk engine.  For any random schema,
population and type change, driving a lazy rollout to convergence
(touch + sweep) must therefore leave the population byte-identical to
an eager ``migrate="compliant"`` evolution — same migrated set, same
conflict set, same end state per fingerprint class.

A store-resident case that must be looked at (first of its class,
biased, a biased class's representative) is decided on a scratch copy
that never enters the live cache; deciding it that way must equal
hydrating it into the live cache and migrating the live case
(:class:`TestScratchDecisionParity`).
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage.serialization import instance_from_dict, instance_to_dict
from repro.system import AdeptSystem
from repro.workloads.change_generator import ChangeScenarioGenerator
from repro.workloads.population import PopulationConfig, PopulationGenerator
from repro.workloads.schema_generator import RandomSchemaGenerator, SchemaGeneratorConfig

RELAXED = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _random_schema(seed: int, activities: int):
    config = SchemaGeneratorConfig(
        target_activities=activities,
        parallel_probability=0.25,
        conditional_probability=0.2,
        loop_probability=0.1,
        max_depth=2,
    )
    return RandomSchemaGenerator(config, seed=seed).generate(f"lazy_{seed}_{activities}")


def _type_change(schema, seed: int):
    try:
        change = ChangeScenarioGenerator(schema, seed=seed).random_type_change(
            operation_count=2
        )
        change.operations.apply_to(schema, check=True)
    except Exception:
        return None
    return change


def _populated_system(schema_seed, activities, population_seed, biased):
    schema = _random_schema(schema_seed, activities)
    population = PopulationGenerator(
        schema,
        config=PopulationConfig(
            instance_count=30,
            biased_fraction=biased,
            seed=population_seed,
            id_prefix="lazy",
        ),
    ).generate()
    system = AdeptSystem()
    system.deploy(schema, verify=False)
    ids = []
    for instance in population:
        system.adopt_instance(instance)
        ids.append(instance.instance_id)
    return system, schema, ids


def _digest(system, ids):
    return [
        json.dumps(instance_to_dict(system.get_instance(i)), sort_keys=True)
        for i in ids
    ]


class TestLazyEagerParity:
    @RELAXED
    @given(
        schema_seed=st.integers(min_value=0, max_value=9999),
        activities=st.integers(min_value=4, max_value=10),
        population_seed=st.integers(min_value=0, max_value=9999),
        change_seed=st.integers(min_value=0, max_value=9999),
        biased=st.sampled_from([0.0, 0.25]),
    )
    def test_converged_lazy_rollout_equals_eager_evolution(
        self, schema_seed, activities, population_seed, change_seed, biased
    ):
        probe_schema = _random_schema(schema_seed, activities)
        if _type_change(probe_schema, change_seed) is None:
            return

        # eager reference run
        eager, schema, ids = _populated_system(
            schema_seed, activities, population_seed, biased
        )
        report = eager.evolve(
            schema.name, _type_change(schema, change_seed), migrate="compliant"
        )
        eager_digest = _digest(eager, ids)

        # lazy run: every case is touched (a save() walks the touch
        # path without stepping), then the sweeper drains the rest
        lazy, schema2, ids2 = _populated_system(
            schema_seed, activities, population_seed, biased
        )
        rollout = lazy.evolve(
            schema2.name, _type_change(schema2, change_seed), rollout="lazy"
        )
        for instance_id in ids2:
            lazy.save(instance_id)
        while lazy.rollout_of(schema2.name) is not None:
            if lazy.sweep_rollout(schema2.name, max_cases=7) == 0:
                break
        lazy_digest = _digest(lazy, ids2)

        assert lazy_digest == eager_digest, "end states diverge between lazy and eager"
        assert sorted(rollout.adopted) == sorted(report.migrated_instances)
        assert sorted(rollout.conflicted) == sorted(report.non_compliant_instances)

    @RELAXED
    @given(
        schema_seed=st.integers(min_value=0, max_value=9999),
        population_seed=st.integers(min_value=0, max_value=9999),
        change_seed=st.integers(min_value=0, max_value=9999),
    )
    def test_touch_order_is_irrelevant(
        self, schema_seed, population_seed, change_seed
    ):
        """Forward touches vs sweep-only reach the same converged state."""
        probe_schema = _random_schema(schema_seed, 8)
        if _type_change(probe_schema, change_seed) is None:
            return
        digests = []
        for touch_first in (True, False):
            system, schema, ids = _populated_system(
                schema_seed, 8, population_seed, 0.25
            )
            system.evolve(
                schema.name, _type_change(schema, change_seed), rollout="lazy"
            )
            if touch_first:
                for instance_id in reversed(ids):
                    system.save(instance_id)
            while system.rollout_of(schema.name) is not None:
                if system.sweep_rollout(schema.name, max_cases=11) == 0:
                    break
            digests.append(_digest(system, ids))
        assert digests[0] == digests[1]


# --------------------------------------------------------------------------- #
# scratch decisions of stored cases ≡ hydrating them live
# --------------------------------------------------------------------------- #

TIER1 = settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
STRESS = settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _recording(system, hydrate):
    """Keep every per-case migration result of ``system``, in the order cases
    were decided; with ``hydrate``, decide every stored case the way a live
    one is: hydrated first."""
    evolution = system.evolution
    migrate_case = evolution._migrate_case
    decided = []

    def recording(instance_id, type_change, plan, cache, instance=None, **options):
        if hydrate and instance is None:
            instance = system.get_instance(instance_id)
        result = migrate_case(instance_id, type_change, plan, cache, instance, **options)
        decided.append(
            (
                result.instance_id,
                result.outcome.value,
                result.was_biased,
                [str(conflict) for conflict in result.conflicts],
            )
        )
        return result

    evolution._migrate_case = recording
    return decided


def _cloned_population(hydrate, schema_seed, activities, population_seed, biased):
    """30 generated cases plus a clone of each (so classes, biased ones too, have
    several members), adopted into a live cache of 4 — nearly all store-resident;
    the system records its per-case migration results (:func:`_recording`)."""
    schema = _random_schema(schema_seed, activities)
    population = PopulationGenerator(
        schema,
        config=PopulationConfig(
            instance_count=30,
            biased_fraction=biased,
            seed=population_seed,
            id_prefix="scratch",
        ),
    ).generate()
    system = AdeptSystem(cache_instances=4)
    decided = _recording(system, hydrate)
    system.deploy(schema, verify=False)
    ids = []
    for instance in population:
        clone = instance_to_dict(instance)
        clone["instance_id"] = f"{instance.instance_id}-twin"
        for member in (instance, instance_from_dict(clone, system.repository.resolve)):
            system.adopt_instance(member)
            ids.append(member.instance_id)
    return system, schema, ids, decided


def _stored_form(system, instance_id):
    """The case's record as bytes — encoded from the live case if there is
    one — less the write-back's ``"fix"`` hint."""
    with system._lock.holding():
        live = system._instances.get(instance_id)
    record = system.store.encode_record(live) if live is not None else system.store.record(instance_id)
    record = dict(record)
    record["marking"] = {k: v for k, v in record["marking"].items() if k != "fix"}
    return json.dumps(record, sort_keys=True)


def _open_work(system, instance_id):
    return sorted(
        (item.activity_id, item.role, item.state.value)
        for item in system.worklists.items_for_instance(instance_id)
    )


def check_scratch_parity(schema_seed, activities, population_seed, change_seed, biased, lazy):
    probe = _random_schema(schema_seed, activities)
    if _type_change(probe, change_seed) is None:
        return
    outcomes = []
    for hydrate in (False, True):
        system, schema, ids, decided = _cloned_population(
            hydrate, schema_seed, activities, population_seed, biased
        )
        live_before = system.live_instance_ids()
        change = _type_change(schema, change_seed)
        if lazy:
            rollout = system.evolve(schema.name, change, rollout="lazy")
            while system.rollout_of(schema.name) is not None:
                if system.sweep_rollout(schema.name, max_cases=13) == 0:
                    break
            settled = (sorted(rollout.adopted), sorted(rollout.conflicted))
        else:
            report = system.evolve(schema.name, change)
            settled = sorted(
                (r.instance_id, r.outcome.value, r.was_biased, [str(c) for c in r.conflicts])
                for r in report.results
            )
        if not hydrate:
            # scratch decisions hydrate nobody into the live cache
            assert system.live_instance_ids() == live_before
        outcomes.append(
            (
                decided,
                settled,
                {i: _stored_form(system, i) for i in ids},
                {i: _open_work(system, i) for i in ids},
            )
        )
    scratch, hydrated = outcomes
    assert scratch[0] == hydrated[0], "per-case migration results differ"
    assert scratch[1] == hydrated[1]
    assert scratch[2] == hydrated[2], "stored records differ"
    assert scratch[3] == hydrated[3], "open work items differ"


_SCRATCH_CASES = dict(
    schema_seed=st.integers(min_value=0, max_value=9999),
    activities=st.integers(min_value=4, max_value=10),
    population_seed=st.integers(min_value=0, max_value=9999),
    change_seed=st.integers(min_value=0, max_value=9999),
    biased=st.sampled_from([0.0, 0.3]),
    lazy=st.booleans(),
)


class TestScratchDecisionParity:
    """First-of-class, biased, biased-class-member and conflicting cases alike:
    the per-case result, the stored record (less ``"fix"``) and the open work
    items equal those of a twin that hydrates every stored case it decides."""

    @TIER1
    @given(**_SCRATCH_CASES)
    def test_scratch_decision_equals_live_hydration(self, **case):
        check_scratch_parity(**case)

    @pytest.mark.stress
    @STRESS
    @given(**_SCRATCH_CASES)
    def test_scratch_decision_equals_live_hydration_stress(self, **case):
        check_scratch_parity(**case)
