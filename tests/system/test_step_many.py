"""Tests for the batch stepping API of the façade."""

import pytest

from repro.runtime.states import InstanceStatus
from repro.schema import templates
from repro.system import AdeptSystem
from repro.workloads.schema_generator import RandomSchemaGenerator, SchemaGeneratorConfig


@pytest.fixture()
def system_with_population():
    system = AdeptSystem()
    handle = system.deploy(templates.online_order_process())
    cases = [handle.start() for _ in range(6)]
    return system, handle, cases


class TestStepMany:
    def test_advances_every_instance_one_step(self, system_with_population):
        system, handle, cases = system_with_population
        ids = [case.instance_id for case in cases]
        results = system.step_many(ids, steps=1)
        assert [result.instance_id for result in results] == ids
        assert all(result.steps == 1 for result in results)
        for case in cases:
            assert len(system.get_instance(case.instance_id).completed_activities()) == 1

    def test_matches_single_stepping(self, system_with_population):
        system, handle, cases = system_with_population
        batch_ids = [case.instance_id for case in cases[:3]]
        single_ids = [case.instance_id for case in cases[3:]]
        while any(
            system.get_instance(instance_id).status.is_active for instance_id in batch_ids
        ):
            system.step_many(batch_ids, steps=1)
        for instance_id in single_ids:
            system.run(instance_id)
        batch_traces = [
            tuple(system.get_instance(i).completed_activities()) for i in batch_ids
        ]
        single_traces = [
            tuple(system.get_instance(i).completed_activities()) for i in single_ids
        ]
        assert batch_traces == single_traces
        assert all(
            system.get_instance(i).status is InstanceStatus.COMPLETED
            for i in batch_ids + single_ids
        )

    def test_executes_the_same_step_count_as_per_activity_run(self):
        """Batched and one-at-a-time stepping of a large looping schema agree."""
        schema = RandomSchemaGenerator(
            SchemaGeneratorConfig(target_activities=60, loop_probability=0.05), seed=7
        ).generate("step_count")

        def total_steps(schema_id, advance):
            system = AdeptSystem(monitor=False)
            handle = system.deploy(schema.copy(schema_id=schema_id), verify=False)
            ids = [handle.start().instance_id for _ in range(5)]
            total = 0
            while True:
                advanced = advance(system, ids)
                if not advanced:
                    return total
                total += advanced

        batched = total_steps(
            "batched", lambda system, ids: sum(r.steps for r in system.step_many(ids, steps=1))
        )
        single = total_steps(
            "single", lambda system, ids: sum(system.run(i, max_steps=1).steps for i in ids)
        )
        assert batched == single > 0

    def test_completed_instances_report_zero_steps(self, system_with_population):
        system, handle, cases = system_with_population
        first = cases[0].instance_id
        system.run(first)
        results = system.step_many([first], steps=5)
        assert results[0].steps == 0
        assert results[0].status is InstanceStatus.COMPLETED

    def test_an_id_given_twice_reports_the_chunks_final_status_at_both_positions(self):
        """Each position's ``steps`` is its own; ``status`` is read after the chunk."""
        system = AdeptSystem()
        handle = system.deploy(templates.sequential_process(length=3))
        twice, other = handle.start().instance_id, handle.start().instance_id
        system.step_many([twice], steps=2)  # one activity before completion

        results = system.step_many([twice, other, twice], steps=1)

        assert [result.instance_id for result in results] == [twice, other, twice]
        assert [result.steps for result in results] == [1, 1, 0]
        assert results[0].status is results[2].status is InstanceStatus.COMPLETED
        assert results[1].status is InstanceStatus.RUNNING

    def test_steps_bound_respected(self, system_with_population):
        system, handle, cases = system_with_population
        instance_id = cases[0].instance_id
        results = system.step_many([instance_id], steps=3)
        assert results[0].steps == 3
        assert len(system.get_instance(instance_id).completed_activities()) == 3

    def test_unknown_instance_raises(self, system_with_population):
        system, handle, cases = system_with_population
        from repro.runtime.engine import EngineError

        with pytest.raises(EngineError):
            system.step_many(["no-such-case"])

    def test_worklists_reflect_batch_progress(self, system_with_population):
        system, handle, cases = system_with_population
        ids = [case.instance_id for case in cases]
        system.step_many(ids, steps=1)
        # after the batch the worklist manager sees the new activations
        activated = {
            activity for instance_id in ids for activity in system.activated(instance_id)
        }
        assert activated
