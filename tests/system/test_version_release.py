"""Compiled versions follow their cases.

After every release the façade recomputes which versions of the type
some case runs on — every live case, of any status, plus every active
stored record — and drops the ``SchemaIndex`` (with its marking layout
and step kernel) of every version at least two behind the latest that no
case occupies.  A released schema is frozen, so whenever a case needs a
dropped version again its rebuilt index has the dropped one's node and
edge positions, and positionally stored markings decode unchanged.

The guards: the versions holding an index are exactly the occupied ones
plus the latest two; a dropped index is really freed; a released schema
refuses mutation; and every path that meets a dropped version again — a
hydrated straggler, a finished case that is read, a start on a
pin-retired version, a canary revert, recovery, strict and lazy evolves
— behaves exactly like a twin system in which nothing was ever dropped.
"""

import gc
import json

import pytest

from repro import AdeptSystem, ChangeSet
from repro.schema import templates
from repro.schema.graph import SchemaError
from repro.schema.index import SchemaIndex
from repro.storage.serialization import instance_to_dict
from repro.system.rollout import STATE_ROLLED_BACK

pytestmark = pytest.mark.kernel

TYPE = "sequence"
CYCLES = 10


def delta(cycle):
    """Insert ``x`` between step_2 and step_3, then delete it again."""
    if cycle % 2 == 0:
        return ChangeSet().serial_insert("x", pred="step_2", succ="step_3")
    return ChangeSet().delete("x")


def deploy(system, twin=False):
    """Deploy the six-step sequence; a ``twin`` keeps every version's index
    whatever the occupancy (the rule before versions followed their cases)."""
    seq = system.deploy(templates.sequential_process(length=6))
    if twin:
        seq.raw.drop_unoccupied = lambda occupied: None
    return seq


def populate(system, cycles=CYCLES, twin=False):
    """``cycles`` eager evolves; before each, one case finishes on the latest
    version and one straggler is stepped past the point the next Δ changes,
    so it stays behind on that version.  Returns the stragglers by cycle."""
    seq = deploy(system, twin)
    stragglers = []
    for cycle in range(cycles):
        finished = seq.start().instance_id
        system.step_many([finished], steps=50)
        straggler = seq.start().instance_id
        system.step_many([straggler], steps=4)
        seq.evolve(delta(cycle))
        assert system.get_instance(straggler).schema_version == cycle + 1
        stragglers.append(straggler)
    return stragglers


def indexed_versions(system):
    """Versions whose schema holds an index — read without rebuilding one."""
    process_type = system.repository.process_type(TYPE)
    return [v for v in process_type.versions if process_type.schema_for(v)._index is not None]


def record_bytes(system, instance_id):
    return json.dumps(instance_to_dict(system.get_instance(instance_id)), sort_keys=True)


def run_to_completion(system, instance_id):
    """Step one activity at a time; the fingerprint after every step."""
    prints = []
    while system.get_instance(instance_id).status.is_active:
        system.step_many([instance_id], steps=1)
        prints.append(system.get_instance(instance_id).state_fingerprint())
    return prints


def report_lines(report):
    return report.outcome_counts(), [result.describe() for result in report.results]


class TestOccupancy:
    def test_indexed_versions_are_the_occupied_ones_and_the_latest_two(self):
        system = AdeptSystem(cache_instances=2)
        stragglers = populate(system)
        kept = {}
        for cycle, straggler in enumerate(stragglers):
            if cycle % 4 == 3:
                kept[straggler] = cycle + 1  # stays running on its version
            elif cycle % 2 == 0:
                system.delete_instance(straggler)
            else:
                system.step_many([straggler], steps=50)
                assert not system.get_instance(straggler).status.is_active
        process_type = system.repository.process_type(TYPE)
        # two fresh cases push every finished one out of the live cache
        fresh = [system.start(TYPE).instance_id for _ in range(2)]
        assert sorted(system.live_instance_ids()) == sorted(fresh)

        system.evolve(TYPE, delta(CYCLES))

        latest = process_type.latest_version
        assert latest == CYCLES + 2
        occupied = set(kept.values()) | {latest}
        assert indexed_versions(system) == sorted(occupied | {latest - 1})
        # a dropped index is freed, not merely unlinked
        gc.collect()
        dropped = {
            id(process_type.schema_for(v))
            for v in process_type.versions
            if v not in occupied | {latest - 1}
        }
        assert len(dropped) == len(process_type.versions) - len(occupied) - 1
        alive = [
            obj for obj in gc.get_objects() if type(obj) is SchemaIndex and id(obj.schema) in dropped
        ]
        assert alive == []
        # the stragglers left behind step on their own versions to the end
        for straggler, version in kept.items():
            run_to_completion(system, straggler)
            assert system.get_instance(straggler).schema_version == version


class TestFrozenRelease:
    def test_a_released_version_refuses_mutation_and_changes_copy(self):
        system = AdeptSystem()
        system.deploy(templates.sequential_process(length=4))
        system.evolve(TYPE, delta(0))
        for version in (1, 2):
            schema = system.repository.schema(TYPE, version)
            with pytest.raises(SchemaError, match=schema.schema_id):
                schema.remove_edge("step_1", "step_2")
            assert schema.has_edge("step_1", "step_2")
        released = system.repository.schema(TYPE, 1)
        changed = ChangeSet().serial_insert("y", pred="step_1", succ="step_2").to_change_log()
        copy = changed.apply_to(released, check=True)
        assert copy is not released and copy.has_node("y") and not released.has_node("y")
        copy.remove_node("y")  # the copy stays mutable
        assert not copy.has_node("y")


class TestRebuild:
    def test_a_straggler_on_a_dropped_version_runs_like_its_twin(self):
        system = AdeptSystem(cache_instances=2)
        twin = AdeptSystem(cache_instances=2)
        stragglers = populate(system)
        assert populate(twin, twin=True) == stragglers
        straggler = stragglers[2]
        assert straggler not in system.live_instance_ids()
        schema = system.repository.schema(TYPE, 3)
        layout = schema.index.marking_layout()
        # even an occupancy that under-counts only costs a rebuild
        system.repository.process_type(TYPE).drop_unoccupied(set())
        assert schema._index is None

        assert run_to_completion(system, straggler) == run_to_completion(twin, straggler)
        rebuilt = schema._index.marking_layout()
        assert rebuilt is not layout
        assert rebuilt.node_ids == layout.node_ids
        assert rebuilt.edge_keys == layout.edge_keys
        assert rebuilt.checksum == layout.checksum
        assert record_bytes(system, straggler) == record_bytes(twin, straggler)

    def test_reading_a_finished_case_on_a_dropped_version(self):
        system = AdeptSystem(cache_instances=2)
        seq = system.deploy(templates.sequential_process(length=6))
        done = seq.start().instance_id
        system.step_many([done], steps=50)
        expected = record_bytes(system, done)
        for cycle in range(4):
            seq.start()  # evicts the finished case
            seq.evolve(delta(cycle))
        assert 1 not in indexed_versions(system)
        assert done not in system.live_instance_ids()
        assert record_bytes(system, done) == expected
        assert system.get_instance(done).schema_version == 1

    def test_starting_on_a_pin_retired_version_that_was_dropped(self):
        def scenario(system, twin=False):
            seq = deploy(system, twin)
            fresh = [seq.start().instance_id for _ in range(4)]
            advanced = [seq.start().instance_id for _ in range(4)]
            system.step_many(advanced, steps=3)  # past step_2 → step_3
            canary = dict(rollout="canary", fraction=1.0, conflict_threshold=0.3, canary_policy="pin")
            first = system.evolve(TYPE, delta(0), min_observations=8, **canary)
            for case_id in [c for pair in zip(fresh, advanced) for c in pair]:
                system.step_many([case_id], steps=1)
            assert first.state == STATE_ROLLED_BACK and sorted(first.adopted) == fresh
            for case_id in advanced:
                system.delete_instance(case_id)  # version 1 is now unoccupied
            system.step_many(fresh, steps=1)  # past step_1 → step_2
            second = system.evolve(
                TYPE,
                ChangeSet().serial_insert("y", pred="step_1", succ="step_2"),
                min_observations=4,
                **canary,
            )
            for case_id in fresh:
                system.step_many([case_id], steps=1)
            assert second.state == STATE_ROLLED_BACK
            return system

        system = scenario(AdeptSystem())
        twin = scenario(AdeptSystem(), twin=True)
        assert system.type(TYPE).versions == [1, 2, 3]
        assert 1 not in indexed_versions(system)
        started = system.start(TYPE).instance_id
        assert twin.start(TYPE).instance_id == started
        assert system.get_instance(started).schema_version == 1
        assert run_to_completion(system, started) == run_to_completion(twin, started)

    def test_canary_revert_and_withdraw_after_drops(self):
        def scenario(system, twin=False):
            stragglers = populate(system, twin=twin)
            for straggler in stragglers:
                system.delete_instance(straggler)
            advanced = [system.start(TYPE).instance_id for _ in range(4)]
            system.step_many(advanced, steps=3)  # past step_2 → step_3
            rollout = system.evolve(
                TYPE,
                delta(CYCLES),
                rollout="canary",
                fraction=1.0,
                conflict_threshold=0.3,
                min_observations=len(advanced),
            )
            for case_id in advanced:
                system.step_many([case_id], steps=1)
            assert rollout.state == STATE_ROLLED_BACK
            assert system.type(TYPE).latest_version == CYCLES + 1
            fresh = system.start(TYPE).instance_id
            report = system.evolve(TYPE, delta(CYCLES))
            withdrawn = system.repository.withdraw_version(TYPE, CYCLES + 2)
            assert withdrawn.version == CYCLES + 2
            return report, [fresh, *advanced]

        system = AdeptSystem(cache_instances=2)
        twin = AdeptSystem(cache_instances=2)
        report, cases = scenario(system)
        twin_report, twin_cases = scenario(twin, twin=True)
        assert cases == twin_cases
        assert report_lines(report) == report_lines(twin_report)
        assert len(indexed_versions(system)) < len(indexed_versions(twin))
        for case_id in cases:
            assert record_bytes(system, case_id) == record_bytes(twin, case_id)
        # evolution continues from the restored latest version
        again = system.evolve(TYPE, delta(CYCLES))
        assert again.to_version == CYCLES + 2
        assert report_lines(again) == report_lines(twin.evolve(TYPE, delta(CYCLES)))


class TestRecovery:
    def test_recovering_cases_on_versions_the_crashed_process_dropped(self, tmp_path):
        system = AdeptSystem.open(tmp_path / "db", cache_instances=2)
        stragglers = populate(system)
        for straggler in stragglers[::2]:
            system.step_many([straggler], steps=50)  # finished, on a droppable version
        system.evolve(TYPE, delta(CYCLES))
        dropped = set(system.type(TYPE).versions) - set(indexed_versions(system))
        assert {1, 3, 5} <= dropped
        case_ids = sorted(set(system.stored_instance_ids()) | set(system.live_instance_ids()))
        expected = {case_id: record_bytes(system, case_id) for case_id in case_ids}
        system.backend.close()  # crash: no checkpoint, the WAL alone recovers

        recovered = AdeptSystem.open(tmp_path / "db", cache_instances=2)
        assert recovered.last_recovery.snapshot_loaded is False
        assert {case_id: record_bytes(recovered, case_id) for case_id in case_ids} == expected
        for straggler in stragglers[1::2]:
            run_to_completion(recovered, straggler)
        recovered.close()


class TestEvolvePaths:
    def test_strict_evolve_on_a_type_with_dropped_versions(self):
        def scenario(system, twin=False):
            stragglers = populate(system, twin=twin)
            for straggler in stragglers:
                system.delete_instance(straggler)
            waiting = [system.start(TYPE).instance_id for _ in range(3)]
            report = system.evolve(TYPE, delta(CYCLES), migrate="strict")
            return report, waiting

        system = AdeptSystem(cache_instances=2)
        twin = AdeptSystem(cache_instances=2)
        (report, waiting), (twin_report, _) = scenario(system), scenario(twin, twin=True)
        assert report_lines(report) == report_lines(twin_report)
        assert report.migrated_count == len(waiting)
        assert indexed_versions(system) == [CYCLES + 1, CYCLES + 2]

    def test_lazy_rollout_on_a_type_with_dropped_versions(self):
        def scenario(system, twin=False):
            stragglers = populate(system, twin=twin)
            cases = [system.start(TYPE).instance_id for _ in range(4)]
            system.step_many(cases[:2], steps=3)  # past step_2 → step_3: conflict
            system.evolve(TYPE, delta(CYCLES), rollout="lazy")
            while system.rollout_of(TYPE) is not None:
                if system.sweep_rollout(TYPE, max_cases=2) == 0:
                    break
            for case_id in stragglers + cases:
                run_to_completion(system, case_id)
            return system.rollout_status(TYPE), stragglers + cases

        system = AdeptSystem(cache_instances=2)
        twin = AdeptSystem(cache_instances=2)
        (status, cases), (twin_status, _) = scenario(system), scenario(twin, twin=True)
        assert status == twin_status
        for case_id in cases:
            assert record_bytes(system, case_id) == record_bytes(twin, case_id)
