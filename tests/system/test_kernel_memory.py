"""What a published schema version may cost, by counting (no clocks, no byte sizes).

The ``evolve`` workload publishes hundreds of versions, and stragglers
keep stepping on old ones, so every version a case occupies keeps its
index, marking layout and step kernel alive — whatever those hold is
multiplied by the version count (an unoccupied one drops them:
``test_version_release.py``).  What a version needed only while it was
being released and migrated from (reachability, dominators, the block
tree, the written-before sets) is shed once it falls two behind the
latest; the from-version of the latest release keeps everything.  A
kernel that referred back to its index or schema would also turn every
dropped private execution schema into cyclic garbage only a full
collection frees.  The guards: only latest − 1 holds release-time
analyses (a release runs no verifier, so the latest computes none until
asked), a straggler on a shed version steps without rebuilding any,
a shed analysis asked again equals a fresh one, successive versions
share one facts object per activity, and dropping a stepped, ad-hoc
changed case leaves the cycle collector nothing to find.
"""

import gc

import pytest

from repro import AdeptSystem
from repro.core.migration import MigrationOutcome
from repro.core.operations import DeleteActivity, SerialInsertActivity
from repro.schema.builder import SchemaBuilder
from repro.schema.index import SchemaIndex
from repro.schema.nodes import Node
from repro.system.rollout import STATE_ROLLED_BACK

pytestmark = pytest.mark.kernel

VERSIONS = 50

#: The caches a superseded version sheds (``SchemaIndex.shed_analyses``).
RELEASE_TIME_ANALYSES = (
    "_reach_cache",
    "_dominators",
    "_post_dominators",
    "_matching_join",
    "_matching_split",
    "_block_tree",
    "_written_before",
)


def sixteen_activities():
    """The shape of the ``evolve`` workload's types: a01–a04, AND(3 | 3), a11–a16."""
    builder = SchemaBuilder("evo_v1", name="evo", version=1)
    builder.data("dossier")
    for index in range(1, 5):
        builder.activity(f"a{index:02d}", role="clerk", writes=["dossier"] if index == 1 else ())
    builder.parallel(
        [
            lambda seq: seq.activity("a05").activity("a06").activity("a07"),
            lambda seq: seq.activity("a08").activity("a09").activity("a10"),
        ],
        label="mid",
    )
    for index in range(11, 17):
        builder.activity(f"a{index:02d}", role="clerk")
    return builder.build()


def delta(cycle):
    if cycle % 2 == 0:
        return [SerialInsertActivity(activity=Node(node_id="extra"), pred="a13", succ="a14")]
    return [DeleteActivity(activity_id="extra")]


def release_time_analyses(schema):
    """The names of the release-time caches ``schema``'s index holds."""
    index = schema.index
    held = [name for name in RELEASE_TIME_ANALYSES if getattr(index, name)]
    if index._step_kernel is not None and index._entry_specs is not None:
        held.append("_entry_specs")
    return held


def holding_versions(system):
    return [
        version
        for version in system.type("evo").versions
        if release_time_analyses(system.repository.schema("evo", version))
    ]


@pytest.fixture
def evolved():
    """50 evolves, each after one case ran on the version to completion, and a
    straggler left on version 1 past the point where the first Δ inserts.

    Returns the system, the straggler's id and, per version, the
    ``(index, layout, kernel)`` it had right after a case stepped on it.
    """
    system = AdeptSystem()
    evo = system.deploy(sixteen_activities())
    straggler = evo.start().instance_id
    system.step_many([straggler], steps=15)  # a01–a15: past the point where Δ inserts
    compiled = {}
    for cycle in range(VERSIONS):
        case = evo.start()
        system.step_many([case.instance_id], steps=50)  # every activity of this version
        assert not system.get_instance(case.instance_id).status.is_active
        index = system.repository.schema("evo", cycle + 1).index
        compiled[cycle + 1] = (index, index.marking_layout(), index._step_kernel)
        system.evolve("evo", delta(cycle))
    assert system.get_instance(straggler).schema_version == 1
    return system, straggler, compiled


def test_only_the_latest_two_versions_hold_release_time_analyses(evolved):
    system, _, compiled = evolved
    latest = system.type("evo").latest_version
    assert latest == VERSIONS + 1
    assert holding_versions(system) == [latest - 1]
    # latest − 1 is not shed: it keeps the entry specs its kernel compiled from
    assert "_entry_specs" in release_time_analyses(system.repository.schema("evo", latest - 1))
    # every version keeps its index, layout and kernel: the same objects
    for version, (index, layout, kernel) in compiled.items():
        schema = system.repository.schema("evo", version)
        assert kernel is not None
        assert schema.index is index
        assert index.marking_layout() is layout
        assert index._step_kernel is kernel and kernel.layout is layout
        assert index._round_bound is not None


def test_a_straggler_on_a_shed_version_steps_without_rebuilding_an_analysis(evolved):
    system, straggler, compiled = evolved
    index, layout, kernel = compiled[1]
    assert release_time_analyses(index.schema) == []
    system.step_many([straggler], steps=50)
    instance = system.get_instance(straggler)
    assert not instance.status.is_active
    assert instance.schema_version == 1
    assert instance.execution_schema.index is index
    assert instance.marking.layout is layout
    assert index._step_kernel is kernel
    assert release_time_analyses(index.schema) == []
    assert holding_versions(system) == [VERSIONS]


def test_a_shed_analysis_asked_again_equals_a_fresh_one(evolved):
    system, _, _ = evolved
    for version in (1, VERSIONS // 2):
        schema = system.repository.schema("evo", version)
        shed, fresh = schema.index, SchemaIndex(schema)
        assert release_time_analyses(schema) == []
        assert shed.block_tree().root == fresh.block_tree().root
        assert shed.block_tree().blocks == fresh.block_tree().blocks
        assert shed.written_before() == fresh.written_before()
        for node_id in shed.node_ids:
            for include_sync in (False, True):
                assert shed.transitive_successors(node_id, include_sync) == (
                    fresh.transitive_successors(node_id, include_sync)
                )
                assert shed.transitive_predecessors(node_id, include_sync) == (
                    fresh.transitive_predecessors(node_id, include_sync)
                )


def test_a_canary_revert_after_shedding_leaves_the_next_evolve_intact(evolved):
    system, _, _ = evolved
    evo = system.type("evo")
    latest = evo.latest_version
    advanced = [evo.start().instance_id for _ in range(4)]
    system.step_many(advanced, steps=14)  # a01–a14: past the point where Δ inserts
    rollout = system.evolve(
        "evo",
        delta(VERSIONS),
        rollout="canary",
        fraction=1.0,
        conflict_threshold=0.3,
        min_observations=len(advanced),
    )
    for case_id in advanced:
        system.step_many([case_id], steps=1)
    assert rollout.state == STATE_ROLLED_BACK
    assert evo.latest_version == latest
    # latest − 1 was shed by the canary's release and stays shed
    assert holding_versions(system) == [latest]

    fresh = evo.start().instance_id
    report = system.evolve("evo", delta(VERSIONS))
    assert report.to_version == latest + 1
    assert report.count(MigrationOutcome.MIGRATED) == 1
    # the advanced cases and the straggler stay behind
    assert report.count(MigrationOutcome.STATE_CONFLICT) == len(advanced) + 1
    assert system.get_instance(fresh).schema_version == latest + 1
    assert holding_versions(system) == [latest]


def test_successive_versions_share_one_facts_object_per_activity(evolved):
    system, _, compiled = evolved
    kernels = [kernel for _, _, kernel in compiled.values()]
    assert len({id(kernel) for kernel in kernels}) == VERSIONS
    stepped = [facts for kernel in kernels for facts in kernel.facts if facts is not None]
    assert len(stepped) >= VERSIONS * 16
    activities = {facts[0] for facts in stepped}
    assert len(activities) == 17  # a01–a16 and the inserted one
    assert len({id(facts) for facts in stepped}) <= len(activities) + 2
    # strings and tuples of strings only: nothing in them can point back at a schema
    for facts in set(stepped):
        flat = [facts[0], facts[4], *facts[1], *facts[2], *facts[3]]
        assert all(item is None or type(item) is str for item in flat)


def test_dropping_a_private_execution_schema_leaves_no_cycles():
    system = AdeptSystem()
    evo = system.deploy(sixteen_activities())
    case = evo.start()
    system.step_many([case.instance_id], steps=2)
    system.change(case.instance_id).serial_insert("double_check", pred="a15", succ="a16").apply()
    system.step_many([case.instance_id], steps=50)  # kernel and facts of the private schema
    instance = system.get_instance(case.instance_id)
    assert instance.is_biased and not instance.status.is_active
    assert instance.execution_schema.index.step_kernel().facts.count(None) < 20
    del instance, case
    gc.collect()
    gc.disable()
    try:
        for instance_id in system.live_instance_ids():
            system.delete_instance(instance_id)
        assert system.live_instance_ids() == []
        assert gc.collect() == 0
    finally:
        gc.enable()
