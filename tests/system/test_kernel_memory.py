"""What a compiled kernel may cost, by counting (no clocks, no byte sizes).

Every published schema version keeps its index and kernel alive, and the
``evolve`` workload publishes hundreds, so whatever a kernel holds per
activity is multiplied by the version count — and a kernel that refers
back to its index or schema turns every dropped private execution schema
into cyclic garbage only a full collection frees.  Two guards: successive
versions share one facts object per activity, and dropping a stepped,
ad-hoc changed case leaves the cycle collector nothing to find.
"""

import gc

from repro import AdeptSystem
from repro.core.operations import DeleteActivity, SerialInsertActivity
from repro.schema.builder import SchemaBuilder
from repro.schema.nodes import Node

VERSIONS = 50


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


def test_successive_versions_share_one_facts_object_per_activity():
    system = AdeptSystem()
    evo = system.deploy(sixteen_activities())
    for cycle in range(VERSIONS):
        case = evo.start()
        system.step_many([case.instance_id], steps=50)  # every activity of this version
        assert not system.get_instance(case.instance_id).status.is_active
        system.evolve("evo", delta(cycle))
    kernels = [
        system.repository.schema("evo", version).index.step_kernel()
        for version in range(1, VERSIONS + 1)
    ]
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
