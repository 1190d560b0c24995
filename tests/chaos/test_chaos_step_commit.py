"""Chaos: a crash at every record boundary of a stepping workload.

A completed activity has one commit point — the ``step`` / ``complete``
record written after its outputs, marking advance and propagation.  So
whichever record a crash makes the last one, recovery must land on a
population that batch calls can still move: every recovered running case
offers at least one activated activity, reaches completion through
``step_many`` alone, and its work items equal a from-scratch derivation.
(With a separate record for the implicit start, the boundary right after
it recovered a case whose only live activity was RUNNING: nothing
activated, ``step_many`` and ``run`` returned 0 steps forever.)

An *explicit* start is different: ``start_activity`` and a worklist
``claim`` are acknowledged on their own, so a crash before the matching
completion legitimately recovers the activity as RUNNING, and
``complete(case, activity)`` finishes it.
"""

import shutil

from repro.runtime.states import InstanceStatus
from repro.runtime.worklist import WorkItemState
from repro.schema import templates
from repro.system import AdeptSystem
from repro.workloads.schema_generator import RandomSchemaGenerator, SchemaGeneratorConfig

from tests.chaos.harness import check_worklist_parity


def _and_xor_schema():
    config = SchemaGeneratorConfig(
        target_activities=10,
        parallel_probability=0.3,
        conditional_probability=0.3,
        loop_probability=0.0,
    )
    schema = RandomSchemaGenerator(config, seed=2).generate("generated")
    kinds = {node.node_type.value for node in schema.nodes.values()}
    assert {"and_split", "xor_split"} <= kinds, kinds
    return schema


def _record_boundaries(payload: bytes):
    """Byte offsets at which a complete record ends (and 0: an empty log)."""
    return [0] + [offset + 1 for offset, byte in enumerate(payload) if byte == 0x0A]


def _recovered_from_cut(source, target, payload: bytes) -> AdeptSystem:
    shutil.copytree(source, target)
    (target / "wal.jsonl").write_bytes(payload)
    return AdeptSystem.open(target)


def _case_ids(system):
    return sorted(set(system.live_instance_ids()) | set(system.stored_instance_ids()))


def test_every_record_boundary_recovers_cases_that_batch_calls_can_move(tmp_path):
    store = tmp_path / "db"
    system = AdeptSystem.open(store)
    orders = system.deploy(templates.online_order_process())
    generated = system.deploy(_and_xor_schema())
    order_ids = [orders.start().instance_id for _ in range(3)]
    generated_ids = [generated.start().instance_id for _ in range(3)]
    system.step_many(order_ids + generated_ids, steps=2)
    system.complete(order_ids[0], system.activated(order_ids[0])[0], user="alice")
    system.complete(generated_ids[0], system.activated(generated_ids[0])[0])
    system.run(order_ids[1])
    system.run(generated_ids[1])
    system.step_many(generated_ids + order_ids, steps=3)
    system.backend.close()

    payload = (store / "wal.jsonl").read_bytes()
    boundaries = _record_boundaries(payload)
    assert len(boundaries) > 40, "the schedule should leave a log worth cutting"
    for number, offset in enumerate(boundaries):
        recovered = _recovered_from_cut(store, tmp_path / f"cut{number}", payload[:offset])
        where = f"cut after record {number} of {len(boundaries) - 1}"
        cases = _case_ids(recovered)
        for case_id in cases:
            instance = recovered.get_instance(case_id)
            if instance.status.is_active:
                assert instance.activated_activities(), (
                    f"{where}: {case_id} is running {instance.marking.running_nodes()} "
                    f"with nothing activated — no batch call can move it"
                )
        check_worklist_parity(recovered)
        recovered.step_many(cases, steps=100)
        for case_id in cases:
            status = recovered.get_instance(case_id).status
            assert status is InstanceStatus.COMPLETED, f"{where}: {case_id} is {status.value}"
        check_worklist_parity(recovered)
        recovered.backend.close()


def test_a_crash_after_an_explicit_start_recovers_the_activity_running(tmp_path):
    store = tmp_path / "db"
    system = AdeptSystem.open(store)
    orders = system.deploy(templates.online_order_process())
    started, claimed = (orders.start().instance_id for _ in range(2))
    activity = system.activated(started)[0]
    system.start_activity(started, activity, user="alice")
    item = system.claim(system.worklists.offered_items_for_instance(claimed)[0].item_id, "bob")
    crash_at = (store / "wal.jsonl").stat().st_size

    # the live system: both activities are in progress, the claim is still open
    assert item.state is WorkItemState.CLAIMED and item in system.worklists.open_items()
    check_worklist_parity(system)
    system.complete(started, activity, user="alice")
    system.complete_item(item.item_id)
    tail = [
        (record["action"], record["instance_id"], record["user"])
        for record in system.backend.wal_records()[-4:]
    ]
    assert tail == [
        ("start", started, "alice"),
        ("start", claimed, "bob"),
        ("complete", started, "alice"),
        ("complete", claimed, "bob"),
    ]
    system.backend.close()

    # the crash between the explicit starts and their completions
    payload = (store / "wal.jsonl").read_bytes()[:crash_at]
    recovered = _recovered_from_cut(store, tmp_path / "crashed", payload)
    check_worklist_parity(recovered)
    for case_id, running, user in ((started, activity, "alice"), (claimed, item.activity_id, "bob")):
        instance = recovered.get_instance(case_id)
        assert instance.marking.running_nodes() == [running]
        assert not instance.activated_activities()
        recovered.complete(case_id, running, user=user)
        assert running in instance.completed_activities()
        assert {entry.user for entry in instance.history.entries_for(running)} == {user}
    check_worklist_parity(recovered)
    recovered.step_many([started, claimed], steps=100)
    assert all(
        recovered.get_instance(case_id).status is InstanceStatus.COMPLETED
        for case_id in (started, claimed)
    )
    recovered.backend.close()
