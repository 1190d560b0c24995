"""Canary auto-rollback: a conflict spike rolls a lazy rollout back.

Half of a canary cohort has advanced past the change region, far above
the 30% conflict threshold.  Touching the cases trips the canary, the
rollout rolls itself back, the abandoned version is withdrawn and every
adopted case reverts to V1.  The lazy-rollout soak lives in
``tests/system/test_rollout_soak.py``.
"""

from repro.schema import templates
from repro.system import AdeptSystem
from repro.workloads.order_process import order_type_change_v2

TYPE_ID = "online_order"


def test_canary_auto_rollback_demo(tmp_path):
    system = AdeptSystem.open(tmp_path / "db", cache_instances=32)
    handle = system.deploy(templates.online_order_process())
    ids = []
    for index in range(60):
        case = handle.start()
        ids.append(case.instance_id)
        if index % 2 == 0:  # half the cohort conflicts
            system.step_many([case.instance_id], steps=3)
    system.evolve(
        TYPE_ID,
        order_type_change_v2(),
        rollout="canary",
        fraction=1.0,
        conflict_threshold=0.3,
        min_observations=10,
    )
    for case_id in ids:
        system.save(case_id)  # touch without stepping
        if system.rollout_of(TYPE_ID) is None:
            break
    system.sweep_rollout(TYPE_ID, max_cases=0)  # execute a queued decision

    try:
        status = system.rollout_status(TYPE_ID)
        assert status is not None and status["state"] == "rolled_back", status
        assert sorted(system.repository.process_type(TYPE_ID).versions) == [1]
        assert all(system.get_instance(case_id).schema_version == 1 for case_id in ids)
    finally:
        system.close()
