"""Evolution logs one INFO line per evolve and per rollout transition.

``repro.system.evolution`` has one module logger.  An eager evolve logs
its type, versions, policy and migrated/total; a progressive rollout logs
its start, promotion, rollback (with the reverted count) and completion.
Nothing is logged per case, per touch or per sweep batch.
"""

import logging

import pytest

from repro import AdeptSystem, ChangeSet
from repro.schema import templates
from repro.workloads.order_process import order_type_change_v2

LOGGER = "repro.system.evolution"


@pytest.fixture()
def lines(caplog):
    caplog.set_level(logging.INFO, logger=LOGGER)

    def read():
        return [
            (record.levelname, record.getMessage())
            for record in caplog.records
            if record.name == LOGGER
        ]

    return read


def test_an_eager_evolve_and_a_lazy_rollout(lines):
    system = AdeptSystem(cache_instances=2)
    sequence = system.deploy(templates.sequential_process(length=6))
    ids = [sequence.start().instance_id for _ in range(6)]
    system.step_many(ids[:3], steps=3)  # three cases past step_3: state conflicts

    sequence.evolve(ChangeSet().serial_insert("review", pred="step_2", succ="step_3"))
    assert lines() == [("INFO", "evolved sequence v1 -> v2 (compliant): 3 of 6 case(s) migrated")]

    sequence.evolve(ChangeSet().serial_insert("audit", pred="step_5", succ="step_6"), rollout="lazy")
    system.activated(ids[3])  # a touch: adopts
    swept = []
    while system.rollout_of("sequence") is not None:
        swept.append(system.sweep_rollout("sequence", max_cases=1))
    assert swept == [1, 1]  # two sweep batches; the second one completes it
    assert lines()[1:] == [
        ("INFO", "rollout of sequence started: v3, mode lazy"),
        ("INFO", "rollout of sequence completed: v3, adopted 3, conflicted 0"),
    ]


def test_a_canary_rolled_back_and_a_canary_promoted(lines):
    system = AdeptSystem()
    orders = system.deploy(templates.online_order_process())
    ids = [orders.start().instance_id for _ in range(4)]

    orders.evolve(order_type_change_v2(), rollout="canary", fraction=1.0, canary_decide="external")
    for instance_id in ids:
        system.activated(instance_id)
    assert system.evolution.roll_back("online_order") == sorted(ids)
    orders.evolve(order_type_change_v2(), rollout="canary", fraction=1.0, canary_decide="external")
    system.activated(ids[0])
    assert system.evolution.promote("online_order")

    assert lines() == [
        ("INFO", "rollout of online_order started: v2, mode canary"),
        (
            "INFO",
            "rollout of online_order rolled back: v2, policy revert, reverted 4, "
            "observed_conflict_rate 0.0",
        ),
        ("INFO", "rollout of online_order started: v2, mode canary"),
        ("INFO", "rollout of online_order promoted: v2, observed_conflict_rate 0.0"),
    ]
