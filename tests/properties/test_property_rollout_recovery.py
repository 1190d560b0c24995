"""Property-based crash recovery for in-flight progressive rollouts.

A rollout's durability contract: cut the write-ahead log at *any* byte
offset mid-rollout and recovery must (a) replay a consistent prefix —
every case sits exactly on the version its surviving records say,
nobody is half-migrated, and a canary case is restored exactly when a
surviving ``rollout_rolled_back`` record lists it — (b) reach the same
state each time it recovers the same cut, and (c) for a lazy rollout,
let it resume and converge to the same final population as a run that
never crashed.  The cuts draw the mode: lazy, canary revert, canary pin.
"""

import json
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.schema import templates
from repro.storage.serialization import instance_to_dict
from repro.storage.wal import WriteAheadLog
from repro.system import AdeptSystem
from repro.workloads.order_process import order_type_change_v2

RELAXED = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
STRESS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

MODES = ("lazy", "canary-revert", "canary-pin")


def _digest(system, ids):
    return [
        json.dumps(instance_to_dict(system.get_instance(i)), sort_keys=True)
        for i in ids
    ]


def _cut_rollout(root, mode, fresh, advanced, order_seed, touched_fraction, cut_fraction):
    """Run one rollout over a checkpointed population and cut its WAL.

    Every case is touched at most once, so a canary case's pre-adoption
    state is its checkpointed state.  Returns the case ids, their
    checkpointed states and the WAL path.
    """
    system = AdeptSystem.open(root / "db")
    orders = system.deploy(templates.online_order_process())
    ids = [orders.start().instance_id for _ in range(fresh + advanced)]
    system.step_many(ids[fresh:], steps=3)  # past the V2 insertion point
    # compact: the WAL now carries *only* the rollout suffix, so the
    # hypothesis-chosen cut always lands inside the rollout
    system.checkpoint()
    before = {i: instance_to_dict(system.get_instance(i)) for i in ids}
    if mode == "lazy":
        system.evolve("online_order", order_type_change_v2(), rollout="lazy")
    else:
        system.evolve(
            "online_order",
            order_type_change_v2(),
            rollout="canary",
            fraction=1.0,
            conflict_threshold=0.2,
            min_observations=5,
            canary_policy=mode.split("-")[1],
        )
    touched = list(ids)
    random.Random(order_seed).shuffle(touched)
    for instance_id in touched[: int(len(ids) * touched_fraction)]:
        system.step_many([instance_id], steps=1)
    system.backend.close()
    wal_path = system.backend.wal.path
    payload = wal_path.read_bytes()
    wal_path.write_bytes(payload[: int(len(payload) * cut_fraction)])
    return ids, before, wal_path


def wal_cut_recovers_its_records_and_recovers_them_alike(
    mode, fresh, advanced, order_seed, touched_fraction, cut_fraction
):
    root = Path(tempfile.mkdtemp(prefix="rollout_mode_cut_"))
    try:
        ids, before, wal_path = _cut_rollout(
            root, mode, fresh, advanced, order_seed, touched_fraction, cut_fraction
        )
        cut = wal_path.read_bytes()
        records = WriteAheadLog(str(wal_path)).records()
        migrated = {r["instance_id"] for r in records if r["kind"] == "rollout_migrated"}
        conflicted = {r["instance_id"] for r in records if r["kind"] == "rollout_conflicted"}
        reverted = {
            i for r in records if r["kind"] == "rollout_rolled_back" for i in r["reverted"]
        }

        recovered = AdeptSystem.open(root / "db")
        for instance_id in ids:
            state = instance_to_dict(recovered.get_instance(instance_id))
            adopted = instance_id in migrated and instance_id not in reverted
            assert state["schema_version"] == (2 if adopted else 1)
            if instance_id in migrated:
                assert (state == before[instance_id]) == (instance_id in reverted)
        status = recovered.rollout_status("online_order")
        if status is not None:
            assert status["adopted"] == len(migrated)
            assert status["conflicted"] == len(conflicted)
        first = (_digest(recovered, ids), status, recovered.type("online_order").versions)
        recovered.backend.close()

        # re-recovery starts from the very same WAL bytes (replay itself
        # appends nothing) and reaches the very same state
        assert wal_path.read_bytes() == cut
        again = AdeptSystem.open(root / "db")
        second = (
            _digest(again, ids),
            again.rollout_status("online_order"),
            again.type("online_order").versions,
        )
        again.backend.close()
        assert second == first
    finally:
        shutil.rmtree(root, ignore_errors=True)


_CUTS = dict(
    mode=st.sampled_from(MODES),
    fresh=st.integers(min_value=2, max_value=8),
    advanced=st.integers(min_value=1, max_value=8),
    order_seed=st.integers(min_value=0, max_value=9999),
    touched_fraction=st.floats(min_value=0.0, max_value=1.0),
    # the uncut log too: the decision records sit at its very end
    cut_fraction=st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
)


class TestRolloutWalCutRecovery:
    @RELAXED
    @given(
        population=st.integers(min_value=6, max_value=16),
        advance_seed=st.integers(min_value=0, max_value=9999),
        touched_fraction=st.floats(min_value=0.0, max_value=1.0),
        cut_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_wal_cut_mid_rollout_recovers_prefix_and_converges(
        self, population, advance_seed, touched_fraction, cut_fraction
    ):
        import random

        rng = random.Random(advance_seed)
        root = Path(tempfile.mkdtemp(prefix="rollout_cut_"))
        try:
            system = AdeptSystem.open(root / "db")
            orders = system.deploy(templates.online_order_process())
            cases = [orders.start() for _ in range(population)]
            for case in cases:
                system.step_many([case.instance_id], steps=rng.randrange(0, 3))
            # compact: the WAL now carries *only* the rollout suffix, so
            # the hypothesis-chosen cut always lands inside the rollout
            system.checkpoint()

            rollout = system.evolve(
                "online_order", order_type_change_v2(), rollout="lazy"
            )
            touched = cases[: int(len(cases) * touched_fraction)]
            for case in touched:
                system.save(case.instance_id)  # touch without stepping

            # uncrashed reference: converge a pristine copy of the store
            wal_path = system.backend.wal.path
            reference_root = root / "reference"
            shutil.copytree(root / "db", reference_root)
            reference = AdeptSystem.open(reference_root)
            while reference.rollout_of("online_order") is not None:
                if reference.sweep_rollout("online_order", max_cases=5) == 0:
                    break
            ids = [case.instance_id for case in cases]
            reference_digest = _digest(reference, ids)

            # crash: cut the WAL at an arbitrary byte offset
            payload = wal_path.read_bytes()
            wal_path.write_bytes(payload[: int(len(payload) * cut_fraction)])

            recovered = AdeptSystem.open(root / "db")
            active = recovered.rollout_of("online_order")
            if active is None:
                # the cut dropped the rollout_started record itself —
                # the population must be wholly on V1, as if evolve
                # never happened
                versions = {
                    recovered.get_instance(i).schema_version for i in ids
                }
                assert versions == {1}
                return

            # (a) prefix consistency: version matches the adopted set
            for instance_id in ids:
                version = recovered.get_instance(instance_id).schema_version
                if instance_id in active.adopted:
                    assert version == 2
                else:
                    assert version == 1

            # (b) resume and converge to the uncrashed end state
            while recovered.rollout_of("online_order") is not None:
                if recovered.sweep_rollout("online_order", max_cases=5) == 0:
                    break
            assert recovered.rollout_status("online_order")["state"] == "completed"
            assert _digest(recovered, ids) == reference_digest
        finally:
            shutil.rmtree(root, ignore_errors=True)

    @RELAXED
    @given(**_CUTS)
    def test_double_crash_recovery_is_deterministic(self, **cut):
        """Recovering the same cut twice yields the state its records say, twice."""
        wal_cut_recovers_its_records_and_recovers_them_alike(**cut)

    @pytest.mark.stress
    @STRESS
    @given(**_CUTS)
    def test_double_crash_recovery_is_deterministic_stress(self, **cut):
        wal_cut_recovers_its_records_and_recovers_them_alike(**cut)
