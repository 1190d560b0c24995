"""Chaos: progressive rollouts under seeded thread interleavings.

Every schedule is a pure function of its seed (one runnable thread at a
time, the next chosen by a seeded RNG at each switch point), so any
failure replays exactly.  The rollout is launched *mid-schedule* while
toucher actors keep stepping, saving and claiming the shared cases; the
WAL-replay oracle then checks the linearizability contract — every case
migrated exactly once or rolled back cleanly.
"""

import pytest

from repro.system import AdeptSystem

from tests.chaos.harness import (
    TYPE_ID,
    RolloutDriver,
    RolloutToucher,
    build_population,
    check_exactly_once,
    converge_rollout,
    population_digest,
    rollout_journal,
)
from tests.concurrency.scheduler import VirtualScheduler


def _interleaved_rollout(path, seed, mode="lazy", advanced=0, **rollout_kwargs):
    system, ids = build_population(path, population=10, advanced=advanced, seed=seed)
    scheduler = VirtualScheduler(seed=seed)
    actors = [
        RolloutToucher(
            system, list(ids), seed=seed * 13 + index, operations=12,
            switch=scheduler.switch,
        )
        for index in range(3)
    ]
    actors.append(
        RolloutDriver(
            system, mode=mode, sweep_rounds=8, switch=scheduler.switch,
            **rollout_kwargs,
        )
    )
    scheduler.run(actors)
    return system, ids, scheduler


class TestInterleavedLazyRollout:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_lazy_rollout_survives_interleaving(self, tmp_path, seed):
        system, ids, _ = _interleaved_rollout(tmp_path / "db", seed)
        converge_rollout(system)
        status = system.rollout_status(TYPE_ID)
        assert status is not None and status["state"] == "completed"
        check_exactly_once(system, ids)

    @pytest.mark.parametrize("seed", [7, 19])
    def test_same_seed_replays_identically(self, tmp_path, seed):
        outcomes = []
        for run in range(2):
            system, ids, scheduler = _interleaved_rollout(
                tmp_path / f"db_{run}", seed
            )
            converge_rollout(system)
            outcomes.append(
                (
                    population_digest(system, ids),
                    system.rollout_status(TYPE_ID),
                    scheduler.switches,
                )
            )
        assert outcomes[0] == outcomes[1]

    @pytest.mark.stress
    @pytest.mark.parametrize("seed", range(40, 52))
    def test_lazy_rollout_interleaving_sweep(self, tmp_path, seed):
        system, ids, _ = _interleaved_rollout(tmp_path / "db", seed)
        converge_rollout(system)
        check_exactly_once(system, ids)


class TestInterleavedCanary:
    @pytest.mark.parametrize("seed", [5, 23])
    def test_conflict_spike_rolls_back_under_interleaving(self, tmp_path, seed):
        """An injected conflict spike (advanced cases) trips the canary
        while touchers keep the population busy."""
        system, ids, _ = _interleaved_rollout(
            tmp_path / "db",
            seed,
            mode="canary",
            advanced=8,  # 8 of 10 cases conflict: rate far above threshold
            fraction=1.0,
            conflict_threshold=0.3,
            min_observations=5,
        )
        converge_rollout(system)
        journal = rollout_journal(system)
        status = system.rollout_status(TYPE_ID)
        assert status is not None
        if journal["rollout_rolled_back"]:
            assert status["state"] == "rolled_back"
            assert status["observed_conflict_rate"] > 0.3
        check_exactly_once(system, ids)

    @pytest.mark.parametrize("seed", [2, 31])
    def test_healthy_canary_promotes_under_interleaving(self, tmp_path, seed):
        system, ids, _ = _interleaved_rollout(
            tmp_path / "db",
            seed,
            mode="canary",
            advanced=0,
            fraction=1.0,
            conflict_threshold=0.5,
            min_observations=5,
        )
        # drain any still-queued decision, then converge
        system.sweep_rollout(TYPE_ID, max_cases=0)
        converge_rollout(system)
        journal = rollout_journal(system)
        assert journal["rollout_promoted"], "a healthy canary must promote"
        assert not journal["rollout_rolled_back"]
        check_exactly_once(system, ids)


class TestConcurrentPoolRollout:
    def test_rollout_during_worker_pool(self, tmp_path):
        """Real threads: a lazy rollout launched while a pool serves."""
        from repro.workloads.order_process import order_type_change_v2

        system, ids = build_population(tmp_path / "db", population=24, seed=1)
        system.serve(workers=4)
        # launch the rollout while workers are claiming and completing
        system.evolve(TYPE_ID, order_type_change_v2(), rollout="lazy")
        system.drain()
        converge_rollout(system)
        status = system.rollout_status(TYPE_ID)
        assert status is not None and status["state"] == "completed"
        check_exactly_once(system, ids)
