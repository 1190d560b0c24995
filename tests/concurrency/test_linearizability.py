"""The linearizability oracle.

N actors perform randomized step / ad-hoc-change / evolve / start /
abort operations against one durable system.  The write-ahead log then
*is* a witness interleaving: it records one totally ordered sequence of
the committed operations that respects every per-case order and every type
order (every operation journals under the system's one execution
lock).  Replaying it sequentially through
``AdeptSystem.open`` must land on exactly the observed concurrent end
state — fingerprint-for-fingerprint.  Any lost update, double-applied
step or torn migration diverges the replay.

The deterministic mode runs the same workload under the
:class:`~repro.system.concurrency.VirtualScheduler` — one runnable
thread at a time, the next chosen by a seeded RNG at every switch point
— so a failure replays *exactly* from its seed (the test asserts that
two runs of one seed produce byte-identical journals).
"""

import pytest

from repro.schema import templates
from repro.system import AdeptSystem, VirtualScheduler

from tests.chaos.harness import check_worklist_parity
from tests.concurrency.harness import (
    RandomOps,
    run_threads,
    stress_seeds,
    system_fingerprint,
)

ACTORS = 4
OPS_PER_ACTOR = 25


def _build_system(path: str):
    system = AdeptSystem.open(path)
    process = system.deploy(templates.sequential_process())
    case_ids = [process.start().instance_id for _ in range(8)]
    return system, process.type_id, case_ids


def _oracle_check(system, store: str) -> None:
    """The final state must be reproducible by the journaled interleaving."""
    check_worklist_parity(system)  # every actor synchronised what it touched
    expected = system_fingerprint(system)
    system.backend.close()
    recovered = AdeptSystem.open(store)
    try:
        assert system_fingerprint(recovered) == expected
        check_worklist_parity(recovered)
    finally:
        recovered.backend.close()


class TestLinearizabilityOracle:
    @pytest.mark.parametrize("seed", stress_seeds(1000))
    @pytest.mark.stress
    def test_concurrent_random_ops_replay_from_the_wal(self, tmp_path, seed):
        store = str(tmp_path / "store")
        system, type_id, case_ids = _build_system(store)
        actors = [
            RandomOps(system, type_id, list(case_ids), seed=seed * 31 + index,
                      operations=OPS_PER_ACTOR)
            for index in range(ACTORS)
        ]
        run_threads(actors)
        assert all(actor.performed == OPS_PER_ACTOR for actor in actors)
        _oracle_check(system, store)

    def test_concurrent_random_ops_replay_smoke(self, tmp_path):
        """One cheap round of the oracle in every tier-1 run."""
        store = str(tmp_path / "store")
        system, type_id, case_ids = _build_system(store)
        actors = [
            RandomOps(system, type_id, list(case_ids), seed=77 + index, operations=12)
            for index in range(3)
        ]
        run_threads(actors)
        _oracle_check(system, store)


class TestDeterministicSchedules:
    def _run_scheduled(self, store: str, seed: int):
        system, type_id, case_ids = _build_system(store)
        scheduler = VirtualScheduler(seed=seed)
        actors = [
            RandomOps(
                system,
                type_id,
                list(case_ids),
                seed=seed * 17 + index,
                operations=15,
                switch=scheduler.switch,
            )
            for index in range(ACTORS)
        ]
        scheduler.run(actors)
        fingerprint = system_fingerprint(system)
        journal = system.backend.wal.path.read_bytes()
        _oracle_check(system, store)
        return fingerprint, journal, scheduler.switches

    @pytest.mark.parametrize("seed", stress_seeds(42))
    @pytest.mark.stress
    def test_seeded_schedule_replays_identically(self, tmp_path, seed):
        """Same seed → same interleaving → byte-identical journal and state."""
        first = self._run_scheduled(str(tmp_path / "run-a"), seed)
        second = self._run_scheduled(str(tmp_path / "run-b"), seed)
        assert first[0] == second[0]  # fingerprints
        assert first[1] == second[1]  # WAL bytes
        assert first[2] == second[2]  # switch-point count

    def test_deterministic_mode_smoke(self, tmp_path):
        fingerprint, journal, switches = self._run_scheduled(str(tmp_path / "run"), seed=7)
        assert switches == ACTORS * 15
        assert journal  # the schedule journaled real work

    def test_different_seeds_explore_different_interleavings(self, tmp_path):
        """The scheduler actually varies the schedule (not a fixed order)."""
        journals = {
            self._run_scheduled(str(tmp_path / f"run-{seed}"), seed)[1]
            for seed in (1, 2, 3)
        }
        assert len(journals) > 1
