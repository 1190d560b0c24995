"""Lock-order stress: the worklist-manager lock is a leaf *below* the execution lock.

Every operation synchronises its cases' work items while it still holds
the system's execution lock, so the manager lock is taken execution lock
→ manager on every hot path.  A single manager → execution-lock
acquisition anywhere (a refresh reading markings under the manager
lock, say) would deadlock against that.  These schedules put every path that meets the manager on
*one* process type at once — batch steps, claim/complete through the
worklist, ad-hoc changes, delete + start, pure worklist reads, an eager
evolve and a canary rollout with a forced revert, a serving worker pool
and LRU eviction underneath — and require that they finish inside the
timeout and end with the worklist exactly equal to a from-scratch
derivation.
"""

import random
import sys

import pytest

from repro.core.operations import SerialInsertActivity
from repro.errors import ReproError
from repro.schema import templates
from repro.schema.nodes import Node
from repro.system import AdeptSystem, VirtualScheduler

from tests.chaos.harness import check_worklist_parity
from tests.concurrency.harness import run_threads, stress_seeds

TYPE_ID = "sequence"
OPERATIONS = 20
#: the Evolver inserts before ``step_1..3``; ``step_4`` separates it from
#: the Changer's ad-hoc inserts behind it
HEAD = frozenset({"step_1", "step_2", "step_3", "step_4"})


class _Actor:
    """A seeded loop of one kind of operation against the shared cases."""

    def __init__(self, system, cases, seed, switch=None, operations=OPERATIONS):
        self.system = system
        self.cases = cases  # shared and mutated: list ops are atomic under the GIL
        self.rng = random.Random(seed)
        self.switch = switch
        self.operations = operations

    def _case(self):
        return self.rng.choice(list(self.cases))

    def __call__(self):
        for _ in range(self.operations):
            if self.switch is not None:
                self.switch()
            try:
                self.one()
            except ReproError:
                pass  # benign loser of a race; the oracle judges the end state


class Stepper(_Actor):
    def one(self):
        batch = {self._case() for _ in range(self.rng.randrange(1, 5))}
        self.system.step_many(sorted(batch), steps=1)


class Clerk(_Actor):
    def one(self):
        items = self.system.worklist("clerk")
        if items:
            item = self.rng.choice(items)
            self.system.claim(item.item_id, "clerk")
            self.system.complete_item(item.item_id)


class Changer(_Actor):
    """Ad-hoc inserts into the tail of a case (the Evolver keeps to the
    head, so a bias never conflicts structurally with a type change)."""

    def one(self):
        case = self._case()
        schema = self.system.get_instance(case).execution_schema
        tail = sorted(
            a for a in schema.activity_ids() if a not in HEAD and not a.startswith("evo_")
        )
        succ = self.rng.choice(tail + ["end"])
        (pred,) = schema.predecessors(succ)
        self.system.change(case).serial_insert(
            f"adhoc_{self.rng.randrange(10**9)}", pred=pred, succ=succ
        ).try_apply()


class Replacer(_Actor):
    def one(self):
        case = self._case()
        self.system.delete_instance(case)
        self.cases.remove(case)
        self.cases.append(self.system.start(TYPE_ID).instance_id)


class Reader(_Actor):
    def one(self):
        self.system.worklist("clerk")
        self.system.worklists.items_for_instance(self._case())
        len(self.system.worklists)


class Evolver(_Actor):
    """Alternates an eager evolve with a canary rollout that is reverted."""

    def _delta(self):
        schema = self.system.repository.process_type(TYPE_ID).latest_schema
        succ = self.rng.choice(sorted(HEAD - {"step_4"}))
        (pred,) = schema.predecessors(succ)
        node = Node(node_id=f"evo_{self.rng.randrange(10**9)}")
        return [SerialInsertActivity(activity=node, pred=pred, succ=succ)]

    def one(self):
        if self.system.rollout_of(TYPE_ID) is not None:
            self.system.evolution.roll_back(TYPE_ID)
        elif self.rng.random() < 0.5:
            self.system.evolve(TYPE_ID, self._delta())
        else:
            self.system.evolve(
                TYPE_ID,
                self._delta(),
                rollout="canary",
                fraction=1.0,
                canary_decide="external",
            )


def _run(path, seed, scheduled):
    system = AdeptSystem.open(path, cache_instances=6)
    process = system.deploy(templates.sequential_process(length=6))
    cases = [process.start().instance_id for _ in range(12)]
    scheduler = VirtualScheduler(seed=seed) if scheduled else None
    switch = scheduler.switch if scheduled else None
    kinds = (Stepper, Stepper, Clerk, Changer, Replacer, Reader, Evolver)
    actors = [
        kind(system, cases, seed=seed * 101 + index, switch=switch)
        for index, kind in enumerate(kinds)
    ]
    # the pool's workers are real threads in both modes: they contend with
    # whichever actor is running for the execution lock and the manager lock
    system.serve(workers=3)
    if scheduled:
        scheduler.run(actors, timeout=60.0)
    else:
        # ten threads on fewer cores, switching often: a thread is far more
        # likely to be preempted between taking the execution lock and the
        # manager lock
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(actors, timeout=60.0)  # asserts nobody is stuck
        finally:
            sys.setswitchinterval(interval)
    if system.rollout_of(TYPE_ID) is not None:
        system.evolution.roll_back(TYPE_ID)
    # (a pool "error" here is a benign loss: a delete or a canary revert
    # took the work from under a claim between its start and completion)
    system.drain(timeout=60.0)
    check_worklist_parity(system)
    # the pool ran everything that was left to completion
    assert system.worklists.offered_items() == []
    system.close(checkpoint=False)
    recovered = AdeptSystem.open(path, cache_instances=6)
    check_worklist_parity(recovered)
    recovered.close(checkpoint=False)


class TestLockOrder:
    def test_every_worklist_path_at_once_smoke(self, tmp_path):
        """One real-thread round in every tier-1 run."""
        _run(tmp_path / "db", seed=5, scheduled=False)

    @pytest.mark.stress
    @pytest.mark.parametrize("seed", stress_seeds(300) + stress_seeds(400) + stress_seeds(500))
    def test_real_threads_never_deadlock(self, tmp_path, seed):
        _run(tmp_path / "db", seed, scheduled=False)

    @pytest.mark.stress
    @pytest.mark.parametrize("seed", stress_seeds(600) + stress_seeds(700))
    def test_seeded_schedules_against_a_serving_pool(self, tmp_path, seed):
        _run(tmp_path / "db", seed, scheduled=True)
