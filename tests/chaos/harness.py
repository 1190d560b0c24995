"""Shared helpers for the evolution-under-load chaos suite.

The chaos tests put a *progressive rollout* under adversarial
conditions — seeded thread interleavings, WAL cuts at arbitrary byte
offsets, injected conflict spikes — and judge the outcome with a
WAL-replay oracle: a fresh :class:`AdeptSystem` recovered from the
journal must agree with the live system, every case must have been
migrated exactly once (or rolled back cleanly), and nobody may sit
half-migrated between versions.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.schema import templates
from repro.storage.serialization import instance_to_dict
from repro.system import AdeptSystem
from repro.workloads.order_process import order_type_change_v2

TYPE_ID = "online_order"


def build_population(
    path,
    population: int,
    advanced: int = 0,
    seed: int = 0,
    **system_kwargs,
) -> Tuple[AdeptSystem, List[str]]:
    """A durable order-process population; ``advanced`` cases are stepped
    past the V2 insertion point, making them conflict on adoption."""
    system = AdeptSystem.open(path, **system_kwargs)
    orders = system.deploy(templates.online_order_process())
    rng = random.Random(seed)
    ids = []
    for index in range(population):
        case = orders.start()
        ids.append(case.instance_id)
        if index < advanced:
            system.step_many([case.instance_id], steps=3)
        elif rng.random() < 0.3:
            system.step_many([case.instance_id], steps=1)
    return system, ids


def converge_rollout(system: AdeptSystem, type_id: str = TYPE_ID, batch: int = 16) -> None:
    """Sweep an in-flight rollout until it completes (or stalls)."""
    while system.rollout_of(type_id) is not None:
        if system.sweep_rollout(type_id, max_cases=batch) == 0:
            break


def population_digest(system: AdeptSystem, ids: List[str]) -> List[str]:
    return [
        json.dumps(instance_to_dict(system.get_instance(i)), sort_keys=True)
        for i in ids
    ]


def rollout_journal(system: AdeptSystem) -> Dict[str, list]:
    """The rollout-relevant WAL records, grouped by kind."""
    grouped: Dict[str, list] = {
        "rollout_started": [],
        "rollout_migrated": [],
        "rollout_promoted": [],
        "rollout_rolled_back": [],
        "rollout_completed": [],
    }
    for record in system.backend.wal_records():
        kind = record.get("kind")
        if kind in grouped:
            grouped[kind].append(record)
    return grouped


def check_exactly_once(system: AdeptSystem, ids: List[str]) -> None:
    """The linearizability oracle, judged against WAL replay.

    * every case has at most one ``rollout_migrated`` record — adoption
      is exactly-once, never lost, never doubled;
    * after a *completed* rollout the cases on the new version are
      exactly the journaled adoptions;
    * after a *reverted rollback* no case (and no version chain) shows
      any trace of the abandoned version;
    * a fresh system recovered from the WAL agrees with the live one,
      case for case.
    """
    journal = rollout_journal(system)
    assert journal["rollout_started"], "no rollout was journaled"
    started = journal["rollout_started"][-1]
    to_version = started["to_version"]
    from_version = to_version - 1

    adoptions: Dict[str, int] = {}
    for record in journal["rollout_migrated"]:
        if record["to_version"] == to_version:
            adoptions[record["instance_id"]] = (
                adoptions.get(record["instance_id"], 0) + 1
            )
    doubled = {iid: count for iid, count in adoptions.items() if count > 1}
    assert not doubled, f"cases migrated more than once: {doubled}"

    rolled_back = [
        r for r in journal["rollout_rolled_back"] if r["to_version"] == to_version
    ]
    if rolled_back and rolled_back[-1].get("policy", "revert") == "revert":
        for instance_id in ids:
            assert system.get_instance(instance_id).schema_version == from_version, (
                f"{instance_id} still on the rolled-back version"
            )
        assert to_version not in system.repository.process_type(TYPE_ID).versions
    elif journal["rollout_completed"]:
        for instance_id in ids:
            version = system.get_instance(instance_id).schema_version
            if instance_id in adoptions:
                assert version == to_version, f"{instance_id} lost its migration"
            else:
                assert version == from_version, f"{instance_id} migrated unjournaled"

    # the replay oracle: a recovered twin agrees case for case
    twin = AdeptSystem.open(system.backend.directory)
    assert population_digest(twin, ids) == population_digest(system, ids), (
        "WAL replay disagrees with the live system"
    )
    # and both offer exactly the work their cases activate
    check_worklist_parity(system)
    check_worklist_parity(twin)


def check_worklist_parity(system: AdeptSystem) -> None:
    """The worklist oracle: incremental ≡ from scratch.

    From scratch, an active case offers exactly its activated
    activities — read off the live object, or off the stored record of
    an evicted case (materialised on the side, never hydrated: looking
    must not repair anything).  At any quiescent point the manager's
    OFFERED pairs equal that set, a CLAIMED pair is a running activity,
    and nothing else is resident.
    """
    from repro.runtime.worklist import WorkItemState

    with system._lock.holding():
        cases = dict(system._instances)
    for instance_id, record in system.store.scan_records():
        if instance_id not in cases:  # the live copy governs
            cases[instance_id] = system.store.instantiate(record)
    activated, running = set(), set()
    for instance_id, instance in cases.items():
        if instance.status.is_active:
            activated.update((instance_id, a) for a in instance.activated_activities())
            running.update((instance_id, n) for n in instance.marking.running_nodes())

    worklists = system.worklists
    resident = worklists.open_items()
    by_state = {state: set() for state in WorkItemState}
    for item in resident:
        by_state[item.state].add((item.instance_id, item.activity_id))
    offered, claimed = by_state[WorkItemState.OFFERED], by_state[WorkItemState.CLAIMED]
    assert not by_state[WorkItemState.COMPLETED] and not by_state[WorkItemState.WITHDRAWN], (
        "closed items are still resident"
    )
    assert offered == activated, (
        f"stale offers {sorted(offered - activated)}, "
        f"missing offers {sorted(activated - offered)}"
    )
    assert claimed <= running, f"claimed but not running: {sorted(claimed - running)}"
    assert len(resident) == len(offered) + len(claimed) == len(worklists), (
        "two open items for one (case, activity)"
    )
    for instance_id in {pair[0] for pair in offered | claimed}:
        assert {
            (item.instance_id, item.activity_id)
            for item in worklists.items_for_instance(instance_id)
        } == {pair for pair in offered | claimed if pair[0] == instance_id}


class RolloutToucher:
    """One chaos actor: seeded touches (step / save / claim) on shared cases."""

    def __init__(
        self,
        system: AdeptSystem,
        case_ids: List[str],
        seed: int,
        operations: int = 20,
        switch=None,
    ) -> None:
        self.system = system
        self.case_ids = case_ids
        self.rng = random.Random(seed)
        self.operations = operations
        self.switch = switch

    def _one_op(self) -> None:
        case_id = self.rng.choice(self.case_ids)
        roll = self.rng.random()
        if roll < 0.6:
            self.system.step_many([case_id], steps=1)
        elif roll < 0.85:
            self.system.save(case_id)
        else:
            items = self.system.worklists.items_for_instance(case_id)
            open_items = [i for i in items if i.state.value == "offered"]
            if open_items:
                item = self.rng.choice(open_items)
                # claim exactly like a pool worker (no role enforcement)
                self.system.worklists.claim(item.item_id, "chaos", enforce_roles=False)
                self.system.complete_item(item.item_id)

    def __call__(self) -> None:
        for _ in range(self.operations):
            if self.switch is not None:
                self.switch()
            try:
                self._one_op()
            except ReproError:
                pass  # benign contention losses; the oracle judges state


class RolloutDriver:
    """The actor that launches the rollout mid-schedule and sweeps it."""

    def __init__(
        self,
        system: AdeptSystem,
        mode: str = "lazy",
        sweep_rounds: int = 10,
        switch=None,
        **rollout_kwargs,
    ) -> None:
        self.system = system
        self.mode = mode
        self.sweep_rounds = sweep_rounds
        self.switch = switch
        self.rollout_kwargs = rollout_kwargs

    def __call__(self) -> None:
        if self.switch is not None:
            self.switch()
        self.system.evolve(
            TYPE_ID, order_type_change_v2(), rollout=self.mode, **self.rollout_kwargs
        )
        for _ in range(self.sweep_rounds):
            if self.switch is not None:
                self.switch()
            if self.system.rollout_of(TYPE_ID) is None:
                return
            self.system.sweep_rollout(TYPE_ID, max_cases=4)
