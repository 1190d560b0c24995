"""Lazy rollout over a durable population under eight stepping threads.

Publishes a new version with ``rollout="lazy"`` while worker threads keep
stepping cases (each adopts on touch) and a ``RolloutSweeper`` drains
the residue, then checks the three outcomes that matter:

* **convergence** — the sweeper completes the rollout on its own; every
  compliant case lands on the new version, conflicting cases stay;
* **exactly once** — the journal holds at most one ``rollout_migrated``
  record per case, one for every compliant case;
* **replay agreement** — a twin recovered from the journal equals the
  live system case for case.

The tier-1 variant runs the identical scenario on a population larger
than the live cache; the 100k-case soak is ``stress``-marked.
"""

import json
import threading
import time

import pytest

from repro.schema import templates
from repro.storage.serialization import instance_to_dict
from repro.system import AdeptSystem, RolloutSweeper
from repro.workloads.order_process import order_type_change_v2

TYPE_ID = "online_order"
WORKERS = 8
#: cases each stepping thread touches per phase
SAMPLE_PER_WORKER = 25
#: share of the population advanced past the insertion point (conflicts)
CONFLICT_SHARE = 0.01


def _seed_store(path, population, cache):
    """A durable population of order cases, cloned from executed templates.

    Progress levels 0–2 are compliant with the V2 insertion
    (``send_questions`` between ``compose_order`` and ``pack_goods``);
    level 3 has started the successor and conflicts.  Returns the clone
    ids grouped by compliance and each compliant clone's level.
    """
    system = AdeptSystem.open(path, cache_instances=cache)
    handle = system.deploy(templates.online_order_process())
    records = []
    for progress in range(4):
        case = handle.start()
        if progress:
            system.step_many([case.instance_id], steps=progress)
        system.save(case.instance_id)
        records.append(system.store.record(case.instance_id))

    conflicts = max(1, int(population * CONFLICT_SHARE))
    compliant_ids, conflicting_ids, level_of = [], [], {}
    for index in range(population - len(records)):
        case_id = f"lazy-{index:06d}"
        if index < conflicts:
            template, bucket = records[3], conflicting_ids
        else:
            template, bucket = records[index % 3], compliant_ids
            level_of[case_id] = index % 3
        record = json.loads(json.dumps(template))
        record["instance_id"] = case_id
        system.store.put_record(record)
        bucket.append(case_id)
    system.checkpoint()  # durable baseline; the WAL now carries only what follows
    system.close()
    return compliant_ids, conflicting_ids, level_of


def _step_concurrently(system, case_ids):
    """``WORKERS`` threads step disjoint shards of ``case_ids`` once each."""
    errors = []

    def run(shard):
        try:
            for case_id in shard:
                system.step_many([case_id], steps=1)
        except Exception as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(case_ids[index::WORKERS],))
        for index in range(WORKERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors


def _digest(system, ids):
    return [json.dumps(instance_to_dict(system.get_instance(i)), sort_keys=True) for i in ids]


def _run_soak(path, population, cache):
    compliant, conflicting, level_of = _seed_store(path / "db", population, cache)
    system = AdeptSystem.open(path / "db", cache_instances=cache)

    sample = WORKERS * SAMPLE_PER_WORKER
    steady_cases = compliant[:sample]
    rollout_cases = compliant[sample : 2 * sample]
    _step_concurrently(system, steady_cases)
    # a level-2 case has confirm_order and compose_order activated; its
    # steady-phase step completes confirm_order, which V2's
    # send_questions -> confirm_order sync edge must precede — these
    # cases left the compliant set before the rollout began
    stepped_out = {c for c in steady_cases if level_of[c] == 2}
    conflicting = conflicting + sorted(stepped_out)
    compliant = [c for c in compliant if c not in stepped_out]

    system.evolve(TYPE_ID, order_type_change_v2(), rollout="lazy")
    with RolloutSweeper(system, TYPE_ID, batch=2_048, interval=0.0):
        _step_concurrently(system, rollout_cases)
        for _ in range(30_000):  # a hung sweeper fails below, not forever
            if system.rollout_of(TYPE_ID) is None:
                break
            time.sleep(0.02)
    status = system.rollout_status(TYPE_ID)
    assert status is not None and status["state"] == "completed", status

    # exactly once, from the journal the rollout actually wrote
    adoptions = {}
    for record in system.backend.wal_records():
        if record.get("kind") == "rollout_migrated":
            adoptions[record["instance_id"]] = adoptions.get(record["instance_id"], 0) + 1
    assert not {iid: n for iid, n in adoptions.items() if n > 1}
    # compliant clones + the 3 compliant templates (progress 0–2)
    assert len(adoptions) == len(compliant) + 3
    for case_id in conflicting:
        assert case_id not in adoptions, "a conflicting case was migrated"
        assert system.get_instance(case_id).schema_version == 1

    # the journal is the oracle: a recovered twin agrees, case for case
    sample_ids = compliant[: 2 * sample : 7] + conflicting[:8]
    twin = AdeptSystem.open(path / "db", cache_instances=cache)
    try:
        assert _digest(twin, sample_ids) == _digest(system, sample_ids)
        assert twin.rollout_status(TYPE_ID)["state"] == "completed"
    finally:
        twin.close(checkpoint=False)
        system.close()


def test_lazy_rollout_under_load(tmp_path):
    """Tier-1 variant: 600 durable cases over a 64-case live cache."""
    _run_soak(tmp_path, population=600, cache=64)


@pytest.mark.stress
def test_lazy_rollout_soak_100k(tmp_path):
    """The headline soak: 100k durable cases over a 2 000-case live cache."""
    _run_soak(tmp_path, population=100_000, cache=2_000)
