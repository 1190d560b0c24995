"""Facade-level tests for eager evolution over store-resident populations.

The reference is ``tests/baselines/reference_migration.py``: every
candidate hydrated and migrated on its own, no plan, no fingerprint.
"""

import json
import shutil

import pytest

from repro.core.migration import MigrationOutcome
from repro.schema import templates
from repro.system import AdeptSystem

from tests.baselines.reference_migration import reference_evolve, report_payload


def _seed(system, population=40, biased_every=4, advanced_every=5):
    """A mixed population: distinct progress levels, identical-bias clones."""
    handle = system.deploy(templates.sequential_process(length=6, schema_id="bulk_sys"))
    ids = []
    for index in range(population):
        case = handle.start()
        ids.append(case.instance_id)
        system.step_many([case.instance_id], steps=index % advanced_every)
        if index % biased_every == 0:
            # every biased case carries the *same* ad-hoc change — they
            # form one biased fingerprint class per progress level
            system.change(case.instance_id, comment="dev").serial_insert(
                "extra", pred="step_5", succ="step_6"
            ).apply()
    return handle, ids


def _change(handle):
    from repro.core.evolution import TypeChange
    from repro.core.operations import SerialInsertActivity
    from repro.schema.nodes import Node, NodeType

    return TypeChange.of(
        1,
        [
            SerialInsertActivity(
                activity=Node(node_id="review", node_type=NodeType.ACTIVITY, name="review"),
                pred="step_2",
                succ="step_3",
            )
        ],
    )


@pytest.mark.parametrize("cache", [3, None])
def test_streaming_equals_hydrated_with_identical_bias_clones(cache):
    """Bias-class record sharing must match the per-instance reference exactly."""
    outcomes = []
    for evolve in (AdeptSystem.evolve, reference_evolve):
        system = AdeptSystem(cache_instances=cache)
        handle, ids = _seed(system)
        report = evolve(system, handle.type_id, _change(handle))
        states = {iid: system.get_instance(iid).state_fingerprint() for iid in ids}
        outcomes.append((report_payload(report), states))
    assert outcomes[0][0] == outcomes[1][0]
    assert outcomes[0][1] == outcomes[1][1]


def _seed_classes(system, population=30, levels=5):
    """Unbiased cases, ``population // levels`` per progress level (one class each)."""
    handle = system.deploy(templates.sequential_process(length=6, schema_id="bulk_sys"))
    ids = [handle.start().instance_id for _ in range(population)]
    for index, instance_id in enumerate(ids):
        system.step_many([instance_id], steps=index % levels)
    return handle, ids


def _stored_forms(system, ids):
    """Each case's stored record as bytes, less the write-back's ``"fix"`` hint.

    ``save_all`` writes the live cases back first, so every case has a
    current record.  ``"fix"`` is a settle hint of cache write-backs,
    never part of a case's state.
    """
    system.save_all()
    forms = {}
    for instance_id in ids:
        record = system.store.record(instance_id)
        record["marking"] = {k: v for k, v in record["marking"].items() if k != "fix"}
        forms[instance_id] = json.dumps(record, sort_keys=True)
    return forms


def _open_work(system, ids):
    return {
        instance_id: sorted(
            (item.activity_id, item.role, item.state.value)
            for item in system.worklists.items_for_instance(instance_id)
        )
        for instance_id in ids
    }


@pytest.mark.parametrize("rollout", ["eager", "lazy"])
def test_class_effect_equals_hydrated_twin(rollout):
    """Store-resident class members rewritten from the class's one stored effect.

    Every compliant class has at least three members that are not live
    when they migrate (a cache of 3, six members per class): each must
    end with the record and the open work items of its twin in a system
    that keeps every case live and migrates each one on its own.
    """
    results = []
    for cache in (3, None):
        system = AdeptSystem(cache_instances=cache)
        handle, ids = _seed_classes(system)
        rewritten = []
        migrate_record = system.store.migrate_record

        def counted(instance_id, *args, **kwargs):
            rewritten.append(instance_id)
            return migrate_record(instance_id, *args, **kwargs)

        system.store.migrate_record = counted
        if rollout == "eager":
            report = system.evolve(handle.type_id, _change(handle))
        else:
            system.evolve(handle.type_id, _change(handle), rollout="lazy")
            while system.rollout_of(handle.type_id) is not None:
                system.sweep_rollout(handle.type_id, max_cases=4)
            report = None
        results.append(
            (
                report_payload(report) if report is not None else None,
                _stored_forms(system, ids),
                _open_work(system, ids),
            )
        )
        if cache is not None:
            # progress 0, 1 and 2 are compliant: each class has three or
            # more members rewritten as records, never hydrated
            per_level = [ids.index(iid) % 5 for iid in rewritten]
            assert all(per_level.count(level) >= 3 for level in (0, 1, 2))
        else:
            assert rewritten == []
    streaming, hydrated = results
    assert streaming[0] == hydrated[0]
    assert streaming[1] == hydrated[1]
    assert streaming[2] == hydrated[2]
    # the compliant cases before the insertion point are offered the new
    # activity, with the role the change gave it (none)
    assert any(("review", None, "offered") in work for work in streaming[2].values())


def test_biased_members_rewritten_records_materialise_correctly():
    """A record-rewritten biased member hydrates to a working migrated case."""
    system = AdeptSystem(cache_instances=3)
    handle, ids = _seed(system, population=24)
    report = system.evolve(handle.type_id, _change(handle))
    migrated_biased = [
        result.instance_id
        for result in report.results
        if result.outcome is MigrationOutcome.MIGRATED_WITH_BIAS
    ]
    assert len(migrated_biased) >= 2  # the class shares beyond its representative
    for instance_id in migrated_biased:
        instance = system.get_instance(instance_id)
        assert instance.schema_version == report.to_version
        assert instance.is_biased
        # the combined execution schema holds both the bias and the change
        assert instance.execution_schema.has_node("extra")
        assert instance.execution_schema.has_node("review")
        # and the case still runs to completion on it
        system.run(instance_id)
        assert system.get_instance(instance_id).status.value == "completed"


def test_counters_only_report_through_facade():
    system = AdeptSystem()
    handle, ids = _seed(system)
    report = system.evolve(handle.type_id, _change(handle), collect_results=False)
    assert report.results == []
    assert report.total == len(ids)
    assert report.migrated_count > 0
    on_new_version = {h.instance_id for h in handle.instances(version=report.to_version)}
    assert len(on_new_version) == report.migrated_count


def test_streaming_evolution_survives_wal_replay(tmp_path):
    """Recovery replays the journaled bulk evolution onto the same end state."""
    store = str(tmp_path / "store")
    system = AdeptSystem.open(store, cache_instances=4)
    handle, ids = _seed(system)
    report = system.evolve(handle.type_id, _change(handle))
    expected = {iid: system.get_instance(iid).state_fingerprint() for iid in ids}
    system.backend.close()  # crash without checkpoint: WAL replay must rebuild

    recovered = AdeptSystem.open(store, cache_instances=4)
    try:
        mismatches = [
            iid
            for iid in ids
            if recovered.get_instance(iid).state_fingerprint() != expected[iid]
        ]
        assert not mismatches
        on_new = {
            h.instance_id
            for h in recovered.type(handle.type_id).instances(version=report.to_version)
        }
        migrated = {r.instance_id for r in report.results if r.migrated}
        assert on_new == migrated
    finally:
        recovered.close()


def test_parallel_residue_inherits_journal_suspension(tmp_path):
    """Rollback compensations inside an evolve must not journal.

    The evolution's single typed WAL record covers the whole mutation;
    a compensation escaping the evolve's journal suspension would append
    stray step records that double-apply on recovery.
    """
    from repro.workloads.order_process import order_type_change_v2

    store = str(tmp_path / "store")
    system = AdeptSystem.open(store, cache_instances=4)
    orders = system.deploy(templates.online_order_process())
    ids = [orders.start().instance_id for _ in range(8)]
    # advanced past the change region: state conflicts, rollback kicks in
    system.step_many(ids, steps=4)
    steps_before = sum(1 for r in system.backend.wal_records() if r["kind"] == "step")
    report = system.evolve(orders.type_id, order_type_change_v2(), migrate="rollback")
    assert report.count(MigrationOutcome.MIGRATED_WITH_ROLLBACK) > 0
    steps_after = sum(1 for r in system.backend.wal_records() if r["kind"] == "step")
    assert steps_after == steps_before, (
        "rollback compensations journaled separate step records inside the evolution"
    )
    expected = {iid: system.get_instance(iid).state_fingerprint() for iid in ids}
    system.backend.close()

    # the journaled policy compensates on replay: no flag on the reopen
    recovered = AdeptSystem.open(store, cache_instances=4)
    try:
        mismatches = [
            iid
            for iid in ids
            if recovered.get_instance(iid).state_fingerprint() != expected[iid]
        ]
        assert not mismatches
    finally:
        recovered.close()


# --------------------------------------------------------------------------- #
# a durable population larger than the live cache (values only, no timing)
# --------------------------------------------------------------------------- #

POPULATION = 2_000
CACHE_CAP = 64
SCHEMA_LENGTH = 20


def _seed_store(path):
    """Templates executed through the façade, the population cloned from their records.

    One template per progress level plus four ad-hoc modified ones (2 %
    of the clones); the type change below inserts before ``step_11``, so
    about half of the population conflicts.
    """
    system = AdeptSystem.open(path, cache_instances=CACHE_CAP)
    handle = system.deploy(templates.sequential_process(length=SCHEMA_LENGTH, schema_id="bulk_seq"))
    template_ids = []
    for progress in range(SCHEMA_LENGTH):
        case = handle.start()
        system.step_many([case.instance_id], steps=progress)
        template_ids.append(case.instance_id)
    for index in range(4):
        case = handle.start()
        system.step_many([case.instance_id], steps=index)
        system.change(case.instance_id, comment="deviation").serial_insert(
            f"extra_{index}", pred=f"step_{index + 12}", succ=f"step_{index + 13}"
        ).apply()
        template_ids.append(case.instance_id)
    for instance_id in template_ids:
        system.save(instance_id)
    records = [system.store.record(instance_id) for instance_id in template_ids]
    unbiased, biased = records[:SCHEMA_LENGTH], records[SCHEMA_LENGTH:]
    clones = POPULATION - len(template_ids)
    for index in range(clones):
        pool = biased if index < clones // 50 else unbiased
        record = json.loads(json.dumps(pool[index % len(pool)]))
        record["instance_id"] = f"clone-{index:06d}"
        system.store.put_record(record)
    system.checkpoint()
    system.close()


def _insert_before_step_11():
    from repro.core.evolution import TypeChange
    from repro.core.operations import SerialInsertActivity
    from repro.schema.nodes import Node

    return TypeChange.of(
        1, [SerialInsertActivity(activity=Node(node_id="review"), pred="step_10", succ="step_11")]
    )


def _on_version(system, version):
    return {handle.instance_id for handle in system.instances_of("sequence", version=version)}


def test_evolve_over_store_resident_population_is_exact_bounded_and_durable(tmp_path):
    """Reference outcomes and membership, hydration ≤ cap + 1, the same after a crash."""
    store = str(tmp_path / "store")
    _seed_store(store)
    reference_store = str(tmp_path / "reference")
    shutil.copytree(store, reference_store)

    system = AdeptSystem.open(store, cache_instances=CACHE_CAP)
    peak_live = 0

    def watch(event):
        nonlocal peak_live
        if event.name == "instance_loaded":
            peak_live = max(peak_live, len(system.live_instance_ids()))

    system.bus.subscribe(watch, categories=["system"])
    report = system.evolve("sequence", _insert_before_step_11(), collect_results=False)
    assert peak_live <= CACHE_CAP + 1
    outcomes = report.outcome_counts()
    assert report.total == POPULATION
    assert outcomes["migrated"] and outcomes["state_conflict"] and outcomes["migrated_with_bias"]
    on_new_version = _on_version(system, report.to_version)
    assert len(on_new_version) == report.migrated_count
    sample = sorted(on_new_version)[::20] + sorted(_on_version(system, 1))[::20]
    fingerprints = {iid: system.get_instance(iid).state_fingerprint() for iid in sample}
    system.backend.close()  # crash without checkpoint: the WAL must rebuild it

    reference = AdeptSystem.open(reference_store, cache_instances=CACHE_CAP)
    reference_report = reference_evolve(reference, "sequence", _insert_before_step_11())
    assert outcomes == reference_report.outcome_counts()
    assert on_new_version == _on_version(reference, report.to_version)
    assert fingerprints == {
        iid: reference.get_instance(iid).state_fingerprint() for iid in sample
    }
    reference.backend.close()

    recovered = AdeptSystem.open(store, cache_instances=CACHE_CAP)
    try:
        assert _on_version(recovered, report.to_version) == on_new_version
        assert fingerprints == {
            iid: recovered.get_instance(iid).state_fingerprint() for iid in sample
        }
    finally:
        recovered.close()
