"""WAL-only recovery of progressive rollouts, one ending at a time.

Recovery replays every rollout record by calling the façade method that
journaled it, so a crash after any rollout ending — lazy completion,
canary promotion, canary revert or pin, an external verdict — must
reopen to the state the live system held: the rollout's books, the
type's versions, every case and the open work.  A log that no longer
matches what the replay re-derives (an edited ``reverted`` list, a
transition the live method refuses, an adoption whose outcome flips) is
refused with :class:`RecoveryError` naming the record.
"""

import json

import pytest

from repro.schema import templates
from repro.storage.serialization import instance_to_dict
from repro.system import AdeptSystem, RecoveryError
from repro.system.persistence import (
    KIND_ROLLOUT_COMPLETED,
    KIND_ROLLOUT_CONFLICTED,
    KIND_ROLLOUT_MIGRATED,
    KIND_ROLLOUT_PROMOTED,
    KIND_ROLLOUT_ROLLED_BACK,
)
from repro.system.rollout import STATE_OBSERVING
from repro.workloads.order_process import order_type_change_v2

TYPE_ID = "online_order"


def _population(path, cache_instances=None):
    """12 fresh (compliant) and 6 advanced (conflicting) order cases."""
    system = AdeptSystem.open(path, cache_instances=cache_instances)
    orders = system.deploy(templates.online_order_process())
    fresh = [orders.start().instance_id for _ in range(12)]
    advanced = [orders.start().instance_id for _ in range(6)]
    system.step_many(advanced, steps=3)
    return system, fresh, advanced


def _touch(system, rollout, ids, window):
    """Step each case once; ``window`` collects the conflicts noted while
    the rollout observed (a migrating rollout's conflicts are not journaled)."""
    for instance_id in ids:
        observing = rollout.state == STATE_OBSERVING
        system.step_many([instance_id], steps=1)
        if observing:
            window |= rollout.conflicted


def _interleave(fresh, advanced):
    return [i for pair in zip(fresh, advanced) for i in pair]


def _lazy_swept(system, fresh, advanced, window):
    rollout = system.evolve(TYPE_ID, order_type_change_v2(), rollout="lazy")
    _touch(system, rollout, fresh[:4] + advanced[:2], window)
    while system.rollout_of(TYPE_ID) is not None:
        if system.sweep_rollout(TYPE_ID, max_cases=5) == 0:
            break


def _canary_auto_promote(system, fresh, advanced, window):
    rollout = system.evolve(
        TYPE_ID, order_type_change_v2(), rollout="canary",
        fraction=1.0, conflict_threshold=0.5, min_observations=6,
    )
    _touch(system, rollout, advanced[:1] + fresh[:5], window)
    assert rollout.state == "migrating"
    _touch(system, rollout, fresh[5:8] + advanced[1:3], window)


def _canary_auto_rollback(policy):
    def scenario(system, fresh, advanced, window):
        rollout = system.evolve(
            TYPE_ID, order_type_change_v2(), rollout="canary",
            fraction=1.0, conflict_threshold=0.3, min_observations=8,
            canary_policy=policy,
        )
        _touch(system, rollout, _interleave(fresh[:4], advanced[:4]), window)
        assert rollout.state == "rolled_back"
        _touch(system, rollout, fresh[4:7], window)

    return scenario


def _canary_external(decision):
    def scenario(system, fresh, advanced, window):
        rollout = system.evolve(
            TYPE_ID, order_type_change_v2(), rollout="canary",
            fraction=1.0, min_observations=1, canary_decide="external",
        )
        _touch(system, rollout, _interleave(fresh[:3], advanced[:3]), window)
        assert rollout.state == STATE_OBSERVING
        if decision == "promote":
            assert system.evolution.promote(TYPE_ID)
        else:
            assert system.evolution.roll_back(TYPE_ID) == sorted(rollout.adopted)
        _touch(system, rollout, fresh[3:6] + advanced[3:5], window)

    return scenario


ENDINGS = {
    "lazy-swept-to-completion": (_lazy_swept, None),
    "canary-auto-promote": (_canary_auto_promote, None),
    "canary-revert": (_canary_auto_rollback("revert"), None),
    "canary-pin": (_canary_auto_rollback("pin"), None),
    "external-promote": (_canary_external("promote"), None),
    "external-rollback": (_canary_external("rollback"), None),
    "canary-revert-cache-4": (_canary_auto_rollback("revert"), 4),
}


def _observable(system, ids, conflicted=None):
    """Everything a WAL-only recovery must reproduce.

    ``touches`` and ``swept`` are telemetry and not journaled; neither
    are the conflicts a migrating rollout notes — ``conflicted``
    replaces the live set with the ones noted while observing.
    """
    rollout = system.rollout_of(TYPE_ID) or system.evolution.history[TYPE_ID]
    books = rollout.to_dict()
    del books["touches"], books["swept"]
    if conflicted is not None:
        books["conflicted"] = sorted(conflicted)
    cases = {i: instance_to_dict(system.get_instance(i)) for i in ids}
    work = sorted(
        (item.instance_id, item.activity_id, item.role, item.state.value)
        for item in system.worklists.open_items()
    )
    return {
        "rollout": books,
        "versions": system.type(TYPE_ID).versions,
        "retired": sorted(system.evolution.retired.get(TYPE_ID, ())),
        "cases": cases,
        "work": work,
    }


@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_wal_only_recovery_equals_the_live_state(tmp_path, ending):
    scenario, cache_instances = ENDINGS[ending]
    system, fresh, advanced = _population(tmp_path / "db", cache_instances)
    window = set()
    scenario(system, fresh, advanced, window)
    ids = fresh + advanced
    expected = _observable(system, ids, conflicted=window)
    system.backend.close()  # crash: no checkpoint, the WAL alone survives

    recovered = AdeptSystem.open(tmp_path / "db", cache_instances=cache_instances)
    assert recovered.last_recovery.snapshot_loaded is False
    assert _observable(recovered, ids) == expected
    recovered.backend.close()


# --------------------------------------------------------------------------- #
# reconciliation: a log that no longer matches the replay is refused
# --------------------------------------------------------------------------- #


def _rewrite_wal(system, edit):
    """Crash ``system`` and rewrite its WAL records through ``edit``."""
    system.backend.close()
    path = system.backend.wal.path
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records = edit(records)
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def _canary_rolled_back(path):
    system, fresh, advanced = _population(path)
    _canary_auto_rollback("revert")(system, fresh, advanced, set())
    return system


def _first(records, kind):
    return next(record for record in records if record["kind"] == kind)


def _appended(records, kind):
    return records + [
        {"kind": kind, "seq": records[-1]["seq"] + 1, "type_id": TYPE_ID, "to_version": 2}
    ]


def test_an_edited_reverted_list_is_refused(tmp_path):
    system = _canary_rolled_back(tmp_path / "db")

    def drop_one(records):
        record = _first(records, KIND_ROLLOUT_ROLLED_BACK)
        assert len(record["reverted"]) == 4
        record["reverted"] = record["reverted"][1:]
        return records

    _rewrite_wal(system, drop_one)
    seq = _first(system.backend.wal_records(), KIND_ROLLOUT_ROLLED_BACK)["seq"]
    with pytest.raises(RecoveryError, match=f"#{seq} \\(rollout_rolled_back\\) .* another cohort"):
        AdeptSystem.open(tmp_path / "db")


def test_a_conflict_edited_into_an_adoption_is_refused(tmp_path):
    system = _canary_rolled_back(tmp_path / "db")

    def flip(records):
        _first(records, KIND_ROLLOUT_CONFLICTED)["kind"] = KIND_ROLLOUT_MIGRATED
        return records

    _rewrite_wal(system, flip)
    with pytest.raises(RecoveryError, match="re-derived the opposite outcome"):
        AdeptSystem.open(tmp_path / "db")


def _lazy_completed(path):
    system, fresh, advanced = _population(path)
    _lazy_swept(system, fresh, advanced, set())
    return system


def _canary_observing(path):
    system, fresh, advanced = _population(path)
    rollout = system.evolve(
        TYPE_ID, order_type_change_v2(), rollout="canary",
        fraction=1.0, canary_decide="external",
    )
    _touch(system, rollout, fresh[:2], set())
    return system


@pytest.mark.parametrize(
    "build, edit",
    [
        # a migrating rollout cannot be promoted
        (_lazy_completed, lambda records: [
            {**r, "kind": KIND_ROLLOUT_PROMOTED} if r["kind"] == KIND_ROLLOUT_COMPLETED else r
            for r in records
        ]),
        # an observing rollout cannot complete
        (_canary_observing, lambda records: _appended(records, KIND_ROLLOUT_COMPLETED)),
        # a finished rollout cannot be rolled back
        (_canary_rolled_back, lambda records: _appended(records, KIND_ROLLOUT_ROLLED_BACK)),
    ],
    ids=["promote-migrating", "complete-observing", "roll-back-finished"],
)
def test_a_transition_the_live_method_refuses_is_refused(tmp_path, build, edit):
    system = build(tmp_path / "db")
    _rewrite_wal(system, edit)
    with pytest.raises(RecoveryError, match="no (observing|migrating) rollout of 'online_order'"):
        AdeptSystem.open(tmp_path / "db")


def test_a_verdict_the_crash_kept_out_of_the_log_is_taken_on_the_next_touch(tmp_path):
    system, fresh, advanced = _population(tmp_path / "db")
    _canary_auto_rollback("revert")(system, fresh, advanced, set())
    # the crash came after the attempt that tripped the verdict, before
    # the rollback's record (and everything after it) reached the log
    _rewrite_wal(system, lambda records: records[
        : records.index(_first(records, KIND_ROLLOUT_ROLLED_BACK))
    ])
    recovered = AdeptSystem.open(tmp_path / "db")
    rollout = recovered.rollout_of(TYPE_ID)
    assert rollout.state == STATE_OBSERVING and rollout.pending_decision is None
    assert rollout.observed_conflict_rate > rollout.conflict_threshold
    _touch(recovered, rollout, fresh[4:5], set())
    assert recovered.rollout_status(TYPE_ID)["state"] == "rolled_back"
    assert recovered.type(TYPE_ID).versions == [1]
