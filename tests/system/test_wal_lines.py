"""WAL lines carry their record and nothing else.

A line is the record's compact sorted JSON, and the persistence backend
leaves every ``None``-valued field out of the record; a reader takes a
missing field for ``None``.  Lines written before — ``", "`` / ``": "``
padding, explicit ``null`` fields — still parse and replay the same,
also when one log holds both dialects.  The exact byte counts below are
the journal's budget per record: a change that adds bytes to a line
(a checksum, a field) shows here first.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.core.evolution import ProcessType
from repro.runtime.engine import ProcessEngine
from repro.schema import templates
from repro.system import AdeptSystem
from repro.system.persistence import (
    _REPLAY_HANDLERS,
    KIND_ADHOC_CHANGE,
    KIND_INSTANCE_DELETED,
    KIND_INSTANCE_STARTED,
    KIND_ROLLOUT_MIGRATED,
    KIND_STEP,
    PersistentBackend,
)
from repro.workloads.order_process import order_type_change_v2

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
TYPE_ID = "online_order"

#: the fields older code wrote as explicit nulls, by record kind
NULLABLE = {KIND_STEP: ("outputs", "user"), KIND_ADHOC_CHANGE: ("user",)}


# --------------------------------------------------------------------------- #
# scenarios: together they journal every record kind
# --------------------------------------------------------------------------- #


def _basics(system):
    """Every kind but the rollout ones; optional fields left ``None``."""
    orders = system.deploy(templates.online_order_process())
    loops = ProcessType("loop_process")
    loops.add_version(templates.loop_process(body_length=2, max_iterations=5))
    system.adopt(loops)
    ids = [orders.start().instance_id for _ in range(5)]
    activity = system.activated(ids[0])[0]
    system.start_activity(ids[0], activity)  # no user: the step has neither field
    system.complete(ids[0], activity)
    system.complete(ids[1], system.activated(ids[1])[0], outputs={"order": {"sku": 7}}, user="ann")
    system.step_many(ids[2:], steps=1)
    system.change(ids[2], comment="check").serial_insert(
        "verify", pred="get_order", succ="collect_data", role="clerk"
    ).apply()  # no user
    outside = ProcessEngine().create_instance(
        system.repository.resolve("loop_process", 1), "loop-adopted"
    )
    system.adopt_instance(outside)
    system.step_many(["loop-adopted"], steps=2)
    system.save(ids[3])
    system.abort(ids[4])
    system.delete_instance(ids[4])
    orders.evolve(order_type_change_v2())
    system.step_many(ids[:4], steps=2)


def _population(system):
    orders = system.deploy(templates.online_order_process())
    fresh = [orders.start().instance_id for _ in range(12)]
    advanced = [orders.start().instance_id for _ in range(6)]
    system.step_many(advanced, steps=3)
    return fresh, advanced


def _canary_promoted_and_swept(system):
    fresh, advanced = _population(system)
    system.evolve(
        TYPE_ID, order_type_change_v2(), rollout="canary",
        fraction=1.0, conflict_threshold=0.5, min_observations=6,
    )
    for instance_id in advanced[:1] + fresh[:5]:
        system.step_many([instance_id], steps=1)
    while system.rollout_of(TYPE_ID) is not None:
        if system.sweep_rollout(TYPE_ID, max_cases=5) == 0:
            break


def _canary_rolled_back(system):
    fresh, advanced = _population(system)
    system.evolve(
        TYPE_ID, order_type_change_v2(), rollout="canary",
        fraction=1.0, conflict_threshold=0.3, min_observations=8,
    )
    for pair in zip(fresh[:4], advanced[:4]):
        system.step_many(list(pair), steps=1)
    system.step_many(fresh[4:7], steps=1)


SCENARIOS = {
    "basics": _basics,
    "canary-promoted-and-swept": _canary_promoted_and_swept,
    "canary-rolled-back": _canary_rolled_back,
}


def _observable(system):
    """What a WAL-only reopen must reproduce: every case, type and open item."""
    ids = sorted(set(system.live_instance_ids()) | set(system.store.instance_ids()))
    return {
        "cases": {i: system.get_instance(i).state_fingerprint() for i in ids},
        "versions": {t: system.repository.versions_of(t) for t in system.repository.type_names()},
        "work": sorted(
            (item.instance_id, item.activity_id, item.state.value)
            for item in system.worklists.open_items()
        ),
    }


def _crashed(path, scenario):
    """Run ``scenario`` on a durable system and crash it; returns its observable state."""
    system = AdeptSystem.open(path)
    SCENARIOS[scenario](system)
    expected = _observable(system)
    system.backend.close()  # crash: no checkpoint, the WAL alone survives
    return expected


def _lines(path):
    return (Path(path) / "wal.jsonl").read_text(encoding="utf-8").splitlines()


def _reopened(path):
    recovered = AdeptSystem.open(path)
    assert recovered.last_recovery.snapshot_loaded is False
    observed = _observable(recovered)
    recovered.backend.close()
    return observed


# --------------------------------------------------------------------------- #
# the line format
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_line_is_compact_sorted_json_without_null_fields(tmp_path, scenario):
    _crashed(tmp_path / "db", scenario)
    for line in _lines(tmp_path / "db"):
        record = json.loads(line)
        assert line == json.dumps(record, separators=(",", ":"), sort_keys=True)
        assert None not in record.values(), line


def test_the_scenarios_journal_every_record_kind(tmp_path):
    kinds = set()
    for scenario in SCENARIOS:
        _crashed(tmp_path / scenario, scenario)
        kinds.update(json.loads(line)["kind"] for line in _lines(tmp_path / scenario))
    assert kinds == set(_REPLAY_HANDLERS)


def test_the_fields_the_journal_checks_read_are_written(tmp_path):
    """The acked ⇒ journaled and exactly-once checks read these fields."""
    for scenario in SCENARIOS:
        _crashed(tmp_path / scenario, scenario)
        for record in map(json.loads, _lines(tmp_path / scenario)):
            if record["kind"] == KIND_STEP:
                assert {"kind", "action"} <= record.keys()
            elif record["kind"] == KIND_ROLLOUT_MIGRATED:
                assert {"instance_id", "to_version"} <= record.keys()
            elif record["kind"] == "evolution":
                assert "candidates" in record


# --------------------------------------------------------------------------- #
# replay: missing fields, old lines, mixed logs
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_a_wal_only_reopen_equals_the_live_system(tmp_path, scenario):
    expected = _crashed(tmp_path / "db", scenario)
    assert _reopened(tmp_path / "db") == expected


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_a_wal_mixing_old_and_new_lines_recovers_the_live_state(tmp_path, scenario):
    expected = _crashed(tmp_path / "db", scenario)
    mixed = []
    for number, line in enumerate(_lines(tmp_path / "db")):
        record = json.loads(line)
        if number % 2:
            # the older dialect: padded separators, explicit nulls
            for name in NULLABLE.get(record["kind"], ()):
                record.setdefault(name, None)
            line = json.dumps(record, sort_keys=True)
        mixed.append(line + "\n")
    (tmp_path / "db" / "wal.jsonl").write_text("".join(mixed), encoding="utf-8")
    assert any(": null" in line for line in mixed)
    assert _reopened(tmp_path / "db") == expected


@pytest.mark.parametrize("fixture", ["store_v1", "store_v2"])
def test_the_stored_fixtures_open_and_take_new_lines(tmp_path, fixture):
    """The fixtures' WALs are old lines; appending new ones keeps them replayable."""
    store = tmp_path / "store"
    shutil.copytree(FIXTURES / fixture, store)
    old = _lines(store)
    assert all(", " in line for line in old) and any(": null" in line for line in old)
    system = AdeptSystem.open(store)
    assert system.last_recovery.replayed_records == len(old)
    system.step_many(["loop-late", "loop-0"], steps=1)
    expected = _observable(system)
    system.backend.close()

    lines = _lines(store)
    assert lines[: len(old)] == old and len(lines) == len(old) + 2
    recovered = AdeptSystem.open(store)
    assert recovered.last_recovery.replayed_records == len(lines)
    assert _observable(recovered) == expected
    recovered.backend.close()


# --------------------------------------------------------------------------- #
# exact bytes per record
# --------------------------------------------------------------------------- #

CASE = "online_order-00001"

#: (kind, fields, bytes of the line, bytes the older dialect wrote —
#: padding, and ``"outputs": null, "user": null`` on the step)
RECORDS = [
    (
        KIND_STEP,
        {"instance_id": CASE, "action": "complete", "activity": "get_order",
         "outputs": None, "user": None},
        102,
        142,
    ),
    (
        KIND_INSTANCE_STARTED,
        {"instance_id": CASE, "type_id": TYPE_ID, "version": 1, "data": {}},
        118,
        129,
    ),
    (KIND_INSTANCE_DELETED, {"instance_id": CASE}, 71, 76),
    (
        KIND_ROLLOUT_MIGRATED,
        {"type_id": TYPE_ID, "instance_id": CASE, "to_version": 2},
        111,
        120,
    ),
]


@pytest.mark.parametrize("kind, fields, size, old_size", RECORDS, ids=[r[0] for r in RECORDS])
def test_a_record_costs_exactly_its_bytes(tmp_path, kind, fields, size, old_size):
    backend = PersistentBackend(str(tmp_path / "db"))
    assert backend.journal(kind, **fields) == 1
    assert backend.wal.size_bytes() == size
    (record,) = backend.wal_records()
    assert record == {"kind": kind, "seq": 1, **{n: v for n, v in fields.items() if v is not None}}
    old = json.dumps(dict(fields, kind=kind, seq=1), sort_keys=True) + "\n"
    assert len(old.encode("utf-8")) == old_size
    backend.close()
