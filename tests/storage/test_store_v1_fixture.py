"""A store written in an older format keeps opening.

``tests/fixtures/store_v1`` was written by the last commit that stored
keyed markings and per-entry history dicts (see
``tests/fixtures/make_store_v1.py`` for what it holds and how it was
made); ``tests/fixtures/store_v2`` holds the same cases as written by the
last commit before the stored marking gained its additive ``"fix"`` key
(``make_store_v2.py``).  The expectations below are written out by hand
from the script, not derived from the code under test, and hold for both:
``test_store_v2_fixture.py`` runs every test that takes the ``store``
fixture again over the format-2 store.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.storage.serialization import instance_to_dict
from repro.system import AdeptSystem

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
FIXTURE = FIXTURES / "store_v1"
FIXTURE_V2 = FIXTURES / "store_v2"

C, A = "completed", "activated"
S, D, L = "activity_started", "activity_completed", "loop_iteration_started"

ORDER_DOC = {"produced_by": "get_order"}
CUSTOMER_DOC = {"produced_by": "collect_data"}
SHIPMENT_DOC = {"produced_by": "pack_goods"}
#: history of an ``online_order`` case, activity by activity:
#: ``(event, activity, iteration, values, user, superseded)``
ORDER_STEPS = [
    (S, "get_order", 0, {}, None, False),
    (D, "get_order", 0, {"order": ORDER_DOC}, None, False),
    (S, "collect_data", 0, {"order": ORDER_DOC}, None, False),
    (D, "collect_data", 0, {"customer": CUSTOMER_DOC}, None, False),
    (S, "confirm_order", 0, {"order": ORDER_DOC, "customer": CUSTOMER_DOC}, None, False),
    (D, "confirm_order", 0, {"confirmation": True}, None, False),
    (S, "compose_order", 0, {"order": ORDER_DOC}, None, False),
    (D, "compose_order", 0, {}, None, False),
    (S, "pack_goods", 0, {"order": ORDER_DOC}, None, False),
    (D, "pack_goods", 0, {"shipment": SHIPMENT_DOC}, None, False),
    (S, "deliver_goods", 0, {"confirmation": True, "shipment": SHIPMENT_DOC}, None, False),
    (D, "deliver_goods", 0, {}, None, False),
]
#: data values after the first n activities of an order
ORDER_DATA = [
    {},
    {"order": ORDER_DOC},
    {"order": ORDER_DOC, "customer": CUSTOMER_DOC},
    {"order": ORDER_DOC, "customer": CUSTOMER_DOC, "confirmation": True},
    {"order": ORDER_DOC, "customer": CUSTOMER_DOC, "confirmation": True},
    {"order": ORDER_DOC, "customer": CUSTOMER_DOC, "confirmation": True, "shipment": SHIPMENT_DOC},
    {"order": ORDER_DOC, "customer": CUSTOMER_DOC, "confirmation": True, "shipment": SHIPMENT_DOC},
]
PREPARED = [(S, "prepare", 0, {}, None, False), (D, "prepare", 0, {}, None, False)]


def order(version, status, done, nodes, signalled, biased=False):
    return {
        "type": "online_order",
        "version": version,
        "status": status,
        "biased": biased,
        "nodes": nodes,
        "signalled": sorted(signalled),
        "history": ORDER_STEPS[: 2 * done],
        "data": ORDER_DATA[done],
        "loops": {},
    }


def loop(nodes, signalled, history, biased=False, loops=None):
    return {
        "type": "loop_process",
        "version": 1,
        "status": "running",
        "biased": biased,
        "nodes": nodes,
        "signalled": sorted(signalled),
        "history": history,
        "data": {"done": False},
        "loops": loops or {},
    }


ORDER_EDGES = [
    "start>get_order",
    "get_order>collect_data",
    "collect_data>and_split_fulfil_1",
    "and_split_fulfil_1>confirm_order",
    "and_split_fulfil_1>compose_order",
    "confirm_order>and_join_fulfil_2",
    "compose_order>pack_goods",
    "pack_goods>and_join_fulfil_2",
    "and_join_fulfil_2>deliver_goods",
    "deliver_goods>end",
]
SPLIT_DONE = {
    "start": C, "get_order": C, "collect_data": C, "and_split_fulfil_1": C,
}
LOOP_ENTERED = ["start>prepare", "prepare>loop_start_main_1", "loop_start_main_1>body_1"]

#: the state of every case after snapshot + WAL suffix: non-default node
#: states, TRUE-signalled edges (nothing is FALSE-signalled in this
#: population), history, data values, loop counters
EXPECTED = {
    # adopted by the canary at progress 0, then stepped once on v2
    "order-0": order(
        2, "running", 1,
        {"start": C, "get_order": C, "collect_data": A},
        ORDER_EDGES[:2],
    ),
    # adopted at progress 1, then stepped; on v2 confirm_order waits for
    # the sync edge from send_questions, so only compose_order is offered
    "order-1": order(2, "running", 2, dict(SPLIT_DONE, compose_order=A), ORDER_EDGES[:5]),
    "order-2": order(
        1, "running", 2, dict(SPLIT_DONE, confirm_order=A, compose_order=A), ORDER_EDGES[:5]
    ),
    "order-3": order(
        1, "running", 3, dict(SPLIT_DONE, confirm_order=C, compose_order=A), ORDER_EDGES[:6]
    ),
    "order-4": order(
        1, "running", 4,
        dict(SPLIT_DONE, confirm_order=C, compose_order=C, pack_goods=A),
        ORDER_EDGES[:7],
    ),
    "order-5": order(
        1, "running", 5,
        dict(
            SPLIT_DONE, confirm_order=C, compose_order=C, pack_goods=C,
            and_join_fulfil_2=C, deliver_goods=A,
        ),
        ORDER_EDGES[:9],
    ),
    "order-6": order(
        1, "completed", 6,
        dict(
            SPLIT_DONE, confirm_order=C, compose_order=C, pack_goods=C,
            and_join_fulfil_2=C, deliver_goods=C, end=C,
        ),
        ORDER_EDGES,
    ),
    # verify_address inserted ad hoc between get_order and collect_data
    "order-biased": order(
        1, "running", 1,
        {"start": C, "get_order": C, "verify_address": A},
        ["start>get_order", "get_order>verify_address"],
        biased=True,
    ),
    # stepped once in the WAL suffix
    "loop-0": loop(
        {"start": C, "prepare": C, "loop_start_main_1": C, "body_1": A}, LOOP_ENTERED, PREPARED
    ),
    # journaled again by instance_saved
    "loop-1": loop(
        {"start": C, "prepare": C, "loop_start_main_1": C, "body_1": C, "body_2": A},
        LOOP_ENTERED + ["body_1>body_2"],
        PREPARED + [(S, "body_1", 0, {}, None, False), (D, "body_1", 0, {}, None, False)],
    ),
    # second iteration: the first pass through the body is superseded
    "loop-2": loop(
        {"start": C, "prepare": C, "loop_start_main_1": C, "body_1": C, "body_2": A},
        LOOP_ENTERED + ["body_1>body_2"],
        PREPARED
        + [
            (S, "body_1", 0, {}, None, True),
            (D, "body_1", 0, {}, None, True),
            (S, "body_2", 0, {}, None, True),
            (D, "body_2", 0, {"done": False}, None, True),
            (L, "loop_start_main_1", 1, {}, None, False),
            (S, "body_1", 1, {}, "bob", False),
            (D, "body_1", 1, {}, "bob", False),
        ],
        loops={"loop_start_main_1": 1},
    ),
    # instance_adopted: created outside the system, never stepped
    "loop-adopted": loop({"start": C, "prepare": A}, ["start>prepare"], []),
    # instance_started + step + adhoc_change (review before the end node)
    "loop-late": loop(
        {"start": C, "prepare": C, "loop_start_main_1": C, "body_1": A},
        LOOP_ENTERED,
        PREPARED,
        biased=True,
    ),
}


@pytest.fixture
def store(tmp_path):
    """A scratch copy of the format-1 fixture (``test_store_v2_fixture.py``
    re-runs the tests that take it over the format-2 one)."""
    shutil.copytree(FIXTURE, tmp_path / "store")
    return tmp_path / "store"


def observed(instance):
    marking = instance.marking
    return {
        "type": instance.process_type,
        "version": instance.schema_version,
        "status": instance.status.value,
        "biased": instance.is_biased,
        "nodes": {
            node_id: state.value
            for node_id, state in marking.node_states.items()
            if state.value != "not_activated"
        },
        "signalled": sorted(
            f"{source}>{target}"
            for (source, target, _), state in marking.edge_states.items()
            if state.value == "true_signaled"
        ),
        "history": [
            (e.event.value, e.activity, e.iteration, dict(e.values), e.user, e.superseded)
            for e in instance.history.entries
        ],
        "data": instance.data.values,
        "loops": dict(instance.loop_iterations),
    }


def all_ids(system):
    return sorted(set(system.live_instance_ids()) | set(system.stored_instance_ids()))


def test_fixture_is_in_format_1():
    snapshot = json.loads((FIXTURE / "snapshot.json").read_text())
    assert snapshot["format"] == 1
    record = snapshot["instances"]["order-2"]
    assert "node_states" in record["marking"] and "entries" in record["history"]
    assert sum(path.stat().st_size for path in FIXTURE.iterdir()) <= 50 * 1024


def test_every_case_matches_the_handwritten_expectation(store):
    system = AdeptSystem.open(store)
    report = system.last_recovery
    assert report.snapshot_loaded and report.snapshot_instances == 11
    # the two steps of the WAL suffix: format 1 predates the single commit
    # point per completed activity (a start and a complete record each)
    old_journal = json.loads((store / "snapshot.json").read_text())["format"] == 1
    assert report.replayed_by_kind == {
        "instance_started": 1,
        "step": 4 if old_journal else 2,
        "instance_adopted": 1,
        "instance_saved": 1,
        "adhoc_change": 1,
    }
    assert all_ids(system) == sorted(EXPECTED)
    for case_id, expected in EXPECTED.items():
        got = observed(system.get_instance(case_id))
        assert got == expected, case_id
        sequences = [e.sequence for e in system.get_instance(case_id).history.entries]
        assert sequences == list(range(len(expected["history"]))), case_id
    rollout = system.rollout_status("online_order")
    assert rollout["state"] == "observing" and rollout["adopted"] == 2
    system.close(checkpoint=False)


def test_every_running_case_steps_to_completion(store):
    system = AdeptSystem.open(store)
    results = system.step_many(all_ids(system), steps=50)
    assert [r.status.value for r in results] == ["completed"] * len(EXPECTED)
    assert "review" in system.get_instance("loop-late").completed_activities()
    assert "verify_address" in system.get_instance("order-biased").completed_activities()
    system.close(checkpoint=False)


def test_first_checkpoint_writes_format_3_and_reproduces_every_fingerprint(store):
    system = AdeptSystem.open(store)
    fingerprints = {i: system.get_instance(i).state_fingerprint() for i in all_ids(system)}
    system.checkpoint()
    system.close(checkpoint=False)
    snapshot = json.loads((store / "snapshot.json").read_text())
    assert snapshot["format"] == 3
    # a case the WAL suffix changed was written back in the new form
    # (plus the write-back's additive "fix" key while the marking is settled)
    assert set(snapshot["instances"]["loop-0"]["marking"]) - {"fix"} == {"layout", "nodes", "edges"}
    # every record's two logs are stored text, touched or not
    for case_id, record in snapshot["instances"].items():
        assert set(record["history"]) == {"rows", "count"}, case_id
        assert isinstance(record["history"]["rows"], str), case_id
        assert isinstance(record["data"]["writes"], str), case_id
    reopened = AdeptSystem.open(store)
    assert reopened.last_recovery.replayed_records == 0
    assert {
        i: reopened.get_instance(i).state_fingerprint() for i in all_ids(reopened)
    } == fingerprints
    # ... and decode to exactly the canonical lists of the case
    for case_id, record in snapshot["instances"].items():
        canonical = instance_to_dict(reopened.get_instance(case_id))
        assert json.loads(record["history"]["rows"]) == canonical["history"]["rows"], case_id
        assert record["history"]["count"] == len(canonical["history"]["rows"]), case_id
        assert json.loads(record["data"]["writes"]) == canonical["data"]["writes"], case_id
    reopened.close(checkpoint=False)


def test_canary_revert_restores_from_the_old_format_pre_state(store):
    system = AdeptSystem.open(store)
    system.evolution.roll_back("online_order")
    assert system.rollout_status("online_order")["state"] == "rolled_back"
    assert system.type("online_order").versions == [1]
    # back where they were when the canary adopted them: progress 0 and 1
    untouched = observed(system.get_instance("order-0"))
    assert untouched == order(1, "running", 0, {"start": C, "get_order": A}, ORDER_EDGES[:1])
    one_done = observed(system.get_instance("order-1"))
    assert one_done == order(
        1, "running", 1, {"start": C, "get_order": C, "collect_data": A}, ORDER_EDGES[:2]
    )
    system.close(checkpoint=False)
