"""The stored marking's ``"fix"`` key is a cache hint and nothing else.

A marking is *settled* while it is a fixpoint of the engine's propagation;
the next step of a settled marking re-examines only the nodes it signals.
The cache write-back records the flag inside the stored marking payload so
it survives eviction — and that is the only place it may ever appear:
equal states must keep equal records, fingerprints and journals whether or
not one of them happens to carry the hint.

Counts, never clocks: "how much a step re-examined" is the number of entry
deciders it called.
"""

import json

import pytest

from repro import AdeptSystem
from repro.core.adhoc import AdHocChanger
from repro.core.operations import SerialInsertActivity
from repro.runtime.engine import ProcessEngine
from repro.schema import templates
from repro.schema.nodes import Node
from repro.storage.instance_store import InstanceStore
from repro.storage.repository import SchemaRepository
from repro.storage.serialization import instance_to_dict


def count_decider_calls(schema):
    """Wrap the compiled deciders of ``schema``; returns the running tally."""
    kernel = schema.index.step_kernel()
    calls = [0]

    def counting(decider):
        def decide(edges):
            calls[0] += 1
            return decider(edges)

        return decide

    kernel.deciders = tuple(counting(decider) for decider in kernel.deciders)
    return calls


@pytest.fixture
def stepped(engine, order_schema):
    """A store holding one case evicted mid-run, plus its never-evicted twin."""
    repository = SchemaRepository()
    repository.register_type(order_schema)
    store = InstanceStore(repository)
    twin = engine.create_instance(order_schema, "twin")
    case = engine.create_instance(order_schema, "case")
    for instance in (twin, case):
        engine.step_many_compiled([instance], 2)
    assert case.marking.settled
    store.write_back(case)
    return store, twin


def first_step_cost(engine, instance, calls):
    before = calls[0]
    assert engine.step_many_compiled([instance], 1) == [1]
    return calls[0] - before


class TestWhereTheHintLives:
    def test_only_the_write_back_writes_it_and_only_into_the_marking_payload(self, stepped):
        store, twin = stepped
        record = store.record("case")
        assert record["marking"]["fix"] == 1
        assert len(record) == 10  # beside the marking it would be an eleventh key
        assert "fix" not in instance_to_dict(twin)["marking"]
        assert "fix" not in json.dumps(instance_to_dict(twin))
        store.save(twin)  # the journaled save is not a cache write-back
        assert "fix" not in store.record("twin")["marking"]
        # equal states: the hint is no part of the record's canonical content
        hydrated = store.load("case")
        assert hydrated.marking.settled
        assert instance_to_dict(hydrated) == dict(instance_to_dict(twin), instance_id="case")

    def test_an_unsettled_marking_is_written_back_without_it(self, engine, stepped):
        store, twin = stepped
        twin.marking.settled = False
        store.write_back(twin)
        assert "fix" not in store.record("twin")["marking"]
        assert not store.load("twin").marking.settled

    def test_a_biased_case_carries_it_in_the_keyed_form(self, engine, stepped):
        store, twin = stepped
        AdHocChanger(engine).apply(
            twin,
            [
                SerialInsertActivity(
                    activity=Node(node_id="check"), pred="confirm_order", succ="and_join_fulfil_2"
                )
            ],
        )
        assert twin.marking.settled
        store.write_back(twin)
        marking = store.record("twin")["marking"]
        assert set(marking) == {"node_states", "edge_states", "fix"}
        assert store.load("twin").marking.settled

    def test_whatever_replaces_a_stored_marking_drops_it(self, stepped):
        store, twin = stepped
        layout = twin.original_schema.index.marking_layout()
        rewritten = store.migrate_record("case", 1, twin.marking.to_stored(layout))
        assert "fix" not in rewritten["marking"]
        assert not store.load("case").marking.settled


class TestTheFirstStepAfterHydration:
    def test_examines_what_a_never_evicted_twin_examines(self, engine, order_schema, stepped):
        store, twin = stepped
        calls = count_decider_calls(order_schema)
        resident = first_step_cost(engine, twin, calls)
        hydrated = store.load("case")
        assert first_step_cost(engine, hydrated, calls) == resident
        assert resident < len(order_schema.node_ids()) / 2  # a handful, not the schema
        assert hydrated.marking.differences(twin.marking) == []

    @pytest.mark.parametrize("how", ["migrate_record", "key stripped", "older build's record"])
    def test_without_the_hint_takes_the_full_pass_to_the_same_marking(
        self, engine, order_schema, stepped, how
    ):
        store, twin = stepped
        layout = order_schema.index.marking_layout()
        if how == "migrate_record":
            store.migrate_record("case", 1, twin.marking.to_stored(layout))
        elif how == "key stripped":
            record = store.record("case")
            record["marking"] = {k: v for k, v in record["marking"].items() if k != "fix"}
            store.put_record(record)
        else:  # keyed marking, as format-1 stores hold it
            record = store.record("case")
            record["marking"] = json.loads(json.dumps(twin.marking.to_dict(), sort_keys=True))
            store.put_record(record)
        calls = count_decider_calls(order_schema)
        seeded = first_step_cost(engine, twin, calls)
        hydrated = store.load("case")
        assert not hydrated.marking.settled
        untouched = hydrated.marking.nodes.count(0)
        assert first_step_cost(engine, hydrated, calls) >= untouched > seeded
        assert hydrated.marking.settled
        assert hydrated.marking.differences(twin.marking) == []
        assert hydrated.state_fingerprint() == twin.clone("case").state_fingerprint()
        # from here on both are seeded alike
        assert first_step_cost(engine, hydrated, calls) == first_step_cost(engine, twin, calls)


class TestLiveEvictedAndRecoveredAreOneState:
    def test_fingerprints_agree_and_no_journal_record_carries_the_hint(self, tmp_path):
        def drive(system, ids):
            for round_ in range(3):
                for case_id in ids:
                    system.step_many([case_id], steps=1 + round_ % 2)

        live = AdeptSystem()
        orders = live.deploy(templates.online_order_process())
        ids = [orders.start().instance_id for _ in range(6)]
        drive(live, ids)
        expected = {i: live.get_instance(i).state_fingerprint() for i in ids}

        # cap 2: every visit hydrates one case and evicts another
        durable = AdeptSystem.open(tmp_path / "store", cache_instances=2)
        orders = durable.deploy(templates.online_order_process())
        assert [orders.start().instance_id for _ in range(6)] == ids
        drive(durable, ids)
        hinted = [i for i in ids if "fix" in durable.store.record(i)["marking"]]
        assert len(hinted) >= len(ids) - 2  # all but the still-resident ones
        assert {i: durable.get_instance(i).state_fingerprint() for i in ids} == expected
        # an adopted case is journaled whole: still no hint in the log
        outside = ProcessEngine().create_instance(
            durable.repository.resolve("online_order", 1), "adopted"
        )
        assert outside.marking.settled
        durable.adopt_instance(outside)
        durable.backend.close()  # crash: no flush, no checkpoint

        journal = (tmp_path / "store" / "wal.jsonl").read_text()
        assert '"instance_adopted"' in journal and '"step"' in journal
        assert '"fix"' not in journal
        recovered = AdeptSystem.open(tmp_path / "store", cache_instances=2)
        assert {i: recovered.get_instance(i).state_fingerprint() for i in ids} == expected
        # a checkpoint writes the hint into the snapshot; reopening reads it back
        recovered.checkpoint()
        recovered.close(checkpoint=False)
        snapshot = json.loads((tmp_path / "store" / "snapshot.json").read_text())
        assert any("fix" in record["marking"] for record in snapshot["instances"].values())
        reopened = AdeptSystem.open(tmp_path / "store")
        assert {i: reopened.get_instance(i).state_fingerprint() for i in ids} == expected
        reopened.close(checkpoint=False)
