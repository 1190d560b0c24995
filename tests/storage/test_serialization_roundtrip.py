"""Round-trip serialisation tests for the durable building blocks.

Everything the persistence layer writes — markings, data contexts,
execution histories, substitution blocks and whole instance records —
must survive ``to_dict`` → JSON → ``from_dict`` byte-identically: the
crash-recovery contract compares canonical serialisations, so a lossy
round trip would silently weaken it.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.adhoc import AdHocChanger
from repro.core.changelog import ChangeLog
from repro.core.evolution import ProcessType, TypeChange
from repro.core.migration_plan import MigrationPlan
from repro.core.operations import (
    ChangeActivityAttributes,
    InsertSyncEdge,
    ParallelInsertActivity,
    SerialInsertActivity,
)
from repro.core.substitution import SubstitutionBlock
from repro.runtime.data_context import DataContext
from repro.runtime.engine import ProcessEngine
from repro.runtime.history import ExecutionHistory, HistoryEventType
from repro.runtime.markings import EDGE_CODE, NODE_CODE, Marking
from repro.runtime.states import NodeState
from repro.schema.data import DataType
from repro.schema.nodes import Node, NodeType
from repro.schema.templates import (
    loop_process,
    online_order_process,
    patient_treatment_process,
)
from repro.storage.serialization import StorageError, instance_from_dict, instance_to_dict
from repro.system import AdeptSystem
from repro.workloads.order_process import order_type_change_v2

from tests.properties.strategies import executed_instances, random_schemas

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def json_round_trip(payload):
    """Force the payload through an actual JSON encode/decode."""
    return json.loads(json.dumps(payload, sort_keys=True))


@pytest.fixture
def engine():
    return ProcessEngine()


@pytest.fixture
def executed(engine):
    schema = online_order_process()
    instance = engine.create_instance(schema, "rt-1")
    engine.complete_activity(instance, "get_order", outputs={"order": {"id": 7}})
    engine.complete_activity(instance, "collect_data", outputs={"customer": "jane"})
    return instance


class TestMarkingRoundTrip:
    def test_marking_round_trip_is_identical(self, executed):
        marking = executed.marking
        restored = Marking.from_dict(json_round_trip(marking.to_dict()))
        assert restored.to_dict() == marking.to_dict()
        assert restored.equivalent_to(marking)

    @RELAXED
    @given(data=st.data(), schema=random_schemas(min_activities=3, max_activities=10))
    def test_marking_round_trip_on_random_executions(self, data, schema):
        _, instance = data.draw(executed_instances(schema))
        payload = json_round_trip(instance.marking.to_dict())
        assert Marking.from_dict(payload).to_dict() == instance.marking.to_dict()


class TestDataContextRoundTrip:
    def test_values_writers_and_iterations_survive(self, executed):
        context = executed.data
        restored = DataContext.from_dict(json_round_trip(context.to_dict()))
        assert restored.to_dict() == context.to_dict()
        assert restored.values == context.values
        assert [write.element for write in restored.writes] == [
            write.element for write in context.writes
        ]

    def test_supplied_values_survive(self):
        context = DataContext()
        context.supply("priority", "high")
        context.write("total", 42, writer="compute", iteration=2)
        restored = DataContext.from_dict(json_round_trip(context.to_dict()))
        assert restored.to_dict() == context.to_dict()
        assert restored.get("priority") == "high"
        assert restored.last_write("total").iteration == 2


class TestHistoryRoundTrip:
    def test_history_round_trip_preserves_entries_and_reduction(self, executed):
        history = executed.history
        restored = ExecutionHistory.from_dict(json_round_trip(history.to_dict()))
        assert restored.to_dict() == history.to_dict()
        assert restored.completed_activities() == history.completed_activities()
        assert len(restored.reduced()) == len(history.reduced())


class TestSubstitutionBlockRoundTrip:
    def make_biased_schema(self):
        schema = online_order_process()
        change = ChangeLog(
            [
                SerialInsertActivity(
                    activity=Node(
                        node_id="call_customer",
                        node_type=NodeType.ACTIVITY,
                        name="call customer",
                        staff_assignment="clerk",
                    ),
                    pred="get_order",
                    succ="collect_data",
                )
            ]
        )
        return schema, change.apply_to(schema)

    def test_block_round_trip_is_identical(self):
        original, biased = self.make_biased_schema()
        block = SubstitutionBlock.from_schemas(original, biased)
        restored = SubstitutionBlock.from_dict(json_round_trip(block.to_dict()))
        assert restored.to_dict() == block.to_dict()

    def test_restored_block_overlays_to_equivalent_schema(self):
        original, biased = self.make_biased_schema()
        block = SubstitutionBlock.from_dict(
            json_round_trip(SubstitutionBlock.from_schemas(original, biased).to_dict())
        )
        overlaid = block.overlay(original, schema_id="overlaid")
        assert set(overlaid.node_ids()) == set(biased.node_ids())
        assert {edge.key for edge in overlaid.edges} == {edge.key for edge in biased.edges}


class TestWholeInstanceRoundTrip:
    @RELAXED
    @given(data=st.data(), schema=random_schemas(min_activities=3, max_activities=10))
    def test_instance_record_round_trip_keeps_the_fingerprint(self, data, schema):
        _, instance = data.draw(executed_instances(schema))
        payload = json_round_trip(instance_to_dict(instance))
        restored = instance_from_dict(payload, lambda name, version: schema)
        assert restored.state_fingerprint() == instance.state_fingerprint()


# --------------------------------------------------------------------------- #
# the positional record: marking as two code strings, history as rows
# --------------------------------------------------------------------------- #


#: random block-structured schemas, plus templates whose loops the random
#: ones rarely grow (a drawn ``False`` exit flag supersedes an iteration)
codec_schemas = st.one_of(
    random_schemas(min_activities=3, max_activities=12),
    st.builds(lambda length: loop_process(body_length=length, max_iterations=4), st.integers(1, 3)),
    st.builds(patient_treatment_process),
)


@st.composite
def scheduled_instances(draw, schema):
    """An instance driven by a random schedule, not "first activated wins".

    Each step picks any activated activity and either completes it with
    drawn outputs (a ``False`` loop flag runs another iteration and
    supersedes the last one; choice flags kill XOR branches), or leaves
    it running, suspended or failed.
    """
    engine = ProcessEngine()
    instance = engine.create_instance(schema, "codec")
    for _ in range(draw(st.integers(min_value=0, max_value=3 * len(schema.activity_ids())))):
        activated = instance.activated_activities()
        if not activated:
            break
        activity = draw(st.sampled_from(activated))
        action = draw(st.sampled_from(["complete"] * 7 + ["start", "suspend", "fail"]))
        if action == "complete":
            outputs = engine.outputs_for(instance, activity)
            for name in outputs:
                if schema.data_element(name).data_type is DataType.BOOLEAN:
                    outputs[name] = draw(st.booleans())
            engine.complete_activity(instance, activity, outputs)
            continue
        engine.start_activity(instance, activity)
        if action == "suspend":
            engine.suspend_activity(instance, activity)
        elif action == "fail":
            instance.marking.set_node_state(activity, NodeState.FAILED)
    return engine, instance


def keyed_twin(instance):
    """``instance``'s record in the keyed marking / entry-dict history form."""
    record = instance_to_dict(instance)
    record["marking"] = instance.marking.to_dict()
    record["history"] = {"entries": [entry.to_dict() for entry in instance.history.entries]}
    return record


def biased_order_case(engine):
    schema = online_order_process()
    instance = engine.create_instance(schema, "biased")
    engine.complete_activity(instance, "get_order")
    AdHocChanger().apply(
        instance,
        [
            SerialInsertActivity(
                activity=Node(node_id="verify_address"), pred="get_order", succ="collect_data"
            )
        ],
    )
    return schema, instance


class TestPositionalRecord:
    @settings(RELAXED, max_examples=80)
    @given(data=st.data(), schema=codec_schemas)
    def test_round_trip_restores_every_part_in_layout_order(self, data, schema):
        _, instance = data.draw(scheduled_instances(schema))
        layout = schema.index.marking_layout()
        record = instance_to_dict(instance)
        assert set(record["marking"]) == {"layout", "nodes", "edges"}
        assert record["marking"]["layout"] == layout.checksum

        for payload in (record, json_round_trip(record), keyed_twin(instance)):
            restored = instance_from_dict(payload, lambda name, version: schema)
            marking = restored.marking
            # states *and* dict order: the layout's
            assert list(marking.node_states.items()) == [
                (node_id, instance.marking.node_state(node_id)) for node_id in layout.node_ids
            ]
            assert list(marking.edge_states.items()) == [
                (key, instance.marking.edge_state_key(key)) for key in layout.edge_keys
            ]
            assert restored.history.entries == instance.history.entries
            assert restored.history.reduced() == instance.history.reduced()
            assert restored.data.to_dict() == instance.data.to_dict()
            assert restored.status is instance.status
            assert restored.loop_iterations == instance.loop_iterations
            assert not restored.is_biased
            # on the schema's own layout object, and the arrays are what the names say
            assert marking.layout is layout
            assert list(marking.nodes) == [
                NODE_CODE[instance.marking.node_state(node_id)] for node_id in layout.node_ids
            ]
            assert list(marking.edges) == [
                EDGE_CODE[instance.marking.edge_state_key(key)] for key in layout.edge_keys
            ]
            assert not marking.settled  # no record but a cache write-back says "fix"
            # one canonical serialisation, whatever the record went through
            assert instance_to_dict(restored) == record
            assert restored.state_fingerprint() == instance.state_fingerprint()

    @settings(RELAXED, max_examples=50)
    @given(data=st.data(), schema=codec_schemas)
    def test_record_and_instance_fingerprints_agree(self, data, schema):
        _, instance = data.draw(scheduled_instances(schema))
        activity = data.draw(st.sampled_from(schema.activity_ids()))
        renamed = [ChangeActivityAttributes(activity_id=activity, name="renamed")]
        # a sync edge's condition orders history events: it puts the
        # reduced history (with its values) in the digest
        synced = [
            ParallelInsertActivity(activity=Node(node_id="sync_probe"), parallel_to=activity),
            InsertSyncEdge(source="sync_probe", target=activity),
        ]
        for operations in (renamed, synced):
            change = TypeChange.of(1, operations)
            new_schema = ProcessType(schema.name, schema).release_new_version(change)
            plan = MigrationPlan.compile(schema, new_schema, change)
            assert plan.include_history is (operations is synced)
            expected = plan.fingerprint_of_instance(instance)
            for record in (instance_to_dict(instance), keyed_twin(instance)):
                for payload in (record, json_round_trip(record)):
                    assert plan.fingerprint_of_record(payload) == expected
                    hydrated = instance_from_dict(payload, lambda name, version: schema)
                    assert plan.fingerprint_of_instance(hydrated) == expected

    def test_biased_record_fingerprint_survives_hydration(self, engine):
        schema, instance = biased_order_case(engine)
        change = order_type_change_v2()
        new_schema = ProcessType("online_order", schema).release_new_version(change)
        plan = MigrationPlan.compile(schema, new_schema, change)
        record = instance_to_dict(instance)
        expected = plan.fingerprint_of_record(record, include_bias=True)
        assert expected is not None and plan.fingerprint_of_record(record) is None
        sorted_record = json_round_trip(record)
        assert plan.fingerprint_of_record(sorted_record, include_bias=True) == expected
        hydrated = instance_from_dict(sorted_record, lambda name, version: schema)
        assert (
            plan.fingerprint_of_record(instance_to_dict(hydrated), include_bias=True) == expected
        )
        assert instance_to_dict(hydrated) == record

    def test_keyed_form_is_written_only_when_positions_are_not_reproducible(self, engine):
        schema, biased = biased_order_case(engine)
        assert set(instance_to_dict(biased)["marking"]) == {"node_states", "edge_states"}

        unbiased = engine.create_instance(schema, "plain")
        assert set(instance_to_dict(unbiased)["marking"]) == {"layout", "nodes", "edges"}
        # a marking that lives on other coordinates than the referenced
        # version's (the schema grew under it) is spelled by name
        unbiased.marking.lay_onto(biased.execution_schema.index.marking_layout())
        record = instance_to_dict(unbiased)
        assert set(record["marking"]) == {"node_states", "edge_states"}
        assert "verify_address" in record["marking"]["node_states"]

    def test_a_keyed_marking_naming_what_the_schema_lacks_is_refused(self, engine):
        schema, biased = biased_order_case(engine)
        record = instance_to_dict(biased)
        del record["bias"]  # decoded onto the type schema, which has no verify_address
        with pytest.raises(StorageError, match="does not hold 'verify_address'"):
            instance_from_dict(record, lambda name, version: schema)

    def test_a_marking_stored_against_another_layout_is_refused(self, executed):
        schema = executed.original_schema
        record = instance_to_dict(executed)

        def load(**marking):
            payload = dict(record, marking=dict(record["marking"], **marking))
            return instance_from_dict(payload, lambda name, version: schema)

        assert load().state_fingerprint() == executed.state_fingerprint()
        with pytest.raises(StorageError, match="layout"):
            load(layout="00000000")
        with pytest.raises(StorageError, match="do not fit"):
            load(nodes=record["marking"]["nodes"][:-1])
        with pytest.raises(StorageError, match="do not fit"):
            load(edges=record["marking"]["edges"] + "0")
        with pytest.raises(StorageError, match="unknown marking state code"):
            load(nodes="9" + record["marking"]["nodes"][1:])
        # an equal schema built elsewhere has the same layout; another one does not
        assert online_order_process().index.marking_layout().checksum == (
            record["marking"]["layout"]
        )
        with pytest.raises(StorageError, match="layout"):
            instance_from_dict(record, lambda name, version: loop_process())


class TestStoredHistoryStaysRows:
    def test_stepping_a_hydrated_case_never_materialises_its_history(self, engine):
        schema = online_order_process()
        instance = engine.create_instance(schema, "lazy")
        engine.advance_instance(instance, 2)
        restored = instance_from_dict(
            json_round_trip(instance_to_dict(instance)), lambda name, version: schema
        )
        history = restored.history
        assert not history.materialised
        assert len(history) == 4 and history.last_sequence() == 3

        engine.advance_instance(restored, 2)
        assert not history.materialised  # only record() ran
        assert len(history) == 8 and history.last_sequence() == 7
        record = instance_to_dict(restored)
        assert not history.materialised  # write-back reads rows, builds none
        assert [row[0] for row in record["history"]["rows"]] == list(range(8))

        entries = history.entries  # a reader arrives
        assert history.materialised
        assert [entry.sequence for entry in entries] == list(range(8))
        assert len(history) == 8 and history.last_sequence() == 7
        entry = history.record(HistoryEventType.ACTIVITY_SKIPPED, "x")
        assert entry.sequence == 8 and history.last_sequence() == 8
        assert history.entries[-1] is entry
        assert instance_to_dict(restored)["history"]["rows"][:8] == record["history"]["rows"]

    def test_superseding_stored_rows_never_mutates_the_record(self, engine):
        schema = loop_process(body_length=2, max_iterations=5)
        instance = engine.create_instance(schema, "looping")
        for activity, outputs in (("prepare", {}), ("body_1", {}), ("body_2", {"done": False})):
            engine.complete_activity(instance, activity, outputs)
        twin = instance.clone("twin")
        record = json_round_trip(instance_to_dict(instance))
        frozen = json.dumps(record, sort_keys=True)
        restored = instance_from_dict(record, lambda name, version: schema)
        for case in (restored, twin):  # second iteration loops back again
            engine.complete_activity(case, "body_1")
            engine.complete_activity(case, "body_2", {"done": False})
        assert not restored.history.materialised
        assert json.dumps(record, sort_keys=True) == frozen
        assert restored.history.entries == twin.history.entries
        assert restored.history.reduced() == twin.history.reduced()
        assert instance_to_dict(restored)["history"] == instance_to_dict(twin)["history"]
        # both passes through the body are superseded, stored rows and new entries alike
        assert [e.activity for e in restored.history.reduced()] == [
            "prepare", "prepare", "loop_start_main_1", "loop_start_main_1",
        ]

    def test_old_entry_dicts_still_load(self, executed):
        payload = {"entries": [entry.to_dict() for entry in executed.history.entries]}
        restored = ExecutionHistory.from_dict(json_round_trip(payload))
        assert restored.entries == executed.history.entries
        assert restored.to_dict() == executed.history.to_dict()


class TestStoredRecordRewrites:
    """Evolution rewrites *evicted* records without hydrating them; the
    class template is positional against the new version's layout."""

    def evicted_cases(self, system):
        orders = system.deploy(online_order_process())
        ids = [orders.start().instance_id for _ in range(6)]
        system.step_many(ids, steps=1)
        evicted = [i for i in ids if i not in system.live_instance_ids()]
        assert len(evicted) >= 3
        rewritten = []
        migrate_record = system.store.migrate_record

        def spy(instance_id, *args, **kwargs):
            rewritten.append(instance_id)
            return migrate_record(instance_id, *args, **kwargs)

        system.store.migrate_record = spy
        return orders, ids, evicted, rewritten

    def assert_rewritten_onto_v2(self, system, evicted):
        assert set(evicted).isdisjoint(system.live_instance_ids())
        layout = system.repository.resolve("online_order", 2).index.marking_layout()
        for instance_id in evicted:
            record = system.store.record(instance_id)
            assert record["schema_version"] == 2
            assert record["marking"]["layout"] == layout.checksum
            assert len(record["marking"]["nodes"]) == len(layout.node_ids)
        hydrated = system.get_instance(evicted[0])
        assert list(hydrated.marking.node_states) == list(layout.node_ids)
        assert hydrated.node_state("send_questions") is NodeState.NOT_ACTIVATED
        results = system.step_many(evicted, steps=20)
        assert all(result.status.value == "completed" for result in results)
        assert "send_questions" in system.get_instance(evicted[0]).completed_activities()

    def test_eager_evolve_rewrites_evicted_positional_records(self):
        system = AdeptSystem(cache_instances=2)
        orders, ids, evicted, rewritten = self.evicted_cases(system)
        report = orders.evolve(order_type_change_v2())
        assert report.migrated_count == len(ids)
        assert rewritten  # in place, not by hydrating and writing back
        self.assert_rewritten_onto_v2(system, rewritten)

    def test_sweep_rollout_rewrites_evicted_positional_records(self):
        system = AdeptSystem(cache_instances=2)
        orders, ids, evicted, rewritten = self.evicted_cases(system)
        orders.evolve(order_type_change_v2(), rollout="lazy")
        while system.rollout_of("online_order") is not None:
            if system.sweep_rollout("online_order", max_cases=4) == 0:
                break
        assert system.rollout_status("online_order")["state"] == "completed"
        assert rewritten  # in place, not by hydrating and writing back
        self.assert_rewritten_onto_v2(system, rewritten)
