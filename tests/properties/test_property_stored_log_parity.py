"""Text-backed logs against row-backed ones, operation by operation.

A stored case keeps its history rows and data writes as compact JSON
text (``ExecutionHistory.to_stored`` / ``DataContext.to_stored``), and a
hydrated case keeps that text as its stored prefix until something reads
it.  The oracle: three histories driven through the same random sequence
— one never stored, one whose store round trips go through the row list
(``to_dict``, the form of snapshot formats 1 and 2) and one whose go
through the text — give the same answers, the same ``to_dict`` bytes,
and stored text that decodes to exactly the canonical rows; the text
data context does the same against the eager reference
(``tests/baselines/eager_data_context.py``).  The decode guard pins the
point of the form: hydrating a stored case, stepping it and writing it
back decodes nothing.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import stored_log
from repro.runtime.data_context import DataContext
from repro.runtime.history import ExecutionHistory, HistoryEventType
from repro.schema import templates
from repro.system import AdeptSystem
from repro.workloads.schema_generator import RandomSchemaGenerator, SchemaGeneratorConfig

from tests.baselines.eager_data_context import EagerDataContext

pytestmark = pytest.mark.kernel

# a name that needs escaping, and one that is a prefix of another
ACTIVITIES = ["a", "ab", "body", 'q"x', "é"]
ELEMENTS = ["order", "amount", "done"]
WRITERS = ["get_order", "<initial>", "<supplied>", ""]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)

history_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("record"), st.sampled_from(list(HistoryEventType)),
            st.sampled_from(ACTIVITIES), st.integers(0, 3),
            st.dictionaries(st.sampled_from(ELEMENTS), json_values, max_size=2),
        ),
        st.tuples(
            st.just("supersede"), st.lists(st.sampled_from(ACTIVITIES), max_size=3),
            st.none(), st.none(), st.none(),
        ),
        st.tuples(st.just("copy"), st.sampled_from(ACTIVITIES), st.none(), st.none(), st.none()),
        st.tuples(st.just("round_trip"), st.none(), st.none(), st.none(), st.none()),
        st.tuples(st.just("write_back"), st.none(), st.none(), st.none(), st.none()),
    ),
    max_size=30,
)


def through_json(payload):
    return json.loads(json.dumps(payload))


def canonical_bytes(log):
    return json.dumps(log.to_dict(), sort_keys=True)


def history_answers(history):
    return {
        "entries": history.entries,
        "reduced": history.reduced(),
        "reduced_rows": history.reduced_rows(),
        "completed": history.completed_activities(),
        "completed_full": history.completed_activities(reduced=False),
        "started": history.started_activities(),
        "for": {a: history.entries_for(a) for a in ACTIVITIES},
        "written": {e: history.written_values(e) for e in ELEMENTS},
        "last": history.last_sequence(),
        "length": len(history),
        "bytes": canonical_bytes(history),
    }


def assert_stored_text_is_canonical(text_history, reference):
    """The stored form decodes to the reference's canonical rows, repeatably."""
    stored = text_history.to_stored()
    assert stored == text_history.to_stored()  # a repeated write-back is the same
    rows = reference.to_dict()["rows"]
    assert stored["count"] == len(rows)
    assert json.loads(stored["rows"]) == rows
    assert stored["rows"] == stored_log.encode(rows)


@settings(max_examples=200, deadline=None)
@given(ops=history_ops, read_early=st.booleans())
def test_text_backed_history_equals_row_backed_and_never_stored(ops, read_early):
    plain, rows, text = ExecutionHistory(), ExecutionHistory(), ExecutionHistory()
    for kind, first, second, third, fourth in ops:
        if kind == "record":
            for history in (plain, rows, text):
                history.record(first, second, iteration=third, values=fourth)
        elif kind == "supersede":
            flagged = {history.supersede_activities(first) for history in (plain, rows, text)}
            assert len(flagged) == 1
        elif kind == "copy":
            originals = (plain, rows, text)
            plain, rows, text = plain.copy(), rows.copy(), text.copy()
            # the copies are independent of what they were copied from
            for history in originals:
                history.record(HistoryEventType.ACTIVITY_STARTED, first)
                history.supersede_activities([first])
            assert canonical_bytes(originals[1]) == canonical_bytes(originals[0])
            assert canonical_bytes(originals[2]) == canonical_bytes(originals[0])
        elif kind == "round_trip":
            rows = ExecutionHistory.from_dict(through_json(rows.to_dict()))
            stored = through_json(text.to_stored())
            text = ExecutionHistory.from_dict(stored)
            # stepping on never changes the record the history was loaded from
            frozen = json.dumps(stored, sort_keys=True)
            for history in (plain, rows, text):
                history.record(HistoryEventType.ACTIVITY_COMPLETED, "body", values={"done": 1})
            assert json.dumps(stored, sort_keys=True) == frozen
        elif kind == "write_back":
            text.to_stored()
        assert_stored_text_is_canonical(text, plain)
        if read_early:
            assert history_answers(text) == history_answers(plain)
    assert history_answers(rows) == history_answers(plain)
    assert history_answers(text) == history_answers(plain)
    assert_stored_text_is_canonical(text, plain)


data_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"), st.sampled_from(ELEMENTS), json_values,
            st.sampled_from(WRITERS), st.integers(0, 3),
        ),
        st.tuples(st.just("supply"), st.sampled_from(ELEMENTS), json_values, st.none(), st.none()),
        st.tuples(st.just("copy"), st.sampled_from(ELEMENTS), json_values, st.none(), st.none()),
        st.tuples(st.just("round_trip"), st.none(), st.none(), st.none(), st.none()),
        st.tuples(st.just("write_back"), st.none(), st.none(), st.none(), st.none()),
    ),
    max_size=30,
)


def data_answers(context):
    return {
        "values": context.values,
        "writes": [(w.element, w.value, w.writer, w.iteration) for w in context.writes],
        "get": {e: context.get(e, "-") for e in ELEMENTS},
        "has": {e: context.has_value(e) for e in ELEMENTS},
        "writers": {e: context.writers_of(e) for e in ELEMENTS},
        "last": {
            e: None if w is None else (w.element, w.value, w.writer, w.iteration)
            for e, w in ((e, context.last_write(e)) for e in ELEMENTS)
        },
        "bytes": canonical_bytes(context),
    }


@settings(max_examples=200, deadline=None)
@given(ops=data_ops, read_early=st.booleans())
def test_text_backed_data_context_equals_the_eager_reference(ops, read_early):
    text, eager = DataContext(), EagerDataContext()
    for kind, element, value, writer, iteration in ops:
        if kind == "write":
            text.write(element, value, writer, iteration)
            eager.write(element, value, writer, iteration)
        elif kind == "supply":
            text.supply(element, value)
            eager.supply(element, value)
        elif kind == "copy":
            original, original_eager = text, eager
            text, eager = text.copy(), eager.copy()
            original.write(element, value, "on_the_original")
            original_eager.write(element, value, "on_the_original")
            assert data_answers(original) == data_answers(original_eager)
        elif kind == "round_trip":
            stored = through_json(text.to_stored())
            assert stored == through_json(eager.to_stored())
            text, eager = DataContext.from_dict(stored), EagerDataContext.from_dict(stored)
        elif kind == "write_back":
            assert text.to_stored() == text.to_stored()
        stored = text.to_stored()
        assert json.loads(stored["writes"]) == eager.to_dict()["writes"]
        assert stored["writes"] == stored_log.encode(eager.to_dict()["writes"])
        if read_early:
            assert data_answers(text) == data_answers(eager)
    assert data_answers(text) == data_answers(eager)


def batch_schema():
    config = SchemaGeneratorConfig(target_activities=44, loop_probability=0.0)
    return RandomSchemaGenerator(config, seed=7).generate("batch_type")


@pytest.mark.parametrize("schema", [batch_schema(), templates.online_order_process()],
                         ids=["batch", "online_order"])
@pytest.mark.parametrize("steps", [1, 3])
def test_hydrate_step_and_write_back_decode_nothing(schema, steps, tmp_path, monkeypatch):
    system = AdeptSystem.open(str(tmp_path / "store"), cache_instances=1)
    system.deploy(schema)
    case_id = system.start(schema.name, case_id="case").instance_id
    system.step_many([case_id], steps=2)
    system.start(schema.name, case_id="other")  # evicts the case: its record is stored text
    assert case_id not in system.live_instance_ids()
    before = system.store.record(case_id)
    decodes = []
    decode = stored_log.decode

    def counted(text):
        decodes.append(text)
        return decode(text)

    monkeypatch.setattr(stored_log, "decode", counted)
    instance = system.get_instance(case_id)
    system.step_many([case_id], steps=steps)
    system.store.write_back(instance)
    after = system.store.record(case_id)
    assert decodes == []
    monkeypatch.undo()
    # the write-back spliced the new rows onto the stored text it was loaded with
    canonical = system.get_instance(case_id).history.to_dict()["rows"]
    assert after["history"]["rows"].startswith(before["history"]["rows"][:-1])
    assert after["history"]["count"] == len(canonical) > before["history"]["count"]
    assert json.loads(after["history"]["rows"]) == canonical
    assert json.loads(after["data"]["writes"]) == instance.data.to_dict()["writes"]
    system.close(checkpoint=False)
