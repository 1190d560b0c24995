"""The row-backed data context against the eager reference, operation by operation.

``repro.runtime.data_context.DataContext`` keeps a loaded context's stored
``writes`` list as it was read and builds ``DataWrite`` objects only when
something reads them; ``tests/baselines/eager_data_context.EagerDataContext``
is the context it replaced, which builds every object on load.  Both are
driven through the same random sequences — writes, supplies, store round
trips, copies — and must give equal answers and equal stored bytes.  The
store fixtures are the second half: every case of both older-format
stores, loaded and written back, gives the bytes the eager context gives.
"""

import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.storage.serialization as serialization
from repro.runtime.data_context import DataContext
from repro.system import AdeptSystem

from tests.baselines.eager_data_context import EagerDataContext
from tests.storage.test_store_v1_fixture import FIXTURE, FIXTURE_V2

pytestmark = pytest.mark.kernel

ELEMENTS = ["order", "customer", "amount", "done"]
WRITERS = ["get_order", "collect_data", "<initial>", "<supplied>", ""]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"), st.sampled_from(ELEMENTS), json_values,
            st.sampled_from(WRITERS), st.integers(0, 3),
        ),
        st.tuples(st.just("supply"), st.sampled_from(ELEMENTS), json_values, st.none(), st.none()),
        st.tuples(st.just("round_trip"), st.none(), st.none(), st.none(), st.none()),
        st.tuples(st.just("copy"), st.sampled_from(ELEMENTS), json_values, st.none(), st.none()),
    ),
    max_size=30,
)


def as_bytes(context):
    return json.dumps(context.to_dict(), sort_keys=True).encode("utf-8")


def spelled(write):
    return None if write is None else (write.element, write.value, write.writer, write.iteration)


def assert_same_answers(rows, eager):
    assert rows.values == eager.values
    assert [spelled(w) for w in rows.writes] == [spelled(w) for w in eager.writes]
    for element in ELEMENTS + ["never written"]:
        assert rows.get(element, "-") == eager.get(element, "-")
        assert rows.has_value(element) == eager.has_value(element)
        assert rows.writers_of(element) == eager.writers_of(element)
        assert spelled(rows.last_write(element)) == spelled(eager.last_write(element))
    assert as_bytes(rows) == as_bytes(eager)


@settings(max_examples=150, deadline=None)
@given(ops=operations, read_early=st.booleans())
def test_row_backed_and_eager_contexts_agree(ops, read_early):
    rows, eager = DataContext(), EagerDataContext()
    for kind, element, value, writer, iteration in ops:
        if kind == "write":
            rows.write(element, value, writer, iteration)
            eager.write(element, value, writer, iteration)
        elif kind == "supply":
            rows.supply(element, value)
            eager.supply(element, value)
        elif kind == "round_trip":
            # through JSON, as a snapshot file or a WAL record gives it back
            payload = json.loads(json.dumps(rows.to_dict()))
            assert payload == json.loads(json.dumps(eager.to_dict()))
            rows, eager = DataContext.from_dict(payload), EagerDataContext.from_dict(payload)
            if read_early:
                assert_same_answers(rows, eager)
            # stepping on never changes the stored list the context was loaded from
            before = json.dumps(payload, sort_keys=True)
            rows.write("amount", 1, "after_load")
            eager.write("amount", 1, "after_load")
            assert json.dumps(payload, sort_keys=True) == before
        elif kind == "copy":
            original, original_eager = rows, eager
            rows, eager = rows.copy(), eager.copy()
            # independent of what it was copied from, in both directions
            original.write(element, value, "on_the_original")
            original_eager.write(element, value, "on_the_original")
            assert_same_answers(original, original_eager)
            rows.supply(element, value)
            eager.supply(element, value)
        assert_same_answers(rows, eager)


def fixture_records(fixture):
    return json.loads((fixture / "snapshot.json").read_text())["instances"]


@pytest.mark.parametrize("fixture", [FIXTURE, FIXTURE_V2], ids=["store_v1", "store_v2"])
def test_every_fixture_record_round_trips_to_the_eager_bytes(fixture):
    for case_id, record in fixture_records(fixture).items():
        data = record["data"]
        rows, eager = DataContext.from_dict(data), EagerDataContext.from_dict(data)
        assert as_bytes(rows) == as_bytes(eager), case_id
        assert_same_answers(rows, eager)


def written_back(store, monkeypatch, context_class):
    """Every case of ``store``: loaded, written back, as stored bytes."""
    monkeypatch.setattr(serialization, "DataContext", context_class)
    system = AdeptSystem.open(store)
    ids = sorted(set(system.live_instance_ids()) | set(system.stored_instance_ids()))
    out = {}
    for case_id in ids:
        system.store.write_back(system.get_instance(case_id))
        out[case_id] = json.dumps(system.store.record(case_id), sort_keys=True)
    system.close(checkpoint=False)
    return out


@pytest.mark.parametrize("fixture", [FIXTURE, FIXTURE_V2], ids=["store_v1", "store_v2"])
def test_load_and_write_back_of_every_fixture_case_is_byte_identical(
    fixture, tmp_path, monkeypatch
):
    shutil.copytree(fixture, tmp_path / "eager")
    shutil.copytree(fixture, tmp_path / "rows")
    eager = written_back(tmp_path / "eager", monkeypatch, EagerDataContext)
    rows = written_back(tmp_path / "rows", monkeypatch, DataContext)
    assert len(rows) == len(fixture_records(fixture)) + 2  # plus the two the WAL suffix starts
    assert rows == eager
