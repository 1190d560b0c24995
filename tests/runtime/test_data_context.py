"""Unit tests for the per-instance data context."""

import pytest

from repro.runtime.data_context import DataContext, DataWrite
from repro.schema import templates


class TestInitialValues:
    def test_defaults_loaded_from_schema(self):
        schema = templates.patient_treatment_process()
        context = DataContext(schema)
        assert context.get("cured") is False
        assert not context.has_value("diagnosis")

    def test_empty_context(self):
        context = DataContext()
        assert context.values == {}
        assert context.get("anything") is None


class TestWrites:
    def test_write_and_read(self):
        context = DataContext()
        context.write("x", 42, writer="a")
        assert context.get("x") == 42
        assert context.has_value("x")

    def test_write_history_tracked(self):
        context = DataContext()
        context.write("x", 1, writer="a")
        context.write("x", 2, writer="b", iteration=1)
        assert context.writers_of("x") == ["a", "b"]
        last = context.last_write("x")
        assert last.value == 2 and last.writer == "b" and last.iteration == 1

    def test_last_write_missing(self):
        assert DataContext().last_write("x") is None

    def test_supply_marks_writer(self):
        context = DataContext()
        context.supply("x", "manual value")
        assert context.get("x") == "manual value"
        assert context.writers_of("x") == ["<supplied>"]

    def test_values_snapshot_is_a_copy(self):
        context = DataContext()
        context.write("x", 1, writer="a")
        snapshot = context.values
        snapshot["x"] = 999
        assert context.get("x") == 1


class TestCopySerialize:
    def test_copy_is_independent(self):
        context = DataContext()
        context.write("x", 1, writer="a")
        clone = context.copy()
        clone.write("x", 2, writer="b")
        assert context.get("x") == 1
        assert clone.get("x") == 2

    def test_roundtrip(self):
        context = DataContext()
        context.write("x", {"nested": True}, writer="a", iteration=2)
        restored = DataContext.from_dict(context.to_dict())
        assert restored.get("x") == {"nested": True}
        assert restored.last_write("x").iteration == 2


class TestWriteIsATuple:
    """``DataWrite`` is a named tuple: same fields, order and default."""

    def test_a_write_is_a_tuple_of_its_fields_in_order(self):
        write = DataWrite("x", 1, "a")
        assert isinstance(write, tuple)
        assert DataWrite._fields == ("element", "value", "writer", "iteration")
        assert write == ("x", 1, "a", 0)

    def test_replace_and_asdict(self):
        write = DataWrite(element="x", value=1, writer="a", iteration=2)
        assert write._replace(value=5) == ("x", 5, "a", 2)
        assert write._asdict() == {"element": "x", "value": 1, "writer": "a", "iteration": 2}

    def test_recorded_writes_round_trip_through_both_forms(self):
        context = DataContext()
        context.write("x", {"nested": [1]}, writer="a", iteration=1)
        context.supply("y", "z")
        expected = [DataWrite("x", {"nested": [1]}, "a", 1), DataWrite("y", "z", "<supplied>", 0)]
        assert context.writes == expected
        for payload in (context.to_dict(), context.to_stored()):
            restored = DataContext.from_dict(payload)
            assert restored.writes == expected
            assert restored.last_write("x") == expected[0]
            assert restored.to_stored() == context.to_stored()
