"""Unit tests for execution histories (traces)."""

import pytest

from repro.runtime.history import ExecutionHistory, HistoryEntry, HistoryEventType


class TestRecording:
    def test_sequence_numbers_increase(self):
        history = ExecutionHistory()
        first = history.record(HistoryEventType.ACTIVITY_STARTED, "a")
        second = history.record(HistoryEventType.ACTIVITY_COMPLETED, "a", values={"x": 1})
        assert first.sequence == 0
        assert second.sequence == 1
        assert len(history) == 2

    def test_values_and_user_recorded(self):
        history = ExecutionHistory()
        entry = history.record(
            HistoryEventType.ACTIVITY_COMPLETED, "a", values={"x": 5}, user="alice"
        )
        assert entry.values == {"x": 5}
        assert entry.user == "alice"


class TestQueries:
    def make_history(self):
        history = ExecutionHistory()
        history.record(HistoryEventType.ACTIVITY_STARTED, "a")
        history.record(HistoryEventType.ACTIVITY_COMPLETED, "a")
        history.record(HistoryEventType.ACTIVITY_STARTED, "b")
        history.record(HistoryEventType.ACTIVITY_COMPLETED, "b", values={"out": 1})
        history.record(HistoryEventType.ACTIVITY_SKIPPED, "c")
        return history

    def test_completed_activities_in_order(self):
        assert self.make_history().completed_activities() == ["a", "b"]

    def test_started_activities(self):
        assert self.make_history().started_activities() == ["a", "b"]

    def test_entries_for_activity(self):
        history = self.make_history()
        assert len(history.entries_for("a")) == 2
        assert len(history.entries_for("c")) == 1
        assert history.has_entries_for("a")
        assert not history.has_entries_for("z")

    def test_written_values(self):
        assert self.make_history().written_values("out") == [1]

    def test_last_sequence(self):
        assert self.make_history().last_sequence() == 4
        assert ExecutionHistory().last_sequence() == -1


class TestLoopReduction:
    def test_supersede_marks_entries(self):
        history = ExecutionHistory()
        history.record(HistoryEventType.ACTIVITY_COMPLETED, "body")
        flagged = history.supersede_activities(["body"])
        assert flagged == 1
        assert history.entries[0].superseded
        assert history.reduced() == []

    def test_supersede_only_touches_given_activities(self):
        history = ExecutionHistory()
        history.record(HistoryEventType.ACTIVITY_COMPLETED, "outside")
        history.record(HistoryEventType.ACTIVITY_COMPLETED, "body")
        history.supersede_activities(["body"])
        assert [e.activity for e in history.reduced()] == ["outside"]

    def test_reduced_keeps_latest_iteration(self):
        history = ExecutionHistory()
        history.record(HistoryEventType.ACTIVITY_COMPLETED, "body", iteration=0)
        history.supersede_activities(["body"])
        history.record(HistoryEventType.ACTIVITY_COMPLETED, "body", iteration=1)
        reduced = history.reduced()
        assert len(reduced) == 1
        assert reduced[0].iteration == 1
        # the full history still contains both
        assert len(history.entries_for("body", reduced=False)) == 2

    def test_completed_activities_reduced_vs_full(self):
        history = ExecutionHistory()
        history.record(HistoryEventType.ACTIVITY_COMPLETED, "body")
        history.supersede_activities(["body"])
        history.record(HistoryEventType.ACTIVITY_COMPLETED, "body")
        assert history.completed_activities(reduced=True) == ["body"]
        assert history.completed_activities(reduced=False) == ["body", "body"]


class TestSerialization:
    def test_roundtrip(self):
        history = ExecutionHistory()
        history.record(HistoryEventType.ACTIVITY_STARTED, "a", values={"in": 2}, user="bob")
        history.record(HistoryEventType.ACTIVITY_COMPLETED, "a", iteration=1)
        history.supersede_activities(["a"])
        restored = ExecutionHistory.from_dict(history.to_dict())
        assert len(restored) == 2
        assert restored.entries[0].values == {"in": 2}
        assert restored.entries[1].superseded

    def test_entry_roundtrip(self):
        entry = HistoryEntry(
            sequence=3,
            event=HistoryEventType.ACTIVITY_COMPLETED,
            activity="a",
            iteration=2,
            values={"x": True},
            user="carol",
        )
        assert HistoryEntry.from_dict(entry.to_dict()) == entry

    def test_copy_is_independent(self):
        history = ExecutionHistory()
        history.record(HistoryEventType.ACTIVITY_STARTED, "a")
        clone = history.copy()
        clone.record(HistoryEventType.ACTIVITY_COMPLETED, "a")
        assert len(history) == 1
        assert len(clone) == 2


class TestEntryIsATuple:
    """``HistoryEntry`` is a named tuple: same fields, order and defaults."""

    def _entry(self, **fields):
        base = dict(sequence=3, event=HistoryEventType.ACTIVITY_COMPLETED, activity="a")
        base.update(fields)
        return HistoryEntry(**base)

    def test_an_entry_is_a_tuple_of_its_fields_in_order(self):
        entry = self._entry(iteration=2, values={"x": 1}, user="carol", timestamp=3)
        assert isinstance(entry, tuple)
        assert HistoryEntry._fields == (
            "sequence", "event", "activity", "iteration", "values", "user", "superseded",
            "timestamp",
        )
        assert entry == (3, HistoryEventType.ACTIVITY_COMPLETED, "a", 2, {"x": 1}, "carol", False, 3)

    def test_replace_and_asdict(self):
        entry = self._entry(user="carol")
        assert entry._replace(user="dave").user == "dave"
        assert entry.user == "carol"
        assert entry._asdict()["activity"] == "a"
        assert list(entry._asdict()) == list(HistoryEntry._fields)

    def test_mark_superseded_is_replace(self):
        entry = self._entry(values={"x": 1})
        assert entry.mark_superseded() == entry._replace(superseded=True)
        assert entry.mark_superseded().superseded and not entry.superseded

    def test_the_default_values_are_read_only(self):
        entry = self._entry()
        assert entry.values == {}
        with pytest.raises(TypeError):
            entry.values["x"] = 1
        assert self._entry().values == {}

    def test_a_recorded_entry_owns_its_values(self):
        history = ExecutionHistory()
        entry = history.record(HistoryEventType.ACTIVITY_STARTED, "a")
        entry.values["x"] = 1  # a fresh dict, not the shared default
        assert history.record(HistoryEventType.ACTIVITY_STARTED, "b").values == {}

    @pytest.mark.parametrize("superseded", [False, True])
    def test_row_and_dict_round_trips(self, superseded):
        entry = self._entry(iteration=1, values={"x": [1, 2]}, user="bob", superseded=superseded)
        assert HistoryEntry.from_row(entry.to_row()) == entry
        assert HistoryEntry.from_dict(entry.to_dict()) == entry
        assert entry.to_row() == [3, 1, "a", 1, {"x": [1, 2]}, "bob", int(superseded), 0]
        assert HistoryEntry.from_dict({"sequence": 0, "event": "activity_started", "activity": "a"}) == (
            0, HistoryEventType.ACTIVITY_STARTED, "a", 0, {}, None, False, 0,
        )
