"""Tests for the CSV / audit-trail export."""

import csv
import io

import pytest

from repro.monitoring.export import (
    change_log_rows,
    engine_event_rows,
    export_history_csv,
    export_population_csv,
    history_rows,
    rows_to_csv,
)


class TestHistoryExport:
    def test_history_rows_cover_all_entries(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "case")
        engine.complete_activity(instance, "get_order", outputs={"order": {"id": 1}})
        rows = history_rows(instance)
        assert len(rows) == len(instance.history)
        assert rows[0]["instance_id"] == "case"
        assert rows[-1]["event"] == "activity_completed"

    def test_reduced_rows_drop_superseded_iterations(self, engine, loop_schema):
        def keep_looping(node, data):
            keep_looping.calls = getattr(keep_looping, "calls", 0) + 1
            if node.node_id == "body_2":
                return {"done": keep_looping.calls > 4}
            return {}

        instance = engine.create_instance(loop_schema, "loop")
        engine.run_to_completion(instance, worker=keep_looping)
        assert len(history_rows(instance, reduced=True)) < len(history_rows(instance, reduced=False))

    def test_csv_is_parseable(self, engine, order_schema):
        instance = engine.create_instance(order_schema, "case")
        engine.run_to_completion(instance)
        text = export_history_csv(instance)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == len(instance.history)
        assert {"activity", "event", "sequence"} <= set(parsed[0].keys())

    def test_population_csv_concatenates(self, engine, order_schema, sequence_schema):
        first = engine.create_instance(order_schema, "a")
        second = engine.create_instance(sequence_schema, "b")
        engine.run_to_completion(first)
        engine.run_to_completion(second)
        text = export_population_csv([first, second])
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert {row["instance_id"] for row in parsed} == {"a", "b"}

    def test_empty_rows_render_empty_string(self):
        assert rows_to_csv([]) == ""


class TestChangeAndEventExport:
    def test_change_log_rows_for_biased_instance(self, fig1):
        rows = change_log_rows(fig1.i2)
        assert len(rows) == len(fig1.i2.bias)
        assert rows[0]["operation"] == "insert_sync_edge"

    def test_change_log_rows_for_unbiased_instance(self, fig1):
        assert change_log_rows(fig1.i1) == []

    def test_engine_event_rows(self, engine, engine_events, order_schema):
        instance = engine.create_instance(order_schema, "case")
        engine.run_to_completion(instance)
        rows = engine_event_rows(engine_events)
        assert len(rows) == len(engine_events)
        assert any(row["event"] == "instance_completed" for row in rows)
