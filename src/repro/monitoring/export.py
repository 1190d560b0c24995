"""Export of execution data for external analysis (audit trails, process mining).

Adaptive PAIS produce two kinds of logs external tools care about: the
per-instance execution history (who did what, when, with which data) and
the change log (which ad-hoc deviations and migrations happened).  This
module renders both as CSV text and as plain dictionaries so they can be
fed to spreadsheet tools or process-mining pipelines.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, Iterable, List, Sequence

from repro.core.changelog import ChangeLog
from repro.runtime.events import EngineEvent
from repro.runtime.instance import ProcessInstance


def history_rows(instance: ProcessInstance, reduced: bool = False) -> List[Dict[str, object]]:
    """The instance's history as a list of flat dictionaries (one per entry)."""
    entries = instance.history.reduced() if reduced else instance.history.entries
    rows: List[Dict[str, object]] = []
    for entry in entries:
        rows.append(
            {
                "instance_id": instance.instance_id,
                "process_type": instance.process_type,
                "schema_version": instance.schema_version,
                "sequence": entry.sequence,
                "event": entry.event.value,
                "activity": entry.activity,
                "iteration": entry.iteration,
                "user": entry.user or "",
                "superseded": entry.superseded,
                "values": repr(dict(entry.values)) if entry.values else "",
            }
        )
    return rows


def population_history_rows(
    instances: Iterable[ProcessInstance], reduced: bool = False
) -> List[Dict[str, object]]:
    """Concatenated history rows of several instances (an event log)."""
    rows: List[Dict[str, object]] = []
    for instance in instances:
        rows.extend(history_rows(instance, reduced=reduced))
    return rows


def change_log_rows(instance: ProcessInstance) -> List[Dict[str, object]]:
    """The instance's bias (ad-hoc operations) as flat dictionaries."""
    if not isinstance(instance.bias, ChangeLog) or not instance.bias:
        return []
    rows: List[Dict[str, object]] = []
    for position, operation in enumerate(instance.bias, start=1):
        rows.append(
            {
                "instance_id": instance.instance_id,
                "position": position,
                "operation": operation.operation_name,
                "description": operation.describe(),
            }
        )
    return rows


def engine_event_rows(events: Iterable[EngineEvent]) -> List[Dict[str, object]]:
    """Engine events as flat dictionaries, e.g. those an engine's listener collected."""
    return [
        {
            "event": event.event_type.value,
            "instance_id": event.instance_id or "",
            "node_id": event.node_id or "",
            "user": event.user or "",
            "details": event.details or "",
        }
        for event in events
    ]


def rows_to_csv(rows: Sequence[Dict[str, object]]) -> str:
    """Render a list of flat dictionaries as CSV text (header included)."""
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def export_history_csv(instance: ProcessInstance, reduced: bool = False) -> str:
    """One instance's history as CSV text."""
    return rows_to_csv(history_rows(instance, reduced=reduced))


def export_population_csv(instances: Iterable[ProcessInstance], reduced: bool = False) -> str:
    """A whole population's histories as one CSV event log."""
    return rows_to_csv(population_history_rows(instances, reduced=reduced))
