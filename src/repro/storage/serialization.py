"""Serialisation of process instances (independent of the representation).

The instance store (:mod:`repro.storage.instance_store`) decides how
the *schema* of an instance is persisted; everything else —
marking, history, data context, loop counters, status, bias change log —
is serialised here in one canonical format.

An unbiased instance *references* its schema version and stores only
instance-specific state (paper Fig. 2), so its marking is written
positionally against that version's
:class:`~repro.runtime.kernel.MarkingLayout` — the record never re-spells
the schema's node and edge names.  A biased instance executes on a
private schema that is re-materialised on load in a different element
order, so positions would not be reproducible: its marking keeps the
keyed form.  The choice follows from the instance alone; the two forms
themselves belong to :mod:`repro.runtime.markings`, the history rows to
:mod:`repro.runtime.history`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

from repro.core.changelog import ChangeLog
from repro.errors import ReproError
from repro.runtime.data_context import DataContext
from repro.runtime.history import ExecutionHistory
from repro.runtime.instance import ProcessInstance
from repro.runtime.markings import Marking
from repro.runtime.states import InstanceStatus
from repro.schema.graph import ProcessSchema

SchemaResolver = Callable[[str, int], ProcessSchema]


class StorageError(ReproError):
    """Raised when an instance cannot be stored or loaded."""


def instance_to_dict(instance: ProcessInstance) -> Dict[str, Any]:
    """Serialise the representation-independent part of an instance.

    The canonical form: history rows and data writes as lists.  What
    :func:`~repro.runtime.instance.ProcessInstance.state_fingerprint`
    hashes and what a rollout's pre-state keeps.
    """
    return _payload(instance, instance.history.to_dict(), instance.data.to_dict())


def instance_to_stored(instance: ProcessInstance) -> Dict[str, Any]:
    """:func:`instance_to_dict` in the stored form (snapshot format 3).

    Equal but for the two logs: ``history`` is ``{"rows": <text>,
    "count": <rows>}`` and ``data``'s ``writes`` a text, each the compact
    JSON of the canonical list (:mod:`repro.runtime.stored_log`).  A
    hydrated case reuses the text it was loaded with and encodes only
    what it appended since.

    A log holding a value that is not JSON — only an in-memory system
    holds one; a durable one refuses it before it commits — has no text,
    so that record keeps the canonical lists, which every reader takes.
    """
    try:
        history, data = instance.history.to_stored(), instance.data.to_stored()
    except (TypeError, ValueError):
        history, data = instance.history.to_dict(), instance.data.to_dict()
    return _payload(instance, history, data)


def stored_record(record: Mapping[str, Any]) -> Mapping[str, Any]:
    """A stored record with both logs in the stored form.

    Returns ``record`` itself when it already is; a record written
    before format 3 (log lists, or history entry dicts) is returned as a
    converted copy.  The checkpoint writes every record through this.
    """
    history, data = record.get("history", {}), record.get("data", {})
    if history.get("rows").__class__ is str and data.get("writes", "").__class__ is str:
        return record
    payload = dict(record)
    payload["history"] = ExecutionHistory.from_dict(history).to_stored()
    payload["data"] = DataContext.from_dict(data).to_stored()
    return payload


def _payload(
    instance: ProcessInstance, history: Dict[str, Any], data: Dict[str, Any]
) -> Dict[str, Any]:
    biased = instance.is_biased
    layout = None if biased else instance.original_schema.index.marking_layout()
    payload: Dict[str, Any] = {
        "instance_id": instance.instance_id,
        "process_type": instance.process_type,
        "schema_version": instance.schema_version,
        "status": instance.status.value,
        "marking": instance.marking.to_stored(layout),
        "history": history,
        "data": data,
        "loop_iterations": dict(instance.loop_iterations),
        "biased": biased,
    }
    if isinstance(instance.bias, ChangeLog) and len(instance.bias) > 0:
        payload["bias"] = instance.bias.to_dict()
    return payload


def instance_from_dict(
    payload: Mapping[str, Any],
    schema_resolver: SchemaResolver,
    execution_schema: Optional[ProcessSchema] = None,
) -> ProcessInstance:
    """Reconstruct an instance from :func:`instance_to_dict` or :func:`instance_to_stored` output.

    ``schema_resolver`` maps ``(process_type, version)`` to the referenced
    original schema; ``execution_schema`` is the materialised
    instance-specific schema for biased instances (produced by the
    representation strategy) and may be omitted for unbiased ones.
    """
    original = schema_resolver(payload["process_type"], payload["schema_version"])
    return instance_from_record(payload, original, execution_schema)


def instance_from_record(
    payload: Mapping[str, Any],
    original: ProcessSchema,
    execution_schema: Optional[ProcessSchema] = None,
) -> ProcessInstance:
    """:func:`instance_from_dict` for a caller that already resolved ``original``.

    Raises :class:`StorageError` when the stored marking does not fit the
    schema it would be decoded onto (layout checksum or length mismatch).
    """
    bias: Optional[ChangeLog] = None
    bias_payload = payload.get("bias")
    if bias_payload:
        bias = ChangeLog.from_dict(bias_payload)
        if execution_schema is None:
            execution_schema = bias.apply_to(original, check=False)
            execution_schema.schema_id = f"{original.schema_id}+{payload['instance_id']}"
    executes_on = original if bias is None else execution_schema
    try:
        marking = Marking.from_stored(
            payload.get("marking", {}), executes_on.index.marking_layout()
        )
    except ValueError as exc:
        raise StorageError(
            f"stored marking of instance {payload['instance_id']!r} does not fit "
            f"{payload['process_type']!r} v{payload['schema_version']}: {exc}"
        ) from exc
    instance = ProcessInstance.restore(
        payload["instance_id"],
        original,
        InstanceStatus(payload.get("status", "running")),
        marking,
        ExecutionHistory.from_dict(payload.get("history", {})),
        DataContext.from_dict(payload.get("data", {})),
        dict(payload.get("loop_iterations", {})),
    )
    if bias is not None:
        instance.set_bias(bias, execution_schema)
    return instance
