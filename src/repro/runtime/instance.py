"""Process instances.

A :class:`ProcessInstance` couples a reference to its (type) schema with
all instance-specific information: the marking, the execution history,
the data values, loop iteration counters and — for ad-hoc modified
("biased") instances — the change log and the materialised
instance-specific execution schema.

Unbiased instances never copy their schema; they execute directly on the
referenced type schema, which is exactly the redundancy-free storage
representation of the paper's Fig. 2.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.runtime.data_context import DataContext
from repro.runtime.history import ExecutionHistory
from repro.runtime.markings import Marking
from repro.runtime.states import InstanceStatus, NodeState
from repro.schema.graph import ProcessSchema


class ProcessInstance:
    """One running (or finished) case of a process type.

    Args:
        instance_id: Unique identifier of the instance.
        schema: The process type schema the instance was created on.
        initial_data: Optional initial values for data elements.
    """

    def __init__(
        self,
        instance_id: str,
        schema: ProcessSchema,
        initial_data: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self._bind(
            instance_id,
            schema,
            InstanceStatus.CREATED,
            Marking.initial(schema),
            ExecutionHistory(),
            DataContext(schema),
            {},
        )
        if initial_data:
            for element, value in initial_data.items():
                self.data.write(element, value, writer="<initial>")

    @classmethod
    def restore(
        cls,
        instance_id: str,
        schema: ProcessSchema,
        status: InstanceStatus,
        marking: Marking,
        history: ExecutionHistory,
        data: DataContext,
        loop_iterations: Dict[str, int],
    ) -> "ProcessInstance":
        """An (unbiased) instance holding exactly the given state objects.

        The constructor for state that already exists — hydration from a
        stored record, :meth:`clone` — which builds no initial marking or
        data context only to replace them.  The caller hands over
        ownership of the objects; attach a bias with :meth:`set_bias`.
        """
        instance = cls.__new__(cls)
        instance._bind(instance_id, schema, status, marking, history, data, loop_iterations)
        return instance

    def _bind(
        self,
        instance_id: str,
        schema: ProcessSchema,
        status: InstanceStatus,
        marking: Marking,
        history: ExecutionHistory,
        data: DataContext,
        loop_iterations: Dict[str, int],
    ) -> None:
        """Set every attribute of an instance (shared by both constructors)."""
        if not instance_id:
            raise ValueError("instance_id must be non-empty")
        self.instance_id = instance_id
        self.original_schema = schema
        self.process_type = schema.name
        self.schema_version = schema.version
        self.marking = marking
        self.history = history
        self.data = data
        self.status = status
        self.loop_iterations = loop_iterations
        self.bias: Optional[Any] = None
        self._execution_schema: Optional[ProcessSchema] = None

    # ------------------------------------------------------------------ #
    # schema access
    # ------------------------------------------------------------------ #

    @property
    def execution_schema(self) -> ProcessSchema:
        """The schema the instance actually executes on.

        Unbiased instances run on the referenced type schema; biased
        instances run on their materialised instance-specific schema.
        """
        if self._execution_schema is not None:
            return self._execution_schema
        return self.original_schema

    @property
    def is_biased(self) -> bool:
        """True when ad-hoc changes were applied to this instance."""
        return self.bias is not None and len(self.bias) > 0

    def set_bias(self, bias: Any, execution_schema: ProcessSchema) -> None:
        """Attach an ad-hoc change log and its materialised schema."""
        self.bias = bias
        self._execution_schema = execution_schema

    def clear_bias(self) -> None:
        """Drop the bias (e.g. after it was absorbed into a new type schema)."""
        self.bias = None
        self._execution_schema = None

    def rebind_schema(self, schema: ProcessSchema, execution_schema: Optional[ProcessSchema] = None) -> None:
        """Re-link the instance to a (new) type schema after migration."""
        self.original_schema = schema
        self.schema_version = schema.version
        self.process_type = schema.name
        self._execution_schema = execution_schema

    def install_marking(self, marking: Marking) -> None:
        """Give the case a marking adapted to its (new) execution schema.

        One that reached the end node finishes the case, as the step that
        reaches the end would (a change removed the last pending activity).
        """
        self.marking = marking
        if marking.reached_end(self.execution_schema):
            self.status = InstanceStatus.COMPLETED

    def clone(self, instance_id: Optional[str] = None) -> "ProcessInstance":
        """A deep, independent copy of this instance (same schema references).

        Used by what-if analyses such as planning a partial rollback before
        committing it to the real instance.
        """
        copy = ProcessInstance.restore(
            instance_id or f"{self.instance_id}__clone",
            self.original_schema,
            self.status,
            self.marking.copy(),
            self.history.copy(),
            self.data.copy(),
            dict(self.loop_iterations),
        )
        copy.bias = self.bias
        copy._execution_schema = self._execution_schema
        copy.schema_version = self.schema_version
        copy.process_type = self.process_type
        return copy

    # ------------------------------------------------------------------ #
    # convenience state queries
    # ------------------------------------------------------------------ #

    def state_fingerprint(self) -> str:
        """A stable digest of the complete observable instance state.

        Covers status, schema version, marking, (reduced and full) history,
        data context, loop counters and the recorded bias — two instances
        with the same fingerprint are indistinguishable to every component.
        The recovery tests compare pre-crash and recovered populations with
        this; it is intentionally derived from the canonical serialisation
        so that "equal fingerprint" and "equal persisted record" coincide.
        """
        import hashlib

        from repro import json_codec
        from repro.storage.serialization import instance_to_dict

        payload = json_codec.dumps(instance_to_dict(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def node_state(self, node_id: str) -> NodeState:
        """Current state of a node in the instance marking."""
        return self.marking.node_state(node_id)

    def activated_activities(self) -> list:
        """Activity node ids the user could start right now."""
        schema = self.execution_schema
        return [
            node_id
            for node_id in self.marking.activated_nodes()
            if schema.has_node(node_id) and schema.node(node_id).is_activity
        ]

    def completed_activities(self) -> list:
        """Activity ids completed so far (reduced history order)."""
        return self.history.completed_activities(reduced=True)

    def iteration_of(self, loop_start_id: str) -> int:
        """Current iteration counter of the loop opened by ``loop_start_id``."""
        return self.loop_iterations.get(loop_start_id, 0)

    def progress(self) -> float:
        """Fraction of activities completed or skipped (rough progress measure)."""
        schema = self.execution_schema
        activities = schema.activity_ids()
        if not activities:
            return 1.0
        finished = sum(
            1 for a in activities if self.marking.node_state(a).is_finished
        )
        return finished / len(activities)

    def summary(self) -> str:
        """One-line human readable status summary."""
        return (
            f"{self.instance_id}: {self.process_type} v{self.schema_version} "
            f"[{self.status.value}] progress={self.progress():.0%} "
            f"biased={'yes' if self.is_biased else 'no'}"
        )

    def __repr__(self) -> str:
        return (
            f"ProcessInstance({self.instance_id!r}, type={self.process_type!r}, "
            f"version={self.schema_version}, status={self.status.value})"
        )
