"""Random (but valid) change scenarios.

Produces random type changes ΔT against a schema and random ad-hoc
operations against a running instance.  Operations are generated and then
validated by applying them with ``ChangeLog.apply_to(check=True)``, whose
preconditions and whole-log checks make the changed schema correct by
construction; invalid candidates are discarded and re-drawn, so callers
always receive changes that at least make structural sense — whether an
*instance* is compliant with them is exactly what the compliance
machinery decides.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.core.changelog import ChangeLog
from repro.core.evolution import TypeChange
from repro.core.operations import (
    ChangeActivityAttributes,
    ChangeOperation,
    DeleteActivity,
    InsertSyncEdge,
    OperationError,
    SerialInsertActivity,
)
from repro.runtime.instance import ProcessInstance
from repro.schema.edges import EdgeType
from repro.schema.graph import ProcessSchema, SchemaError
from repro.schema.nodes import Node


class ChangeScenarioGenerator:
    """Draws random valid change operations against a schema."""

    def __init__(self, schema: ProcessSchema, seed: int = 99) -> None:
        self.schema = schema
        self._rng = random.Random(seed)
        self._counter = 0

    # ------------------------------------------------------------------ #
    # building blocks
    # ------------------------------------------------------------------ #

    def random_serial_insert(self, schema: Optional[ProcessSchema] = None) -> Optional[SerialInsertActivity]:
        """A serial insert into a randomly chosen control edge."""
        schema = schema or self.schema
        control_edges = [edge for edge in schema.control_edges()]
        if not control_edges:
            return None
        edge = self._rng.choice(control_edges)
        self._counter += 1
        activity = Node(node_id=f"inserted_{self._counter:03d}", name=f"inserted {self._counter}")
        return SerialInsertActivity(activity=activity, pred=edge.source, succ=edge.target)

    def random_delete(self, schema: Optional[ProcessSchema] = None) -> Optional[DeleteActivity]:
        """Deletion of a randomly chosen deletable activity."""
        schema = schema or self.schema
        candidates = []
        for activity_id in schema.activity_ids():
            operation = DeleteActivity(activity_id=activity_id)
            if not operation.check_preconditions(schema):
                candidates.append(operation)
        if not candidates:
            return None
        return self._rng.choice(candidates)

    def random_sync_insert(self, schema: Optional[ProcessSchema] = None) -> Optional[InsertSyncEdge]:
        """A sync edge between two randomly chosen parallel activities."""
        schema = schema or self.schema
        activities = schema.activity_ids()
        pairs = []
        for source in activities:
            for target in activities:
                if source == target:
                    continue
                operation = InsertSyncEdge(source=source, target=target)
                if not operation.check_preconditions(schema):
                    pairs.append(operation)
        if not pairs:
            return None
        return self._rng.choice(pairs)

    def random_attribute_change(self, schema: Optional[ProcessSchema] = None) -> Optional[ChangeActivityAttributes]:
        """A role/duration change of a randomly chosen activity."""
        schema = schema or self.schema
        activities = schema.activity_ids()
        if not activities:
            return None
        activity_id = self._rng.choice(activities)
        return ChangeActivityAttributes(
            activity_id=activity_id,
            role=self._rng.choice(("clerk", "manager", "specialist")),
            duration=round(self._rng.uniform(0.5, 5.0), 1),
        )

    # ------------------------------------------------------------------ #
    # composed scenarios
    # ------------------------------------------------------------------ #

    def random_type_change(self, operation_count: int = 2, max_attempts: int = 30) -> TypeChange:
        """A ΔT of ``operation_count`` operations yielding a correct schema."""
        for _ in range(max_attempts):
            operations = self._draw_operations(operation_count)
            if not operations:
                continue
            change_log = ChangeLog(operations)
            try:
                change_log.apply_to(self.schema, check=True)
            except (OperationError, SchemaError):
                continue
            return TypeChange(from_version=self.schema.version, operations=change_log)
        # Fall back to the always-valid single serial insert.
        insert = self.random_serial_insert()
        if insert is None:
            raise SchemaError("cannot generate any change operation for this schema")
        return TypeChange(from_version=self.schema.version, operations=ChangeLog([insert]))

    def _draw_operations(self, operation_count: int) -> List[ChangeOperation]:
        operations: List[ChangeOperation] = []
        working = self.schema.copy()
        for _ in range(operation_count):
            kind = self._rng.random()
            operation: Optional[ChangeOperation]
            if kind < 0.5:
                operation = self.random_serial_insert(working)
            elif kind < 0.7:
                operation = self.random_sync_insert(working)
            elif kind < 0.85:
                operation = self.random_delete(working)
            else:
                operation = self.random_attribute_change(working)
            if operation is None:
                continue
            try:
                operation.apply_checked(working)
            except (OperationError, SchemaError):
                continue
            operations.append(operation)
        return operations

    def random_adhoc_operations(self, instance: ProcessInstance) -> List[ChangeOperation]:
        """Operations plausible as an ad-hoc change of ``instance``.

        Prefers inserting a new activity before a not-yet-started activity
        of the instance's execution schema, which is compliant by
        construction for most instance states.
        """
        schema = instance.execution_schema
        not_started = [
            activity_id
            for activity_id in schema.activity_ids()
            if not instance.marking.node_state(activity_id).is_started
        ]
        self._rng.shuffle(not_started)
        for target in not_started:
            predecessors = schema.predecessors(target, EdgeType.CONTROL)
            if not predecessors:
                continue
            self._counter += 1
            activity = Node(
                node_id=f"adhoc_{instance.instance_id}_{self._counter:03d}",
                name=f"ad-hoc step {self._counter}",
            )
            return [SerialInsertActivity(activity=activity, pred=predecessors[0], succ=target)]
        return []
