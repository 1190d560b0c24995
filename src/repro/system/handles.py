"""Handles: addressing types and instances by ID through the façade.

Callers of the façade never pass live :class:`ProcessInstance` or
:class:`ProcessType` objects around.  :meth:`AdeptSystem.deploy` returns
a :class:`TypeHandle`, :meth:`AdeptSystem.start` an
:class:`InstanceHandle`; both are thin, copyable references (system +
id) whose methods delegate to the façade.  A handle stays valid across
save/load cycles and across migrations — it names the case, not a
particular in-memory object.

The underlying objects remain reachable via :attr:`InstanceHandle.raw`
and :attr:`TypeHandle.raw` for advanced/diagnostic use.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Union, TYPE_CHECKING

from repro.core.evolution import ProcessType, TypeChange
from repro.core.migration import MigrationReport
from repro.runtime.instance import ProcessInstance
from repro.runtime.states import InstanceStatus
from repro.schema.graph import ProcessSchema
from repro.system.changes import ChangeSet
from repro.system.results import RunResult, StepResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitoring.monitor import InstanceMonitor
    from repro.system.facade import AdeptSystem


class TypeHandle:
    """Reference to a deployed process type, addressed by its name."""

    def __init__(self, system: "AdeptSystem", type_id: str) -> None:
        self._system = system
        self.type_id = type_id

    # -- inspection ---------------------------------------------------- #

    @property
    def raw(self) -> ProcessType:
        """The underlying :class:`ProcessType` (advanced use)."""
        return self._system.repository.process_type(self.type_id)

    @property
    def versions(self) -> List[int]:
        return self.raw.versions

    @property
    def latest_version(self) -> int:
        return self.raw.latest_version

    def schema(self, version: Optional[int] = None) -> ProcessSchema:
        """A released schema version (latest when ``version`` is omitted)."""
        process_type = self.raw
        if version is None:
            return process_type.latest_schema
        return process_type.schema_for(version)

    def instances(self, version: Optional[int] = None) -> List["InstanceHandle"]:
        """Handles of all live instances of this type (optionally one version)."""
        return self._system.instances_of(self.type_id, version=version)

    # -- operations ---------------------------------------------------- #

    def start(self, case_id: Optional[str] = None, **data: Any) -> "InstanceHandle":
        """Start a new case of this type on the latest schema version."""
        return self._system.start(self.type_id, case_id, **data)

    def evolve(
        self,
        change: Union[TypeChange, ChangeSet, Sequence[Any]],
        migrate: str = "compliant",
        rollout: str = "eager",
        **rollout_options: Any,
    ) -> Any:
        """Release a new schema version and migrate running instances.

        ``rollout="lazy"`` / ``"canary"`` publish the version without
        migrating the population and return the live
        :class:`~repro.system.rollout.Rollout` instead of a report; the
        remaining keyword arguments (``fraction``,
        ``conflict_threshold``, ``min_observations``, ``canary_policy``)
        parameterise the canary — see :meth:`AdeptSystem.evolve`.
        """
        return self._system.evolve(
            self.type_id, change, migrate=migrate, rollout=rollout, **rollout_options
        )

    def rollout(self) -> Optional[Any]:
        """The in-flight progressive rollout of this type (None when idle)."""
        return self._system.rollout_of(self.type_id)

    def rollout_status(self) -> Optional[Dict[str, Any]]:
        """Progress of the active (or last finished) rollout of this type."""
        return self._system.rollout_status(self.type_id)

    def __repr__(self) -> str:
        return f"TypeHandle({self.type_id!r}, versions={self.versions})"


class InstanceHandle:
    """Reference to one case, addressed by its instance id."""

    def __init__(self, system: "AdeptSystem", instance_id: str) -> None:
        self._system = system
        self.instance_id = instance_id

    # -- inspection ---------------------------------------------------- #

    @property
    def raw(self) -> ProcessInstance:
        """The live :class:`ProcessInstance` (advanced use)."""
        return self._system.get_instance(self.instance_id)

    @property
    def status(self) -> InstanceStatus:
        return self.raw.status

    @property
    def type_id(self) -> str:
        return self.raw.process_type

    @property
    def version(self) -> int:
        """The schema version the case currently runs on."""
        return self.raw.schema_version

    @property
    def is_biased(self) -> bool:
        """True when the case carries ad-hoc modifications."""
        return self.raw.is_biased

    def activated(self) -> List[str]:
        """Activity ids the user could start right now."""
        return self._system.activated(self.instance_id)

    def completed_activities(self) -> List[str]:
        return self.raw.completed_activities()

    def data(self, element: Optional[str] = None) -> Any:
        """Current data values (or one element's value)."""
        values = self.raw.data.values
        if element is None:
            return dict(values)
        return values.get(element)

    def monitor(self) -> "InstanceMonitor":
        """A monitoring view of the case."""
        return self._system.monitor(self.instance_id)

    # -- execution ----------------------------------------------------- #

    def start_activity(self, activity_id: str, user: Optional[str] = None) -> StepResult:
        return self._system.start_activity(self.instance_id, activity_id, user=user)

    def complete(
        self,
        activity_id: str,
        outputs: Optional[Mapping[str, Any]] = None,
        user: Optional[str] = None,
    ) -> StepResult:
        """Complete an activity of this case."""
        return self._system.complete(self.instance_id, activity_id, outputs=outputs, user=user)

    def run(self, max_steps: int = 10000) -> RunResult:
        """Drive the case to completion with generated activity outputs."""
        return self._system.run(self.instance_id, max_steps=max_steps)

    def abort(self) -> None:
        self._system.abort(self.instance_id)

    # -- change / persistence ------------------------------------------ #

    def change(self, comment: str = "") -> ChangeSet:
        """A fluent :class:`ChangeSet` targeting this case."""
        return self._system.change(self.instance_id, comment=comment)

    def save(self):
        """Persist the case through the instance store."""
        return self._system.save(self.instance_id)

    def __repr__(self) -> str:
        return f"InstanceHandle({self.instance_id!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, InstanceHandle) and other.instance_id == self.instance_id

    def __hash__(self) -> int:
        return hash(("InstanceHandle", self.instance_id))
