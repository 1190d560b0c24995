"""Runtime components of the ADEPT2 reproduction.

The runtime executes process instances on verified schemas: it manages
node and edge markings, activity state transitions, loop iterations,
data values, execution histories and worklists.  Ad-hoc changes and
instance migrations (:mod:`repro.core`) operate on the objects defined
here.
"""

from repro.runtime.states import EdgeState, InstanceStatus, NodeState
from repro.runtime.markings import Marking
from repro.runtime.history import ExecutionHistory, HistoryEntry, HistoryEventType
from repro.runtime.data_context import DataContext
from repro.runtime.instance import ProcessInstance
from repro.runtime.engine import (
    EngineError,
    InstanceIdInUseError,
    JoinSignalConflictError,
    ProcessEngine,
    PropagationLimitError,
)
from repro.runtime.kernel import MarkingLayout, StepKernel
from repro.runtime.worklist import WorkItem, WorkItemState, WorklistManager
from repro.runtime.events import EngineEvent, EventType
from repro.runtime.expressions import ExpressionError, evaluate_condition

__all__ = [
    "EdgeState",
    "InstanceStatus",
    "NodeState",
    "Marking",
    "MarkingLayout",
    "StepKernel",
    "InstanceIdInUseError",
    "JoinSignalConflictError",
    "PropagationLimitError",
    "ExecutionHistory",
    "HistoryEntry",
    "HistoryEventType",
    "DataContext",
    "ProcessInstance",
    "EngineError",
    "ProcessEngine",
    "WorkItem",
    "WorkItemState",
    "WorklistManager",
    "EngineEvent",
    "EventType",
    "ExpressionError",
    "evaluate_condition",
]
