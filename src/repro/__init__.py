"""repro — a reproduction of "Adaptive Process Management with ADEPT2" (ICDE 2005).

An adaptive process-management system in pure Python: block-structured
process schemas (WSM nets) with buildtime verification, an execution
engine with markings / histories / worklists, correctness-preserving
ad-hoc instance changes, schema evolution with compliance-checked
on-the-fly instance migration, hybrid instance storage (substitution
blocks), an organisational model, a simulated distributed runtime and a
monitoring component.

Everything is served by **one** service façade, the
:class:`~repro.system.AdeptSystem` — as in the paper, where a single
process-management service owns schema versioning, execution, ad-hoc
change and migration behind one interface.

Quickstart::

    from repro import AdeptSystem, ChangeSet, DataType, SchemaBuilder

    builder = SchemaBuilder("orders", name="orders")
    builder.data("order", DataType.DOCUMENT)
    builder.activity("receive", role="clerk", writes=["order"])
    builder.activity("ship", role="logistics", reads=["order"])
    schema = builder.build()

    system = AdeptSystem()
    orders = system.deploy(schema)              # -> TypeHandle (verified)
    case = orders.start(customer="jane")        # -> InstanceHandle
    case.complete("receive", outputs={"order": {"item": "chair"}})

    # transactional ad-hoc change: all-or-nothing, one changelog entry
    case.change(comment="needs approval") \\
        .serial_insert("approve", pred="receive", succ="ship", role="manager") \\
        .apply()

    # schema evolution with compliance-checked instance migration
    delta = ChangeSet().serial_insert("invoice", pred="ship", succ="end")
    report = orders.evolve(delta, migrate="compliant")   # -> MigrationReport

    system.bus.subscribe(print)                 # pluggable EventBus
    case.run()                                  # drive to completion

Errors raised by the library share one base class, :class:`ReproError`
(``SchemaError``, ``EngineError``, ``OperationError``,
``AdHocChangeError``, ``MigrationError`` ... are subclasses).

The flat component-level API (``ProcessEngine``, ``MigrationManager``,
``AdHocChanger``, ``InstanceStore``, ...) remains exported for advanced
use and backwards compatibility.  See ``docs/api.md`` for the façade
tour and ``examples/`` for complete scenarios, including the paper's
Fig. 1 and Fig. 3 migration demonstrations.
"""

from repro.schema import (
    DataAccess,
    DataEdge,
    DataElement,
    DataType,
    Edge,
    EdgeType,
    Node,
    NodeType,
    ProcessSchema,
    SchemaBuilder,
    SchemaError,
    SchemaIndex,
    templates,
)
from repro.verification import SchemaVerifier, VerificationReport, verify_schema
from repro.runtime import (
    EdgeState,
    EngineError,
    EventType,
    ExecutionHistory,
    InstanceStatus,
    Marking,
    NodeState,
    ProcessEngine,
    ProcessInstance,
    WorklistManager,
)
from repro.core import (
    AdHocChangeError,
    AdHocChanger,
    AddDataEdge,
    AddDataElement,
    ChangeActivityAttributes,
    ChangeLog,
    ChangeOperation,
    ComplianceChecker,
    ComplianceResult,
    ConditionalInsertActivity,
    Conflict,
    ConflictKind,
    DeleteActivity,
    DeleteDataEdge,
    DeleteDataElement,
    DeleteSyncEdge,
    InsertSyncEdge,
    InstanceMigrationResult,
    MigrationManager,
    MigrationOutcome,
    MigrationReport,
    MoveActivity,
    OperationError,
    ParallelInsertActivity,
    ProcessType,
    SerialInsertActivity,
    StateAdapter,
    SubstitutionBlock,
    TypeChange,
)
from repro.storage import (
    FullCopyRepresentation,
    HybridSubstitutionRepresentation,
    InstanceStore,
    MaterializeOnAccessRepresentation,
    SchemaRepository,
)
from repro.org import OrgModel, OrgUnit, Role, StaffAssignmentResolver, User
from repro.monitoring import EventFeed, InstanceMonitor, render_migration_report, render_schema_ascii
from repro.errors import MigrationError, ReproError
from repro.system import (
    AdeptSystem,
    ChangeResult,
    ChangeSet,
    DeployResult,
    EventBus,
    InstanceHandle,
    PersistenceError,
    PersistentBackend,
    PoolStats,
    RecoveryError,
    RecoveryReport,
    Rollout,
    RolloutSweeper,
    RunResult,
    StepResult,
    SystemEvent,
    TypeHandle,
    VirtualScheduler,
    WorkerPool,
    simulated_latency_worker,
)

__version__ = "1.1.0"

__all__ = [
    # service façade
    "AdeptSystem",
    "ChangeSet",
    "EventBus",
    "SystemEvent",
    "TypeHandle",
    "InstanceHandle",
    "StepResult",
    "RunResult",
    "ChangeResult",
    "DeployResult",
    # durability
    "PersistentBackend",
    "RecoveryReport",
    # concurrency
    "WorkerPool",
    "PoolStats",
    "VirtualScheduler",
    "simulated_latency_worker",
    # progressive rollouts
    "Rollout",
    "RolloutSweeper",
    # error hierarchy
    "ReproError",
    "MigrationError",
    "PersistenceError",
    "RecoveryError",
    # schema
    "Node",
    "NodeType",
    "Edge",
    "EdgeType",
    "DataElement",
    "DataEdge",
    "DataAccess",
    "DataType",
    "ProcessSchema",
    "SchemaBuilder",
    "SchemaError",
    "SchemaIndex",
    "templates",
    # verification
    "SchemaVerifier",
    "VerificationReport",
    "verify_schema",
    # runtime
    "ProcessEngine",
    "ProcessInstance",
    "Marking",
    "ExecutionHistory",
    "NodeState",
    "EdgeState",
    "InstanceStatus",
    "EngineError",
    "EventType",
    "WorklistManager",
    # core change framework
    "ChangeOperation",
    "OperationError",
    "SerialInsertActivity",
    "ParallelInsertActivity",
    "ConditionalInsertActivity",
    "DeleteActivity",
    "MoveActivity",
    "InsertSyncEdge",
    "DeleteSyncEdge",
    "AddDataElement",
    "DeleteDataElement",
    "AddDataEdge",
    "DeleteDataEdge",
    "ChangeActivityAttributes",
    "ChangeLog",
    "SubstitutionBlock",
    "ComplianceChecker",
    "ComplianceResult",
    "Conflict",
    "ConflictKind",
    "StateAdapter",
    "ProcessType",
    "TypeChange",
    "MigrationManager",
    "MigrationOutcome",
    "MigrationReport",
    "InstanceMigrationResult",
    "AdHocChanger",
    "AdHocChangeError",
    # storage
    "SchemaRepository",
    "InstanceStore",
    "FullCopyRepresentation",
    "MaterializeOnAccessRepresentation",
    "HybridSubstitutionRepresentation",
    # org
    "OrgModel",
    "OrgUnit",
    "Role",
    "User",
    "StaffAssignmentResolver",
    # monitoring
    "EventFeed",
    "InstanceMonitor",
    "render_schema_ascii",
    "render_migration_report",
    "__version__",
]
