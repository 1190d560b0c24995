#!/usr/bin/env python3
"""Container transportation under distributed process control.

Models the container-transport application the paper cites (Bassil et
al., BPM'04): the process is partitioned over a dispatcher server, a
customs server and a carrier server.  The schema is deployed into one
:class:`AdeptSystem`; the distributed coordinator runs on the system's
engine, so every execution and migration event also flows through the
system event bus.  The example executes cases under distributed control
(counting control hand-overs), applies an ad-hoc change on one case, and
finally evolves the process type — demonstrating that compliance
checking and migration work unchanged when control is distributed, with
the communication cost made explicit.

Run with ``python examples/container_transport_distributed.py``.
"""

try:  # installed package, or the caller already set PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # fresh checkout: fall back to the in-tree sources
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import AdeptSystem, Node, SerialInsertActivity, TypeChange
from repro.paper.distributed import DistributedCoordinator, SchemaPartitioning
from repro.schema import templates


def main() -> None:
    system = AdeptSystem()
    # the closing event count includes the per-step engine events
    system.bus.subscribe(system.feed, categories=["engine"])
    transport = system.deploy(templates.container_transport_process())
    schema = transport.schema()
    partitioning = SchemaPartitioning.by_role(
        schema,
        role_to_server={
            "dispatcher": "dispatch-server",
            "customs": "customs-server",
            "carrier": "carrier-server",
        },
        default_server="dispatch-server",
    )
    coordinator = DistributedCoordinator(partitioning, engine=system.engine)

    print("=== partitioning ===")
    for server_id in partitioning.servers():
        print(f"  {server_id}: {', '.join(partitioning.activities_of(server_id))}")
    print(f"  cross-server control edges: {len(partitioning.handover_edges())}")
    print()

    print("=== distributed execution of three cases ===")
    cases = [coordinator.create_instance(f"container-{index}") for index in range(3)]
    for case in cases:
        system.adopt_instance(case)  # cases stay addressable by handle
    for case in cases[:2]:
        coordinator.run_to_completion(case)
    # the third case stays in flight so it can be changed and migrated
    coordinator.complete_activity(cases[2], "register_booking")
    print(coordinator.costs.summary())
    for line in coordinator.server_summaries():
        print(" ", line)
    print()

    print("=== ad-hoc change on the in-flight case ===")
    inspection = Node(node_id="extra_inspection", name="extra inspection", staff_assignment="customs")
    coordinator.apply_adhoc_change(
        cases[2],
        [SerialInsertActivity(activity=inspection, pred="clear_customs",
                              succ=cases[2].execution_schema.successors("clear_customs")[0])],
        comment="random customs inspection",
    )
    print("case container-2 biased:", system.instance("container-2").is_biased)
    print(coordinator.costs.summary())
    print()

    print("=== schema evolution under distributed control ===")
    notify = Node(node_id="notify_consignee", name="notify consignee", staff_assignment="dispatcher")
    type_change = TypeChange.of(
        1,
        [SerialInsertActivity(activity=notify, pred=schema.predecessors("deliver_container")[0],
                              succ="deliver_container")],
        comment="V2: consignee notification required by new regulation",
    )
    report = coordinator.migrate_instances(transport.raw, type_change, cases)
    print(report.summary())
    print()
    print(coordinator.costs.summary())
    print()

    print("=== the migrated in-flight case finishes on V2 ===")
    coordinator.run_to_completion(cases[2])
    handle = system.instance("container-2")
    print(f"container-2 finished on V{handle.version}: "
          f"{', '.join(handle.completed_activities())}")
    print()
    print("events on the system bus:", system.feed.category_counts())


if __name__ == "__main__":
    main()
