"""The distributed coordinator: executing and changing partitioned processes.

The coordinator wraps the (centralised) engine: execution semantics are
identical, but every activity completion is attributed to the server that
controls the activity, control transfers between servers are counted as
hand-over messages, and dynamic changes (ad-hoc changes, type-change
migrations) generate change-propagation messages to every server whose
partition is affected — demonstrating that the change framework works
unchanged under distributed process control, with the communication cost
made explicit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.core.adhoc import AdHocChangeResult, AdHocChanger
from repro.core.changelog import ChangeLog
from repro.core.evolution import ProcessType, TypeChange
from repro.core.migration import MigrationManager, MigrationReport
from repro.core.operations import ChangeOperation
from repro.paper.distributed.costs import CommunicationCosts
from repro.paper.distributed.partitioning import SchemaPartitioning
from repro.paper.distributed.servers import ProcessServer
from repro.runtime.engine import ProcessEngine, Worker
from repro.runtime.instance import ProcessInstance


class DistributedCoordinator:
    """Runs instances over a partitioned schema and tracks communication."""

    def __init__(
        self,
        partitioning: SchemaPartitioning,
        engine: Optional[ProcessEngine] = None,
    ) -> None:
        partitioning.validate()
        self.partitioning = partitioning
        self.engine = engine or ProcessEngine()
        self.costs = CommunicationCosts()
        self.servers: Dict[str, ProcessServer] = {
            server_id: ProcessServer(
                server_id=server_id,
                controlled_activities=set(partitioning.activities_of(server_id)),
            )
            for server_id in partitioning.servers()
        }
        self._current_server: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def create_instance(self, instance_id: str, initial_data=None) -> ProcessInstance:
        """Create an instance of the partitioned schema."""
        instance = self.engine.create_instance(
            self.partitioning.schema, instance_id, initial_data=initial_data
        )
        self._current_server[instance_id] = self._first_server()
        return instance

    def complete_activity(
        self,
        instance: ProcessInstance,
        activity_id: str,
        outputs=None,
        user: Optional[str] = None,
    ) -> None:
        """Complete an activity, accounting for the controlling server."""
        server_id = self._server_for(instance, activity_id)
        server = self.servers[server_id]
        previous = self._current_server.get(instance.instance_id, server_id)
        if previous != server_id:
            self.costs.add_handover()
            self.servers[previous].record_handover(incoming=False)
            server.record_handover(incoming=True)
        server.record_execution(activity_id)
        self._current_server[instance.instance_id] = server_id
        self.engine.complete_activity(instance, activity_id, outputs=outputs, user=user)

    def run_to_completion(self, instance: ProcessInstance, worker: Optional[Worker] = None, max_steps: int = 10000) -> int:
        """Run an instance to completion under distributed control."""
        steps = 0
        while instance.status.is_active and steps < max_steps:
            activated = self.engine.activated_activities(instance)
            if not activated:
                break
            activity_id = activated[0]
            outputs = self.engine.outputs_for(instance, activity_id, worker)
            self.complete_activity(instance, activity_id, outputs=outputs)
            steps += 1
        return steps

    # ------------------------------------------------------------------ #
    # dynamic changes under distributed control
    # ------------------------------------------------------------------ #

    def apply_adhoc_change(
        self,
        instance: ProcessInstance,
        change: Union[ChangeLog, Sequence[ChangeOperation]],
        comment: str = "",
    ) -> AdHocChangeResult:
        """Apply an ad-hoc change and notify every affected server."""
        changer = AdHocChanger(self.engine)
        result = changer.apply(instance, change, comment=comment)
        change_log = result.applied
        affected = change_log.affected_nodes() | change_log.added_node_ids()
        notified = self.partitioning.servers_for(affected) or self.partitioning.servers()
        for server_id in notified:
            self.servers[server_id].receive_change_message(instance.schema_version)
        self.costs.add_change_propagation(len(notified))
        return result

    def migrate_instances(
        self,
        process_type: ProcessType,
        type_change: TypeChange,
        instances: Iterable[ProcessInstance],
    ) -> MigrationReport:
        """Release ΔT, notify all servers, and migrate the given instances.

        Every server learns about the new schema version (one message per
        server); every migrated instance causes one migration message to
        the server currently controlling it.
        """
        manager = MigrationManager(self.engine)
        report = manager.migrate_type(process_type, type_change, instances)
        for server in self.servers.values():
            server.receive_change_message(type_change.to_version)
        self.costs.add_change_propagation(len(self.servers))
        for result in report.results:
            if result.migrated:
                current = self._current_server.get(result.instance_id, self._first_server())
                self.servers[current].receive_change_message(type_change.to_version)
                self.costs.add_migration(1)
        return report

    # ------------------------------------------------------------------ #

    def _server_for(self, instance: ProcessInstance, activity_id: str) -> str:
        """The server controlling ``activity_id``, assigning new activities lazily.

        Activities introduced by ad-hoc changes or type changes are not part
        of the original partitioning; they are handed to the server that
        controls their nearest assigned control predecessor on the instance's
        execution schema (matching how ADEPT keeps changed regions local).
        """
        from repro.paper.distributed.partitioning import PartitioningError
        from repro.schema.edges import EdgeType

        try:
            return self.partitioning.server_of(activity_id)
        except PartitioningError:
            pass
        schema = instance.execution_schema
        frontier = list(schema.predecessors(activity_id, EdgeType.CONTROL))
        seen = set(frontier)
        while frontier:
            current = frontier.pop(0)
            if current in self.partitioning.assignment:
                server_id = self.partitioning.assignment[current]
                break
            for pred in schema.predecessors(current, EdgeType.CONTROL):
                if pred not in seen:
                    seen.add(pred)
                    frontier.append(pred)
        else:
            server_id = self._first_server()
        self.partitioning.assignment[activity_id] = server_id
        self.servers[server_id].controlled_activities.add(activity_id)
        return server_id

    def _first_server(self) -> str:
        servers = self.partitioning.servers()
        return servers[0] if servers else "server-0"

    def server_summaries(self) -> List[str]:
        return [self.servers[server_id].summary() for server_id in sorted(self.servers)]

    def handover_count(self) -> int:
        return self.costs.handover_messages
