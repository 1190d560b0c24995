"""Tests for partitioned (distributed) process control."""

import pytest

from repro.core.evolution import ProcessType, TypeChange
from repro.core.operations import SerialInsertActivity
from repro.paper.distributed.coordinator import DistributedCoordinator
from repro.paper.distributed.partitioning import PartitioningError, SchemaPartitioning
from repro.runtime.states import InstanceStatus
from repro.schema import templates
from repro.schema.nodes import Node
from repro.workloads.order_process import order_type_change_v2


class TestPartitioning:
    def test_contiguous_assigns_every_activity(self, order_schema):
        partitioning = SchemaPartitioning.contiguous(order_schema, ["s1", "s2"])
        partitioning.validate()
        assert set(partitioning.assignment) == set(order_schema.activity_ids())
        assert set(partitioning.servers()) <= {"s1", "s2"}

    def test_single_server_has_no_handover_edges(self, order_schema):
        partitioning = SchemaPartitioning.contiguous(order_schema, ["only"])
        assert partitioning.handover_edges() == []

    def test_more_servers_mean_handover_edges(self, order_schema):
        partitioning = SchemaPartitioning.contiguous(order_schema, ["s1", "s2", "s3"])
        assert len(partitioning.handover_edges()) >= 1

    def test_by_role_partitioning(self, order_schema):
        partitioning = SchemaPartitioning.by_role(
            order_schema,
            role_to_server={"warehouse": "wh", "logistics": "wh"},
            default_server="front",
        )
        assert partitioning.server_of("pack_goods") == "wh"
        assert partitioning.server_of("get_order") == "front"

    def test_unassigned_activity_rejected(self, order_schema):
        partitioning = SchemaPartitioning(schema=order_schema, assignment={"get_order": "s1"})
        with pytest.raises(PartitioningError):
            partitioning.validate()
        with pytest.raises(PartitioningError):
            partitioning.server_of("pack_goods")

    def test_empty_server_list_rejected(self, order_schema):
        with pytest.raises(PartitioningError):
            SchemaPartitioning.contiguous(order_schema, [])

    def test_servers_for(self, order_schema):
        partitioning = SchemaPartitioning.by_role(
            order_schema, role_to_server={"warehouse": "wh"}, default_server="front"
        )
        assert partitioning.servers_for(["pack_goods", "compose_order"]) == ["wh"]
        assert set(partitioning.servers_for(["pack_goods", "get_order"])) == {"front", "wh"}


class TestDistributedExecution:
    def make_coordinator(self, schema, servers=3):
        partitioning = SchemaPartitioning.contiguous(schema, [f"s{i}" for i in range(servers)])
        return DistributedCoordinator(partitioning)

    def test_instance_completes_under_distributed_control(self, order_schema):
        coordinator = self.make_coordinator(order_schema)
        instance = coordinator.create_instance("d1")
        coordinator.run_to_completion(instance)
        assert instance.status is InstanceStatus.COMPLETED

    def test_handover_messages_counted(self, order_schema):
        coordinator = self.make_coordinator(order_schema, servers=3)
        instance = coordinator.create_instance("d1")
        coordinator.run_to_completion(instance)
        assert coordinator.handover_count() >= 2
        assert coordinator.costs.data_transfer_messages == coordinator.handover_count()

    def test_single_server_has_no_handovers(self, order_schema):
        coordinator = self.make_coordinator(order_schema, servers=1)
        instance = coordinator.create_instance("d1")
        coordinator.run_to_completion(instance)
        assert coordinator.handover_count() == 0

    def test_executions_attributed_to_servers(self, order_schema):
        coordinator = self.make_coordinator(order_schema, servers=2)
        instance = coordinator.create_instance("d1")
        coordinator.run_to_completion(instance)
        executed = sum(server.executed_activities for server in coordinator.servers.values())
        assert executed == len(order_schema.activity_ids())

    def test_server_summaries(self, order_schema):
        coordinator = self.make_coordinator(order_schema, servers=2)
        instance = coordinator.create_instance("d1")
        coordinator.run_to_completion(instance)
        summaries = coordinator.server_summaries()
        assert len(summaries) == len(coordinator.servers)
        assert all("server" in line for line in summaries)


class TestDistributedChanges:
    def test_adhoc_change_notifies_affected_servers(self, order_schema):
        partitioning = SchemaPartitioning.contiguous(order_schema, ["s0", "s1", "s2"])
        coordinator = DistributedCoordinator(partitioning)
        instance = coordinator.create_instance("d1")
        coordinator.complete_activity(instance, "get_order")
        coordinator.apply_adhoc_change(
            instance,
            [SerialInsertActivity(activity=Node(node_id="extra"), pred="collect_data", succ=order_schema.successors("collect_data")[0])],
        )
        assert instance.is_biased
        assert coordinator.costs.change_propagation_messages >= 1
        coordinator.run_to_completion(instance)
        assert "extra" in instance.completed_activities()

    def test_migration_under_distributed_control(self, order_schema):
        partitioning = SchemaPartitioning.contiguous(order_schema, ["s0", "s1"])
        coordinator = DistributedCoordinator(partitioning)
        process_type = ProcessType("online_order", order_schema)
        early = coordinator.create_instance("early")
        coordinator.complete_activity(early, "get_order")
        late = coordinator.create_instance("late")
        coordinator.run_to_completion(late)
        report = coordinator.migrate_instances(process_type, order_type_change_v2(), [early, late])
        assert report.migrated_count == 1
        # every server was informed about the new version
        assert coordinator.costs.change_propagation_messages >= len(coordinator.servers)
        assert coordinator.costs.migration_messages == 1
        coordinator.run_to_completion(early)
        assert "send_questions" in early.completed_activities()

    def test_new_activity_assigned_to_predecessor_server(self, order_schema):
        partitioning = SchemaPartitioning.contiguous(order_schema, ["s0", "s1"])
        coordinator = DistributedCoordinator(partitioning)
        instance = coordinator.create_instance("d1")
        coordinator.apply_adhoc_change(
            instance,
            [SerialInsertActivity(activity=Node(node_id="extra"), pred="get_order", succ="collect_data")],
        )
        coordinator.run_to_completion(instance)
        assert partitioning.assignment["extra"] == partitioning.assignment["get_order"]


class TestCosts:
    def test_cost_accounting(self):
        from repro.paper.distributed.costs import CommunicationCosts

        costs = CommunicationCosts()
        costs.add_handover()
        costs.add_change_propagation(3)
        costs.add_migration(2)
        assert costs.total() == 1 + 1 + 3 + 2
        payload = costs.as_dict()
        assert payload["handover"] == 1 and payload["total"] == costs.total()
        assert "messages" in costs.summary()
