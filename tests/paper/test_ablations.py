"""Ablations A4–A6 as value checks: verdicts and counts.

Each class states one of the paper's claims as deterministic numbers on
a seeded population; A1–A3 live in ``benchmarks/test_bench_ablation_*``.
None measures time — the verifier's cost is not asserted anywhere;
throughput and latency of the whole system are measured by
``benchmarks/e2e``.
"""

import random

import pytest

from repro.core.evolution import ProcessType
from repro.core.migration import MigrationManager, MigrationOutcome
from repro.distributed.coordinator import DistributedCoordinator
from repro.distributed.partitioning import SchemaPartitioning
from repro.runtime.events import EventType
from repro.schema.data import DataAccess, DataEdge, DataElement
from repro.schema.edges import Edge, EdgeType
from repro.schema.nodes import Node
from repro.schema.templates import online_order_process
from repro.verification import SchemaVerifier
from repro.workloads.order_process import (
    ORDER_EXECUTION_SEQUENCE,
    order_type_change_v2,
    paper_fig3_population,
)
from repro.workloads.schema_generator import RandomSchemaGenerator, SchemaGeneratorConfig


class TestA4Verification:
    """Generated schemas verify; every injected defect class is caught."""

    @staticmethod
    def schema_of_size(target, seed=0):
        config = SchemaGeneratorConfig(target_activities=target)
        return RandomSchemaGenerator(config, seed=seed).generate(f"verify_{target}")

    @pytest.mark.parametrize("size", (20, 60, 120))
    def test_generated_schema_verifies(self, size):
        assert SchemaVerifier().verify(self.schema_of_size(size)).is_correct

    @staticmethod
    def inject_defect(schema, kind, rng):
        """Damage a copy of ``schema`` (``None`` when ``kind`` does not apply)."""
        damaged = schema.copy()
        activities = damaged.activity_ids()
        if kind == "deadlocking_sync_pair":
            pairs = [
                (a, b) for a in activities for b in activities
                if a != b and damaged.are_parallel(a, b)
            ]
            if not pairs:
                return None
            first, second = rng.choice(pairs)
            damaged.add_edge(Edge(source=first, target=second, edge_type=EdgeType.SYNC))
            damaged.add_edge(Edge(source=second, target=first, edge_type=EdgeType.SYNC))
        elif kind == "missing_input_data":
            damaged.add_data_element(DataElement(name="never_written_value"))
            damaged.add_data_edge(
                DataEdge(
                    activity=rng.choice(activities),
                    element="never_written_value",
                    access=DataAccess.READ,
                )
            )
        elif kind == "dangling_activity":
            damaged.add_node(Node(node_id="dangling"))
        elif kind == "short_circuit_edge":
            damaged.add_edge(
                Edge(source=damaged.start_node().node_id, target=damaged.end_node().node_id)
            )
        return damaged

    @pytest.mark.parametrize(
        "kind",
        ("deadlocking_sync_pair", "missing_input_data", "dangling_activity", "short_circuit_edge"),
    )
    def test_defect_detected(self, kind):
        rng = random.Random(7)
        verifier = SchemaVerifier()
        damaged = [
            self.inject_defect(self.schema_of_size(20, seed=seed), kind, rng)
            for seed in range(8)
        ]
        damaged = [schema for schema in damaged if schema is not None]
        assert damaged
        assert not any(verifier.verify(schema).is_correct for schema in damaged)


class TestA5Distributed:
    """Dynamic change stays feasible under distributed process control;
    control hand-overs appear exactly when more than one server runs a case."""

    @pytest.mark.parametrize("server_count", (1, 2, 4))
    def test_execution_and_migration(self, server_count):
        schema = online_order_process()
        partitioning = SchemaPartitioning.contiguous(
            schema, [f"srv-{i}" for i in range(server_count)]
        )
        coordinator = DistributedCoordinator(partitioning)
        cases = []
        for index in range(40):
            case = coordinator.create_instance(f"case-{server_count}-{index}")
            for activity in ORDER_EXECUTION_SEQUENCE[: index % 5]:
                coordinator.complete_activity(case, activity)
            cases.append(case)
        report = coordinator.migrate_instances(
            ProcessType("online_order", schema), order_type_change_v2(), cases
        )
        for case in cases:
            coordinator.run_to_completion(case)
        assert report.total == 40
        assert report.migrated_count > 0
        assert all(case.status.value == "completed" for case in cases)
        assert (coordinator.costs.handover_messages > 0) == (server_count > 1)


class TestA6Rollback:
    """Compensating blocking work turns state conflicts into migrations."""

    @pytest.mark.parametrize("rollback", [False, True], ids=["plain", "with_rollback"])
    def test_migration(self, rollback):
        process_type, engine, instances = paper_fig3_population(
            instance_count=300, biased_fraction=0.1, seed=4242
        )
        events = []
        engine.event_listener = events.append
        manager = MigrationManager(engine, rollback_on_state_conflict=rollback)
        report = manager.migrate_type(process_type, order_type_change_v2(), instances)
        rolled_back = report.count(MigrationOutcome.MIGRATED_WITH_ROLLBACK)
        compensated = [e.event_type for e in events].count(EventType.ACTIVITY_COMPENSATED)
        if rollback:
            assert rolled_back > 0 and compensated > 0
        else:
            assert rolled_back == 0 and compensated == 0
        # every case still completes, whichever policy was used
        for instance in instances:
            if instance.status.is_active:
                engine.run_to_completion(instance)
        assert all(instance.status.value == "completed" for instance in instances)
