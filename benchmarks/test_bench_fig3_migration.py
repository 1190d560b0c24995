"""Paper Fig. 3 as value checks: evolving a type with many running cases.

Releases the online-order V2 type change against populations of
hundreds to thousands of running cases (a tenth of them ad-hoc
modified).  The migration report shows every outcome class, and cases
that cannot migrate keep running on the old version.  Migration
throughput is measured by the ``evolve`` workload of ``benchmarks/e2e``.
"""

import pytest

from repro.core.migration import MigrationManager, MigrationOutcome
from repro.workloads.order_process import order_type_change_v2, paper_fig3_population


@pytest.mark.parametrize("instance_count", (500, 1000, 2000))
def test_migrate_population(instance_count):
    process_type, engine, instances = paper_fig3_population(
        instance_count=instance_count, biased_fraction=0.1, seed=instance_count
    )
    report = MigrationManager(engine).migrate_type(
        process_type, order_type_change_v2(), instances
    )
    assert report.total == instance_count
    assert report.migrated_count > 0
    assert report.count(MigrationOutcome.STATE_CONFLICT) > 0
    assert report.count(MigrationOutcome.STRUCTURAL_CONFLICT) > 0


def test_non_migrated_instances_keep_running():
    """Non-compliant cases simply remain on the old version and complete."""
    process_type, engine, instances = paper_fig3_population(
        instance_count=300, biased_fraction=0.1, seed=99
    )
    report = MigrationManager(engine).migrate_type(
        process_type, order_type_change_v2(), instances
    )
    for instance in instances:
        if instance.status.is_active:
            engine.run_to_completion(instance)
    assert all(instance.status.value == "completed" for instance in instances)
    on_v2 = sum(1 for instance in instances if instance.schema_version == 2)
    assert on_v2 == report.migrated_count
