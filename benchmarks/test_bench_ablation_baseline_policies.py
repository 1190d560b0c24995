"""Ablation A3: ADEPT2 migration vs. non-adaptive baseline policies.

Systems without correctness-preserving migration either leave running
cases on the outdated schema forever or abort and restart them on the
new one.  Each policy runs on an identical fresh population; the
checks are how many cases end up on the new version and how much
completed work survives.
"""

from repro.baselines.nonadaptive import AbortRestartPolicy, StayOnOldVersionPolicy
from repro.core.migration import MigrationManager
from repro.workloads.order_process import order_type_change_v2, paper_fig3_population


def fresh_population():
    return paper_fig3_population(instance_count=400, biased_fraction=0.1, seed=1)


def apply_baseline(policy):
    process_type, engine, instances = fresh_population()
    schema_v2 = process_type.release_new_version(order_type_change_v2())
    active = [i for i in instances if i.status.is_active]
    return policy.apply(active, schema_v2, engine)


def test_adept_migration_policy():
    process_type, engine, instances = fresh_population()
    active = [i for i in instances if i.status.is_active]
    work_before = sum(len(i.completed_activities()) for i in active)
    report = MigrationManager(engine).migrate_type(
        process_type, order_type_change_v2(), instances
    )
    assert sum(len(i.completed_activities()) for i in active) == work_before
    assert 0 < report.migrated_count < len(active)


def test_stay_on_old_version_policy():
    result = apply_baseline(StayOnOldVersionPolicy())
    assert result.new_version_fraction == 0.0
    assert result.work_preserved_fraction == 1.0


def test_abort_and_restart_policy():
    result = apply_baseline(AbortRestartPolicy())
    assert result.new_version_fraction == 1.0
    assert result.work_preserved_fraction < 0.5
