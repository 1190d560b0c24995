"""Paper Fig. 1 as a value check: the three example instances' verdicts.

I1 migrates, I2 (ad-hoc modified) has a structural conflict and I3 a
state conflict.  Nothing here measures time; how fast the system runs
is measured by ``benchmarks/e2e``.
"""

from repro.core.migration import MigrationManager, MigrationOutcome
from repro.workloads.order_process import paper_fig1_scenario


def test_fig1_classification_matches_paper():
    scenario = paper_fig1_scenario()
    report = MigrationManager(scenario.engine).migrate_type(
        scenario.process_type, scenario.type_change, scenario.instances
    )
    outcomes = {result.instance_id: result.outcome for result in report.results}
    assert outcomes["I1"] is MigrationOutcome.MIGRATED
    assert outcomes["I2"] is MigrationOutcome.STRUCTURAL_CONFLICT
    assert outcomes["I3"] is MigrationOutcome.STATE_CONFLICT
