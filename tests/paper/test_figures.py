"""The paper's figures as value checks: verdicts, counts and byte sizes.

Fig. 1's three migration verdicts are pinned by
``tests/core/test_migration.py`` (``TestFig1Scenario``), Fig. 2's
"hybrid needs a fifth of the full copy's schema bytes" by
``tests/baselines/test_baselines.py`` (``TestStorageComparison``) and
Fig. 3's outcome mix by ``TestPopulationMigration`` in
``tests/core/test_migration.py``.  This module holds what those do not.
Nothing here measures time: how fast the system does it is the business
of ``benchmarks/e2e``.
"""

from repro.core.compliance import ComplianceChecker
from repro.schema.templates import online_order_process
from repro.storage.instance_store import InstanceStore
from repro.storage.repository import SchemaRepository
from repro.storage.representations import (
    FullCopyRepresentation,
    HybridSubstitutionRepresentation,
)
from repro.workloads.order_process import order_type_change_v2, paper_fig3_population
from repro.workloads.population import PopulationConfig, PopulationGenerator


def test_fig1_conditions_and_replay_agree_on_every_instance():
    """The per-operation compliance conditions and the general trace-replay
    criterion classify every case of a mixed population identically."""
    process_type, _, instances = paper_fig3_population(instance_count=300, seed=42)
    delta_t = order_type_change_v2()
    schema_v2 = delta_t.operations.apply_to(process_type.schema_for(1))
    checker = ComplianceChecker()
    by_conditions = [
        checker.check_with_conditions(i, delta_t.operations).compliant for i in instances
    ]
    by_replay = [checker.check_by_replay(i, schema_v2).compliant for i in instances]
    assert by_conditions == by_replay
    assert 0 < sum(by_conditions) < len(instances)


def test_fig2_hybrid_schema_bytes_follow_the_biased_share():
    """Hybrid substitution blocks: schema bytes grow with the share of
    ad-hoc modified cases, not with the schema, and stay below a full copy."""
    schema = online_order_process()
    repository = SchemaRepository()
    repository.register_type(schema)
    hybrid_bytes, full_bytes = [], []
    for fraction in (0.0, 0.1, 0.3, 0.5):
        population = PopulationGenerator(
            schema,
            config=PopulationConfig(instance_count=120, biased_fraction=fraction, seed=7),
        ).generate()
        for strategy, sizes in (
            (HybridSubstitutionRepresentation(), hybrid_bytes),
            (FullCopyRepresentation(), full_bytes),
        ):
            store = InstanceStore(repository, strategy=strategy)
            store.save_all(population)
            sizes.append(store.schema_payload_bytes())
    assert hybrid_bytes == sorted(hybrid_bytes)
    assert hybrid_bytes[0] < hybrid_bytes[-1]
    assert all(hybrid < full for hybrid, full in zip(hybrid_bytes[1:], full_bytes[1:]))
