"""Paper Fig. 2 as value checks: schema and instance data per representation.

The same population of order cases (a fifth of them ad-hoc modified) is
stored under the three representations the paper discusses — full
schema copy per case, materialise-on-access and the ADEPT2 hybrid
substitution block.  Every case loads back, and the hybrid keeps
unchanged cases redundancy-free, so it needs a small fraction of the
full copy's schema bytes.  Nothing here measures time.
"""

import pytest

from repro.baselines.storage_baselines import compare_representations
from repro.schema.templates import online_order_process
from repro.storage.instance_store import InstanceStore
from repro.storage.repository import SchemaRepository
from repro.storage.representations import (
    FullCopyRepresentation,
    HybridSubstitutionRepresentation,
    MaterializeOnAccessRepresentation,
)
from repro.workloads.population import PopulationConfig, PopulationGenerator

INSTANCES = 400
BIASED_FRACTION = 0.2

STRATEGIES = {
    "full_copy": FullCopyRepresentation,
    "materialize_on_access": MaterializeOnAccessRepresentation,
    "hybrid_substitution": HybridSubstitutionRepresentation,
}


@pytest.fixture(scope="module")
def storage_setup():
    schema = online_order_process()
    repository = SchemaRepository()
    repository.register_type(schema)
    population = PopulationGenerator(
        schema,
        config=PopulationConfig(
            instance_count=INSTANCES, biased_fraction=BIASED_FRACTION, seed=2024
        ),
    ).generate()
    return repository, population


@pytest.mark.parametrize("strategy_name", list(STRATEGIES))
def test_store_and_load_population(storage_setup, strategy_name):
    """Every case saved under one representation loads back."""
    repository, population = storage_setup
    store = InstanceStore(repository, strategy=STRATEGIES[strategy_name]())
    store.save_all(population)
    loaded = store.load_all()
    assert len(loaded) == INSTANCES
    assert store.schema_payload_bytes() <= store.total_bytes()


def test_fig2_representation_table(storage_setup):
    """The hybrid needs under a fifth of the full copy's schema bytes."""
    repository, population = storage_setup
    comparisons = compare_representations(repository, population, load_rounds=1)
    by_name = {comparison.strategy: comparison for comparison in comparisons}
    hybrid = by_name["hybrid_substitution"]
    full = by_name["full_copy"]
    assert hybrid.schema_payload_bytes < full.schema_payload_bytes / 5
    assert hybrid.total_bytes < full.total_bytes
