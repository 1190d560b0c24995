#!/usr/bin/env python3
"""Storage representations for schema and instance data (paper Fig. 2).

Generates a population of online-order cases inside one
:class:`AdeptSystem` (a fraction of them ad-hoc modified), compares the
three representations discussed in the paper — full schema copy per
instance, materialise-on-access, and the ADEPT2 hybrid substitution
block — and prints the resulting footprint and access-latency table.
Also demonstrates crash recovery of a durable system (snapshot +
write-ahead log) through ``AdeptSystem.open``.

Run with ``python examples/storage_representations.py``.
"""

try:  # installed package, or the caller already set PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # fresh checkout: fall back to the in-tree sources
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tempfile

from repro import AdeptSystem
from repro.baselines import compare_representations
from repro.schema import templates
from repro.workloads import PopulationConfig, PopulationGenerator


def main() -> None:
    schema = templates.online_order_process()
    system = AdeptSystem()
    system.deploy(schema)

    print("=== generating the instance population ===")
    generator = PopulationGenerator(
        schema,
        config=PopulationConfig(instance_count=300, biased_fraction=0.2, seed=11),
        system=system,
    )
    population = generator.generate()
    print(system.statistics().summary())
    print()

    print("=== representation comparison (paper Fig. 2) ===")
    comparisons = compare_representations(system.repository, population, load_rounds=3)
    header = ("strategy", "instances", "total_kb", "schema_payload_kb", "bytes_per_instance", "load_seconds")
    print("  ".join(f"{column:>22}" for column in header))
    for comparison in comparisons:
        row = comparison.row()
        print("  ".join(f"{row[column]:>22}" for column in header))
    print()
    hybrid = next(c for c in comparisons if c.strategy == "hybrid_substitution")
    full = next(c for c in comparisons if c.strategy == "full_copy")
    print(f"hybrid substitution blocks use {hybrid.schema_payload_bytes / max(full.schema_payload_bytes, 1):.1%} "
          "of the schema bytes a full copy per instance would need")
    print()

    print("=== crash recovery through the write-ahead log ===")
    with tempfile.TemporaryDirectory() as directory:
        durable = AdeptSystem.open(directory)
        durable.deploy(schema)
        cases = PopulationGenerator(
            schema,
            config=PopulationConfig(instance_count=25, biased_fraction=0.2, seed=11),
            system=durable,
        ).generate()
        for instance in cases:
            durable.save(instance.instance_id)
        first = cases[0].instance_id
        print(f"store holds {len(durable.store)} instance(s); first:", durable.store.load(first).summary())
        # simulate a crash: no checkpoint, only the WAL reaches the next open
        durable.backend.close()
        recovered = AdeptSystem.open(directory)
        replayed = recovered.last_recovery.replayed_records
        print(f"replayed {replayed} WAL record(s); store now holds {len(recovered.store)} instance(s)")
        print("first recovered instance:", recovered.store.load(first).summary())
        recovered.close()


if __name__ == "__main__":
    main()
