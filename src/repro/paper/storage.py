"""The storage alternatives of paper Fig. 2 and the harness that measures them.

The paper discusses three ways of storing the schema of a process
instance:

* keep a **complete schema copy** per instance — simple but redundant;
* **materialise the instance-specific schema on the fly** from the
  original schema and the recorded change log on every access — compact
  but repeatedly pays the change-application cost;
* the ADEPT2 **hybrid**: unchanged instances only reference their original
  schema; biased instances keep a *minimal substitution block* that is
  overlaid on the original schema when the instance is accessed.

The product stores the hybrid form
(:class:`~repro.storage.instance_store.InstanceStore`); the first two are
defined here.  A :class:`RepresentationStore` holds one population's
records in one of the three forms: a baseline's record is the product's
stored state (:func:`instance_to_stored`) plus that baseline's schema
part, loaded through :func:`instance_from_record`; the hybrid's records
are the instance store's own.  :func:`compare_representations` measures
all three side by side — persisted bytes, per-instance schema payload
and access (load) latency — which is what benchmark E2 reports.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.core.changelog import ChangeLog
from repro.runtime.instance import ProcessInstance
from repro.schema.graph import ProcessSchema
from repro.storage.instance_store import HYBRID_SUBSTITUTION, InstanceStore
from repro.storage.repository import SchemaRepository
from repro.storage.serialization import StorageError, instance_from_record, instance_to_stored


class FullCopyRepresentation:
    """Baseline: store a complete schema copy for every instance."""

    name = "full_copy"

    def encode(self, instance: ProcessInstance) -> Dict[str, Any]:
        return {"schema_copy": instance.execution_schema.to_dict()}

    def materialize_schema(
        self, record: Mapping[str, Any], original_schema: ProcessSchema, instance_id: str
    ) -> Optional[ProcessSchema]:
        payload = record.get("schema_copy")
        if payload is None:
            return None
        return ProcessSchema.from_dict(payload)


class MaterializeOnAccessRepresentation:
    """Baseline: store only the change log; re-apply it on every access."""

    name = "materialize_on_access"

    def encode(self, instance: ProcessInstance) -> Dict[str, Any]:
        if isinstance(instance.bias, ChangeLog) and len(instance.bias) > 0:
            return {"bias_log": instance.bias.to_dict()}
        return {}

    def materialize_schema(
        self, record: Mapping[str, Any], original_schema: ProcessSchema, instance_id: str
    ) -> Optional[ProcessSchema]:
        payload = record.get("bias_log")
        if not payload:
            return None
        bias = ChangeLog.from_dict(payload)
        schema = bias.apply_to(original_schema, check=True)
        schema.schema_id = f"{original_schema.schema_id}+{instance_id}"
        return schema


BASELINES = {
    FullCopyRepresentation.name: FullCopyRepresentation,
    MaterializeOnAccessRepresentation.name: MaterializeOnAccessRepresentation,
}

#: the three forms of Fig. 2, in the order of its table
STRATEGIES = (FullCopyRepresentation.name, MaterializeOnAccessRepresentation.name, HYBRID_SUBSTITUTION)


def schema_payload_bytes(record: Mapping[str, Any]) -> int:
    """Persisted bytes of a record's schema representation (its strategy name aside)."""
    representation = dict(record.get("representation", {}))
    representation.pop("strategy", None)
    return len(json.dumps(representation, sort_keys=True))


class RepresentationStore:
    """One population's records in one of the Fig. 2 forms."""

    def __init__(self, repository: SchemaRepository, strategy: str = HYBRID_SUBSTITUTION) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown representation {strategy!r}")
        self.repository = repository
        self.strategy = strategy
        self._baseline = BASELINES[strategy]() if strategy in BASELINES else None
        self._product = InstanceStore(repository)
        #: instance id -> stored record
        self.records: Dict[str, Dict[str, Any]] = {}

    def encode_record(self, instance: ProcessInstance) -> Dict[str, Any]:
        """The record this form stores for ``instance``."""
        if self._baseline is None:
            return self._product.encode_record(instance)
        record = instance_to_stored(instance)
        record["representation"] = {"strategy": self.strategy, **self._baseline.encode(instance)}
        return record

    def instantiate(self, record: Mapping[str, Any]) -> ProcessInstance:
        """Rebuild a live instance from a record of this form."""
        if self._baseline is None:
            return self._product.instantiate(record)
        original = self.repository.resolve(record["process_type"], record["schema_version"])
        execution_schema = None
        if record.get("bias"):
            execution_schema = self._baseline.materialize_schema(
                record.get("representation", {}), original, record["instance_id"]
            )
        return instance_from_record(record, original, execution_schema)

    def save_all(self, instances: Iterable[ProcessInstance]) -> None:
        for instance in instances:
            self.records[instance.instance_id] = self.encode_record(instance)

    def load(self, instance_id: str) -> ProcessInstance:
        record = self.records.get(instance_id)
        if record is None:
            raise StorageError(f"unknown instance {instance_id!r}")
        return self.instantiate(record)

    def load_all(self) -> List[ProcessInstance]:
        return [self.load(instance_id) for instance_id in sorted(self.records)]

    def total_bytes(self) -> int:
        """Approximate persisted size of all records."""
        return len(json.dumps(self.records, sort_keys=True))

    def schema_payload_bytes(self) -> int:
        """Persisted bytes spent on per-instance schema representations."""
        return sum(schema_payload_bytes(record) for record in self.records.values())


@dataclass
class RepresentationComparison:
    """Measured numbers for one representation over one population."""

    strategy: str
    instance_count: int
    total_bytes: int
    schema_payload_bytes: int
    mean_bytes_per_instance: float
    load_seconds: float

    def row(self) -> Dict[str, str]:
        """A printable table row (used by benchmark E2)."""
        return {
            "strategy": self.strategy,
            "instances": str(self.instance_count),
            "total_kb": f"{self.total_bytes / 1024:.1f}",
            "schema_payload_kb": f"{self.schema_payload_bytes / 1024:.1f}",
            "bytes_per_instance": f"{self.mean_bytes_per_instance:.0f}",
            "load_seconds": f"{self.load_seconds:.4f}",
        }


def compare_representations(
    repository: SchemaRepository,
    instances: Sequence[ProcessInstance],
    load_rounds: int = 1,
) -> List[RepresentationComparison]:
    """Store the same population in every form and measure it."""
    comparisons: List[RepresentationComparison] = []
    for strategy in STRATEGIES:
        store = RepresentationStore(repository, strategy)
        store.save_all(instances)
        started = time.perf_counter()
        for _ in range(load_rounds):
            store.load_all()
        load_seconds = time.perf_counter() - started
        count = len(store.records)
        total_bytes = store.total_bytes()
        comparisons.append(
            RepresentationComparison(
                strategy=strategy,
                instance_count=count,
                total_bytes=total_bytes,
                schema_payload_bytes=store.schema_payload_bytes(),
                mean_bytes_per_instance=total_bytes / count if count else 0.0,
                load_seconds=load_seconds,
            )
        )
    return comparisons
