"""Instance representation strategies (the design space of paper Fig. 2).

The paper discusses three ways of storing the schema of a process
instance:

* keep a **complete schema copy** per (biased) instance — simple but
  redundant;
* **materialise the instance-specific schema on the fly** from the
  original schema and the recorded change log on every access — compact
  but repeatedly pays the change-application cost;
* the ADEPT2 **hybrid**: unchanged instances only reference their original
  schema; biased instances keep a *minimal substitution block* that is
  overlaid on the original schema when the instance is accessed.

Each strategy implements the same two-method interface (``encode`` for
saving, ``materialize_schema`` for loading) so the instance store and the
storage benchmark can switch between them freely.  ``AdeptSystem`` always
stores the hybrid form; the other two are the references of the Fig. 2
measurement (``InstanceStore(strategy=...)``).
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from typing import Any, Dict, Mapping, Optional

from repro.core.changelog import ChangeLog
from repro.core.substitution import SubstitutionBlock
from repro.runtime.instance import ProcessInstance
from repro.schema.graph import ProcessSchema


class RepresentationStrategy(ABC):
    """How the (possibly instance-specific) schema of an instance is stored."""

    name: str = "abstract"

    @abstractmethod
    def encode(self, instance: ProcessInstance) -> Dict[str, Any]:
        """The schema-related part of the stored record."""

    @abstractmethod
    def materialize_schema(
        self, record: Mapping[str, Any], original_schema: ProcessSchema, instance_id: str
    ) -> Optional[ProcessSchema]:
        """Rebuild the instance's execution schema (``None`` = use the original)."""

    def payload_size_bytes(self, record: Mapping[str, Any]) -> int:
        """Approximate persisted size of the schema-related record part."""
        return len(json.dumps(record, sort_keys=True))


class FullCopyRepresentation(RepresentationStrategy):
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


class MaterializeOnAccessRepresentation(RepresentationStrategy):
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


class HybridSubstitutionRepresentation(RepresentationStrategy):
    """ADEPT2: reference for unbiased instances, substitution block for biased ones."""

    name = "hybrid_substitution"

    def encode(self, instance: ProcessInstance) -> Dict[str, Any]:
        if not instance.is_biased:
            return {}
        block = SubstitutionBlock.from_schemas(instance.original_schema, instance.execution_schema)
        if block.is_empty():
            return {}
        return {"substitution_block": block.to_dict()}

    def materialize_schema(
        self, record: Mapping[str, Any], original_schema: ProcessSchema, instance_id: str
    ) -> Optional[ProcessSchema]:
        payload = record.get("substitution_block")
        if not payload:
            return None
        block = SubstitutionBlock.from_dict(payload)
        return block.overlay(original_schema, schema_id=f"{original_schema.schema_id}+{instance_id}")
