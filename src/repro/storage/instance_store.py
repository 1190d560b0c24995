"""The instance store: the one home of a stored case record.

Combines the schema repository (shared schema versions), the ADEPT2
hybrid representation of instance-specific schemas (paper Fig. 2) and
the secondary indexes (efficient querying by type / version / status).
An unchanged case only references its schema version; a biased case
keeps a minimal substitution block that is overlaid on the original
schema when the case is loaded.  The records live in memory; what makes
them durable is the system's snapshot and logical write-ahead log
(:mod:`repro.system.persistence`).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set

from repro.core.substitution import SubstitutionBlock
from repro.runtime.instance import ProcessInstance
from repro.storage.indexes import InstanceIndex
from repro.storage.repository import SchemaRepository
from repro.storage.serialization import StorageError, instance_from_record, instance_to_stored

#: the ``"strategy"`` every stored record's ``"representation"`` names
HYBRID_SUBSTITUTION = "hybrid_substitution"


@dataclass
class StoredInstance:
    """Size accounting for one stored instance (used by benchmark E2)."""

    instance_id: str
    total_bytes: int
    schema_payload_bytes: int
    biased: bool


class InstanceStore:
    """Persists process instances in the hybrid representation."""

    def __init__(self, repository: SchemaRepository) -> None:
        self.repository = repository
        #: instance id -> stored record
        self._records: Dict[str, Dict[str, Any]] = {}
        self.index = InstanceIndex()
        #: ids whose current record :meth:`write_back` stored (:meth:`written_back`)
        self._written_back: Set[str] = set()
        # one reentrant lock serialises record/index mutations and makes
        # every query a consistent snapshot — the store is shared by all
        # threads of the façade (a leaf below its execution lock)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # save / load / delete
    # ------------------------------------------------------------------ #

    def encode_record(self, instance: ProcessInstance) -> Dict[str, Any]:
        """The full stored record of an instance (state + schema representation).

        The state is in the stored form (:func:`instance_to_stored`): its
        history rows and data writes are compact JSON text, so a record
        costs its bytes in memory, not one object per row.
        """
        record = instance_to_stored(instance)
        representation: Dict[str, Any] = {"strategy": HYBRID_SUBSTITUTION}
        if instance.is_biased:
            block = SubstitutionBlock.from_schemas(
                instance.original_schema, instance.execution_schema
            )
            if not block.is_empty():
                representation["substitution_block"] = block.to_dict()
        record["representation"] = representation
        return record

    def save(self, instance: ProcessInstance) -> StoredInstance:
        """Persist an instance and return its size accounting."""
        if not self.repository.has_type(instance.process_type):
            raise StorageError(
                f"process type {instance.process_type!r} is not registered in the schema repository"
            )
        record = self.encode_record(instance)
        schema_part = {
            key: value
            for key, value in record["representation"].items()
            if key != "strategy"
        }
        # the size accounting's rendering is also the check that the record
        # is JSON: a case holding a value that is not raises here, before
        # the record or the index changes
        total_bytes = len(json.dumps(record, sort_keys=True))
        with self._lock:
            self._records[instance.instance_id] = record
            self._written_back.discard(instance.instance_id)
            self.index.add(instance.instance_id, record)
        return StoredInstance(
            instance_id=instance.instance_id,
            total_bytes=total_bytes,
            schema_payload_bytes=len(json.dumps(schema_part, sort_keys=True)),
            biased=bool(record.get("biased")),
        )

    def save_all(self, instances: Iterable[ProcessInstance]) -> List[StoredInstance]:
        """Persist many instances and return their size accounting."""
        return [self.save(instance) for instance in instances]

    def write_back(self, instance: ProcessInstance) -> None:
        """Fast-path persist without size accounting.

        The LRU cache uses this when evicting a dirty instance: the state
        is already covered by the durability layer's logical WAL records,
        so the write-back only has to keep the store copy current — it
        skips the ``json.dumps`` passes :meth:`save` spends on accounting.

        The only writer of the stored marking's ``"fix"`` key: a settled
        marking says so in its payload, so the re-hydrated case's next step
        re-examines the nodes it signals instead of the whole schema.  The
        key is a cache hint, not state — no WAL record, fingerprint or
        ``instance_to_dict`` carries it, and absent means "not known".

        Marks the record as written back, until another writer replaces it
        (:meth:`written_back`).
        """
        record = self.encode_record(instance)
        if instance.marking.settled:
            record["marking"]["fix"] = 1
        with self._lock:
            self._records[instance.instance_id] = record
            self._written_back.add(instance.instance_id)
            self.index.add(instance.instance_id, record)

    def load(self, instance_id: str) -> ProcessInstance:
        """Re-load an instance (materialising its execution schema if biased)."""
        with self._lock:
            record = self._records.get(instance_id)
        if record is None:
            raise StorageError(f"unknown instance {instance_id!r}")
        return self._instantiate(record)

    def written_back(self, instance_id: str) -> bool:
        """True while the stored record is the one :meth:`write_back` stored.

        That is, no migration, snapshot load, replay, save or deletion
        replaced it since.  The live cache writes back a case it evicts
        after the scope that last changed the case synchronised its work
        items, so those items still match such a record.  One set
        membership test, which is atomic: no lock is taken.
        """
        return instance_id in self._written_back

    def clear_write_back_marks(self) -> None:
        """Forget which records :meth:`write_back` stored (recovery calls this).

        A WAL replay drives cases through the engine without
        synchronising their work items, and the evictions it causes write
        those cases back.
        """
        with self._lock:
            self._written_back.clear()

    def load_all(self, instance_ids: Optional[Iterable[str]] = None) -> List[ProcessInstance]:
        """Load several (or all) stored instances."""
        ids = list(instance_ids) if instance_ids is not None else self.instance_ids()
        return [self.load(instance_id) for instance_id in ids]

    def delete(self, instance_id: str) -> bool:
        """Remove a stored instance; returns True when it existed."""
        with self._lock:
            existed = self._records.pop(instance_id, None) is not None
            self._written_back.discard(instance_id)
            self.index.remove(instance_id)
        return existed

    def contains(self, instance_id: str) -> bool:
        with self._lock:
            return instance_id in self._records

    def process_type_of(self, instance_id: str) -> str:
        """Process type of a stored case ('' when unknown).

        One dict read, which is atomic: no lock is taken.
        """
        record = self._records.get(instance_id)
        return "" if record is None else record.get("process_type", "")

    def instance_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._records)

    def record(self, instance_id: str) -> Dict[str, Any]:
        """The raw stored record (tests and the storage benchmark use this)."""
        with self._lock:
            record = self._records.get(instance_id)
        if record is None:
            raise StorageError(f"unknown instance {instance_id!r}")
        return record

    def put_record(self, record: Mapping[str, Any]) -> None:
        """Insert a previously serialised record verbatim (snapshot load, WAL replay).

        Unlike :meth:`save` this does not re-encode the instance — the
        record *is* the durable form.
        """
        payload = dict(record)
        with self._lock:
            self._records[payload["instance_id"]] = payload
            self._written_back.discard(payload["instance_id"])
            self.index.add(payload["instance_id"], payload)

    def scan_records(self) -> Iterable[tuple]:
        """``(instance_id, record)`` pairs of all stored instances (a snapshot)."""
        with self._lock:
            return list(self._records.items())

    def records_for(self, instance_ids: Iterable[str]) -> List[tuple]:
        """``(instance_id, record)`` pairs for a batch of ids, one lock trip.

        Unknown ids are silently skipped — the bulk-evolution scan uses
        this to classify a candidate batch from the stored representations
        without hydrating instances (and without taking the store lock
        once per candidate).
        """
        with self._lock:
            pairs = []
            for instance_id in instance_ids:
                record = self._records.get(instance_id)
                if record is not None:
                    pairs.append((instance_id, record))
            return pairs

    def migrate_record(
        self,
        instance_id: str,
        schema_version: int,
        marking: Mapping[str, Any],
        updates: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Re-link a *stored* case to a new schema version in O(record).

        The bulk-evolution fast path applies a fingerprint class's shared
        verdict to store-resident members without materialising them: the
        record's ``schema_version`` and ``marking`` are rewritten in place
        (everything else — history, data, status — is untouched by an
        unbiased migration) and the secondary indexes move the case to the
        new version.  ``marking`` is the class's adapted-marking template
        in serialised form; it may be shared across members and must be
        treated as immutable.

        ``updates`` carries additional shared fields for *biased* class
        members (``bias``, ``biased``, ``representation`` — re-encoded
        once from the class representative); a key mapped to ``None`` is
        removed from the record.  Returns the rewritten record.
        """
        with self._lock:
            record = self._records.get(instance_id)
            if record is None:
                raise StorageError(f"unknown instance {instance_id!r}")
            record = dict(record)
            record["schema_version"] = schema_version
            record["marking"] = marking
            for key, value in (updates or {}).items():
                if value is None:
                    record.pop(key, None)
                else:
                    record[key] = value
            self._records[instance_id] = record
            self._written_back.discard(instance_id)
            self.index.add(instance_id, record)
        return record

    def instantiate(self, record: Mapping[str, Any]) -> ProcessInstance:
        """Rebuild a live :class:`ProcessInstance` from a raw stored record."""
        return self._instantiate(record)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def instances_of_type(self, process_type: str, version: Optional[int] = None) -> List[str]:
        """Instance ids of one type (optionally restricted to a schema version)."""
        with self._lock:
            if version is None:
                return self.index.by_type(process_type)
            return self.index.by_version(process_type, version)

    def running_instances(self) -> List[str]:
        """Instance ids that are still active."""
        with self._lock:
            return self.index.active()

    def running_instances_of_type(self, process_type: str) -> List[str]:
        """Active instance ids of one process type (migration candidates)."""
        with self._lock:
            return self.index.active_by_type(process_type)

    def running_instances_on_version(self, process_type: str, version: int) -> List[str]:
        """Active instance ids of one type still stored on ``version``.

        The progressive-rollout sweeper uses this as its residue query:
        cases the lazy touch path has not reached yet are exactly the
        active stored records still indexed under the old version.
        """
        with self._lock:
            return self.index.active_by_version(process_type, version)

    def active_versions_of_type(self, process_type: str) -> Set[int]:
        """Versions of one type that still hold an active stored case."""
        with self._lock:
            return self.index.active_versions(process_type)

    def biased_instances(self) -> List[str]:
        with self._lock:
            return self.index.biased_instances()

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def total_bytes(self) -> int:
        """Approximate persisted size of all instance records."""
        return len(json.dumps(dict(self.scan_records()), sort_keys=True))

    # ------------------------------------------------------------------ #

    def _instantiate(self, record: Mapping[str, Any]) -> ProcessInstance:
        original = self.repository.resolve(record["process_type"], record["schema_version"])
        execution_schema = None
        # only a biased case executes on a schema of its own
        block = record.get("bias") and record.get("representation", {}).get("substitution_block")
        if block:
            execution_schema = SubstitutionBlock.from_dict(block).overlay(
                original, schema_id=f"{original.schema_id}+{record['instance_id']}"
            )
        return instance_from_record(record, original, execution_schema)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
