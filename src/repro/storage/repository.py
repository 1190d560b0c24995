"""The versioned schema repository.

Process templates (schemas) are released per process type and version;
the repository holds them as :class:`ProcessType` objects and hands out
the referenced schema objects to the instance store — one shared object
per version, which is what makes the reference-based instance
representation redundancy free.  The system's snapshot serialises the
schemas from these objects (:mod:`repro.system.persistence`).
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List

from repro.core.evolution import EvolutionError, ProcessType, TypeChange
from repro.schema.graph import ProcessSchema


class SchemaRepository:
    """Stores process types and their released schema versions."""

    def __init__(self) -> None:
        self._types: Dict[str, ProcessType] = {}
        # registrations and releases are rare next to lookups, but they
        # race under a multi-threaded façade (two deploys, a deploy vs a
        # checkpoint snapshot) — one reentrant lock keeps them atomic
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #

    def register_type(self, schema: ProcessSchema) -> ProcessType:
        """Register a new process type with ``schema`` as its first version."""
        with self._lock:
            if schema.name in self._types:
                raise EvolutionError(f"process type {schema.name!r} is already registered")
            process_type = ProcessType(schema.name, initial_schema=schema)
            self._types[schema.name] = process_type
            return process_type

    def adopt_type(self, process_type: ProcessType) -> ProcessType:
        """Adopt an externally managed process type with all its versions.

        Useful when a :class:`~repro.core.evolution.ProcessType` was built and
        evolved outside the repository (e.g. by a workload generator) and its
        instances should now be stored.
        """
        with self._lock:
            if process_type.name in self._types:
                raise EvolutionError(f"process type {process_type.name!r} is already registered")
            self._types[process_type.name] = process_type
            return process_type

    def release_version(self, type_name: str, type_change: TypeChange) -> ProcessSchema:
        """Release a new version of ``type_name`` by applying ``type_change``."""
        with self._lock:
            return self.process_type(type_name).release_new_version(type_change)

    def withdraw_version(self, type_name: str, version: int) -> ProcessSchema:
        """Withdraw the latest version of ``type_name``.

        Used by canary auto-rollback: the refused version is removed so a
        later evolve releases from the restored latest version again.
        """
        with self._lock:
            return self.process_type(type_name).withdraw_version(version)

    def process_type(self, type_name: str) -> ProcessType:
        try:
            return self._types[type_name]
        except KeyError:
            raise EvolutionError(f"unknown process type {type_name!r}") from None

    def has_type(self, type_name: str) -> bool:
        return type_name in self._types

    def schema(self, type_name: str, version: int) -> ProcessSchema:
        """The released schema of ``type_name`` with the given version."""
        return self.process_type(type_name).schema_for(version)

    def latest_schema(self, type_name: str) -> ProcessSchema:
        return self.process_type(type_name).latest_schema

    def type_names(self) -> List[str]:
        with self._lock:
            return sorted(self._types)

    def versions_of(self, type_name: str) -> List[int]:
        return self.process_type(type_name).versions

    def resolve(self, type_name: str, version: int) -> ProcessSchema:
        """Schema resolver signature used by the instance store."""
        return self.schema(type_name, version)

    def storage_size_bytes(self) -> int:
        """Approximate persisted size of all schema versions (computed on demand)."""
        with self._lock:
            schemas = {
                f"{name}:{version}": process_type.schema_for(version).to_dict()
                for name, process_type in self._types.items()
                for version in process_type.versions
            }
        return len(json.dumps(schemas, sort_keys=True))

    def __len__(self) -> int:
        return len(self._types)
