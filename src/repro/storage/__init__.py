"""Storage layer of the ADEPT2 reproduction.

Implements the paper's Fig. 2 storage architecture: a versioned schema
repository, and an instance store in which unchanged instances are kept
redundancy-free (schema reference + instance data) while biased instances
carry a minimal substitution block that is overlaid on the original
schema on access.  Baseline representations (full copy per instance,
materialise-on-the-fly) are provided for the storage benchmark, plus the
write-ahead log file the persistence backend journals to and simple
secondary indexes.
"""

from repro.storage.wal import WriteAheadLog
from repro.storage.serialization import instance_to_dict, instance_from_dict
from repro.storage.repository import SchemaRepository
from repro.storage.representations import (
    FullCopyRepresentation,
    HybridSubstitutionRepresentation,
    MaterializeOnAccessRepresentation,
    RepresentationStrategy,
)
from repro.storage.instance_store import InstanceStore, StoredInstance
from repro.storage.indexes import InstanceIndex

__all__ = [
    "WriteAheadLog",
    "instance_to_dict",
    "instance_from_dict",
    "SchemaRepository",
    "RepresentationStrategy",
    "FullCopyRepresentation",
    "MaterializeOnAccessRepresentation",
    "HybridSubstitutionRepresentation",
    "InstanceStore",
    "StoredInstance",
    "InstanceIndex",
]
