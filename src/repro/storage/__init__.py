"""Storage layer of the ADEPT2 reproduction.

Implements the paper's Fig. 2 storage architecture: a versioned schema
repository, and an instance store in which unchanged instances are kept
redundancy-free (schema reference + instance data) while biased instances
carry a minimal substitution block that is overlaid on the original
schema on access — plus the write-ahead log file the persistence backend
journals to and simple secondary indexes.  The two representations the
paper compares the hybrid with (full copy per instance,
materialise-on-the-fly) are comparison apparatus: :mod:`repro.paper.storage`.
"""

from repro.storage.wal import WriteAheadLog
from repro.storage.serialization import instance_to_dict, instance_from_dict
from repro.storage.repository import SchemaRepository
from repro.storage.instance_store import InstanceStore, StoredInstance
from repro.storage.indexes import InstanceIndex

__all__ = [
    "WriteAheadLog",
    "instance_to_dict",
    "instance_from_dict",
    "SchemaRepository",
    "InstanceStore",
    "StoredInstance",
    "InstanceIndex",
]
