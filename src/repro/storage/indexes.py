"""Secondary indexes over the instance store.

The migration manager needs "all running instances of type T on version
V" quickly even with thousands of stored instances; these simple inverted
indexes (by process type, schema version, status and bias flag) provide
that without scanning every record.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set

from repro.runtime.states import ACTIVE_STATUS_VALUES


def _discard(buckets: Dict, key, instance_id: str) -> None:
    """Take ``instance_id`` out of ``buckets[key]``; drop the bucket when it empties."""
    bucket = buckets[key]
    bucket.discard(instance_id)
    if not bucket:
        del buckets[key]


class InstanceIndex:
    """Inverted indexes over stored instance records."""

    def __init__(self) -> None:
        self._by_type: Dict[str, Set[str]] = {}
        self._by_version: Dict[tuple, Set[str]] = {}
        self._by_status: Dict[str, Set[str]] = {}
        self._biased: Set[str] = set()
        #: instance id -> ``(process_type, version, status, biased)`` as
        #: indexed: re-indexing touches exactly the buckets that hold the id,
        #: whatever number of versions the repository has ever released
        self._entries: Dict[str, tuple] = {}

    # ------------------------------------------------------------------ #

    def add(self, instance_id: str, record: Mapping) -> None:
        """Index (or re-index) one stored record."""
        entry = (
            record.get("process_type", ""),
            record.get("schema_version", 0),
            record.get("status", ""),
            bool(record.get("biased")),
        )
        if self._entries.get(instance_id) == entry:
            return
        self.remove(instance_id)
        self._entries[instance_id] = entry
        process_type, version, status, biased = entry
        self._by_type.setdefault(process_type, set()).add(instance_id)
        self._by_version.setdefault((process_type, version), set()).add(instance_id)
        self._by_status.setdefault(status, set()).add(instance_id)
        if biased:
            self._biased.add(instance_id)

    def remove(self, instance_id: str) -> None:
        """Drop an instance from every index."""
        entry = self._entries.pop(instance_id, None)
        if entry is None:
            return
        process_type, version, status, biased = entry
        _discard(self._by_type, process_type, instance_id)
        _discard(self._by_version, (process_type, version), instance_id)
        _discard(self._by_status, status, instance_id)
        if biased:
            self._biased.discard(instance_id)

    def clear(self) -> None:
        self._by_type.clear()
        self._by_version.clear()
        self._by_status.clear()
        self._biased.clear()
        self._entries.clear()

    # ------------------------------------------------------------------ #

    def by_type(self, process_type: str) -> List[str]:
        """Instance ids of one process type."""
        return sorted(self._by_type.get(process_type, set()))

    def by_version(self, process_type: str, version: int) -> List[str]:
        """Instance ids of one process type running on a specific version."""
        return sorted(self._by_version.get((process_type, version), set()))

    def active(self) -> List[str]:
        """Instance ids of every type that may still execute."""
        buckets = self._by_status
        return sorted(i for status in ACTIVE_STATUS_VALUES for i in buckets.get(status, ()))

    def active_by_type(self, process_type: str) -> List[str]:
        """Instance ids of one process type that may still execute."""
        return self._active_in(self._by_type.get(process_type, ()))

    def active_by_version(self, process_type: str, version: int) -> List[str]:
        """Instance ids of one process type on one version that may still execute."""
        return self._active_in(self._by_version.get((process_type, version), ()))

    def active_versions(self, process_type: str) -> Set[int]:
        """Versions of one process type on which at least one stored case may still execute.

        One ``any`` per version bucket of the type, stopping at the first
        active record.
        """
        entries = self._entries
        return {
            version
            for (type_name, version), bucket in self._by_version.items()
            if type_name == process_type
            and any(entries[i][2] in ACTIVE_STATUS_VALUES for i in bucket)
        }

    def _active_in(self, bucket) -> List[str]:
        # reads one entry per member of the bucket — never the other
        # types' cases, however many the store holds
        entries = self._entries
        return sorted(i for i in bucket if entries[i][2] in ACTIVE_STATUS_VALUES)

    def by_status(self, status: str) -> List[str]:
        """Instance ids currently in one lifecycle status."""
        return sorted(self._by_status.get(status, set()))

    def biased_instances(self) -> List[str]:
        """Instance ids carrying ad-hoc modifications."""
        return sorted(self._biased)

    def counts_by_version(self, process_type: str) -> Dict[int, int]:
        """Mapping of schema version to number of instances of the type."""
        counts: Dict[int, int] = {}
        for (type_name, version), bucket in self._by_version.items():
            if type_name == process_type:
                counts[version] = len(bucket)
        return counts
