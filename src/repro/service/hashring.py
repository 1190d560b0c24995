"""A sha256 consistent-hash ring for instance-to-shard routing.

Routing must satisfy two properties the rest of the service tier builds
on:

* **determinism across processes** — the router, every shard and any
  monitoring client must agree on who owns a case id without talking to
  each other.  ``hash()`` is randomised per process (PYTHONHASHSEED),
  so the ring hashes with sha256 only.
* **minimal disruption** — adding or removing one shard must remap only
  ~K/N of K keys (each with ``replicas`` virtual points per shard, the
  classic consistent-hashing bound), so a rebalance hands over a small
  fraction of the population instead of reshuffling everything.

A lookup hashes its key once: :meth:`HashRing.shard_for` memoises key →
owner, and every membership change starts a fresh memo, so a memoised
answer is always the one the current ring computes.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Sequence

from repro.service.errors import ServiceError

__all__ = ["HashRing"]


def _point(value: str) -> int:
    """A stable 64-bit position on the ring for ``value``."""
    return int.from_bytes(hashlib.sha256(value.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Consistent hashing of string keys onto named shards.

    Each shard contributes ``replicas`` virtual points; a key is owned
    by the shard of the first point at or after the key's own position
    (wrapping around).  With the default 128 replicas the load spread
    between shards stays within a few tens of percent, and a membership
    change moves only the keys between the affected points.
    """

    #: memoised lookups before the memo starts over (bounds its memory)
    _MEMO_CAP = 16384

    def __init__(self, shard_ids: Iterable[str], replicas: int = 128) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._shards: List[str] = []
        self._points: List[int] = []
        self._owners: List[str] = []
        self._memo: Dict[str, str] = {}
        for shard_id in shard_ids:
            self.add_shard(shard_id)

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #

    @property
    def shard_ids(self) -> List[str]:
        """The member shards, in insertion order."""
        return list(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._shards

    def add_shard(self, shard_id: str) -> None:
        if shard_id in self._shards:
            raise ServiceError(f"shard {shard_id!r} is already on the ring")
        self._shards.append(shard_id)
        for replica in range(self.replicas):
            point = _point(f"{shard_id}#{replica}")
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, shard_id)
        self._memo = {}

    def remove_shard(self, shard_id: str) -> None:
        if shard_id not in self._shards:
            raise ServiceError(f"shard {shard_id!r} is not on the ring")
        self._shards.remove(shard_id)
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != shard_id
        ]
        self._points = [point for point, _ in keep]
        self._owners = [owner for _, owner in keep]
        self._memo = {}

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    def shard_for(self, key: str) -> str:
        """The shard owning ``key`` (raises when the ring is empty)."""
        memo = self._memo
        owner = memo.get(key)
        if owner is None:
            if not self._points:
                raise ServiceError("hash ring has no shards")
            index = bisect.bisect(self._points, _point(key))
            if index == len(self._points):
                index = 0
            owner = self._owners[index]
            if len(memo) >= self._MEMO_CAP:
                memo.clear()
            memo[key] = owner
        return owner

    def partition(self, keys: Sequence[str]) -> Dict[str, List[str]]:
        """Group ``keys`` by owning shard, preserving input order per shard."""
        groups: Dict[str, List[str]] = {}
        memo = self._memo
        for key in keys:
            owner = memo.get(key) or self.shard_for(key)
            groups.setdefault(owner, []).append(key)
        return groups

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HashRing(shards={self._shards}, replicas={self.replicas})"
