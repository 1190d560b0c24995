"""Measured communication telemetry for the service tier.

:mod:`repro.paper.distributed.costs` *models* the ADEPT2 cost factors —
hand-overs between servers, change propagation on evolution, migration
work and raw data transfer — by counting simulated events.  The shard
processes emit the same counters for real traffic: every frame on the
wire adds measured bytes to ``data_transfer``, every case exported to
or imported from another shard is a ``handover``, every schema
publish/activate that reaches a shard is ``change_propagation`` and
every case actually migrated there counts under ``migration``.

The counter names intentionally match
:meth:`repro.paper.distributed.costs.CommunicationCosts.as_dict`, so a
fleet's measured counters (``ShardRouter.telemetry()``) read against the A5
simulation (``tests/paper/test_ablations.py::TestA5Distributed``) factor
by factor.
"""

from __future__ import annotations

import threading
from typing import Dict

__all__ = ["ShardTelemetry"]


class ShardTelemetry:
    """Thread-safe counters a shard accumulates while serving."""

    _COUNTERS = (
        "handover",
        "change_propagation",
        "migration",
        "data_transfer",
        "requests",
        "steps",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {name: 0 for name in self._COUNTERS}

    def add(self, counter: str, amount: int = 1) -> None:
        if counter not in self._counts:
            raise KeyError(f"unknown telemetry counter {counter!r}")
        with self._lock:
            self._counts[counter] += amount

    def note_request(self, transferred: int, steps: int) -> None:
        """One served request: its frames' bytes and the steps it took."""
        counts = self._counts
        with self._lock:
            counts["requests"] += 1
            counts["data_transfer"] += transferred
            counts["steps"] += steps

    def as_dict(self) -> Dict[str, int]:
        """A snapshot, with ``total`` summing the ADEPT2 cost factors."""
        with self._lock:
            snapshot = dict(self._counts)
        snapshot["total"] = (
            snapshot["handover"]
            + snapshot["change_propagation"]
            + snapshot["migration"]
        )
        return snapshot

    @staticmethod
    def merge(snapshots: "list[Dict[str, int]]") -> Dict[str, int]:
        """Sum per-shard snapshots into a fleet-wide view."""
        merged: Dict[str, int] = {}
        for snapshot in snapshots:
            for key, value in snapshot.items():
                merged[key] = merged.get(key, 0) + value
        return merged
