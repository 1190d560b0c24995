"""The typed exception hierarchy of the repro package.

Every error the library raises deliberately derives from
:class:`ReproError`, so callers of the :class:`repro.system.AdeptSystem`
façade (and of the underlying components) can catch one base class::

    try:
        system.change(case.instance_id).delete("examine_patient").apply()
    except repro.ReproError as error:
        ...  # schema, engine, operation, ad-hoc or migration problem

The concrete subclasses live next to the components that raise them
(:class:`repro.schema.SchemaError`, :class:`repro.runtime.EngineError`,
:class:`repro.core.OperationError`, :class:`repro.core.AdHocChangeError`,
:class:`repro.core.EvolutionError`, ...) and keep their historical import
paths; this module only hosts the shared base classes so it can be
imported from anywhere without creating import cycles.
"""

from __future__ import annotations

from typing import Any, Optional


class ReproError(Exception):
    """Base class of all exceptions raised by the repro package."""


class PersistenceError(ReproError):
    """Raised when the durability layer cannot journal or snapshot.

    Lives here because both the write-ahead log (:mod:`repro.storage.wal`)
    and the backend above it (:mod:`repro.system.persistence`, its
    historical import path) raise it.
    """


class MigrationError(ReproError):
    """Raised when a schema evolution / migration run fails as a whole.

    Carries the :class:`repro.core.MigrationReport` of the failed run (if
    one was produced) so callers can inspect the per-instance outcomes::

        try:
            system.evolve("online_order", change, migrate="strict")
        except MigrationError as error:
            print(error.report.summary())
    """

    def __init__(self, message: str, report: Optional[Any] = None) -> None:
        super().__init__(message)
        self.report = report
