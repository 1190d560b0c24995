"""The combined buildtime verifier.

:class:`SchemaVerifier` runs the structural, deadlock, data-flow and
(optionally) soundness checks over a schema and merges the findings into
one report.  It is invoked for schemas the change operations did not
produce — by the schema builder, on deployment, by ``repro.cli verify`` —
and once per new schema version before the repository releases it,
mirroring the paper's statement that schema correctness "constitutes an
important prerequisite for dynamic process changes".  A schema changed
only through the operations is correct by construction
(:mod:`repro.core.footprint`); the ad-hoc and migration paths therefore
do not run this verifier, and it stays the oracle the operations are
tested against.
"""

from __future__ import annotations

from typing import Optional

from repro.schema.graph import ProcessSchema
from repro.verification.dataflow import DataFlowVerifier
from repro.verification.deadlock import DeadlockVerifier
from repro.verification.report import VerificationReport
from repro.verification.soundness import SoundnessVerifier
from repro.verification.structural import StructuralVerifier


class SchemaVerifier:
    """Runs every buildtime check over a process schema.

    Args:
        check_soundness: Also run the (more expensive) state-space based
            soundness exploration.  Structural, deadlock and data-flow
            checks always run.
        soundness_max_states: State cap handed to the soundness verifier.
    """

    def __init__(self, check_soundness: bool = False, soundness_max_states: int = 20000) -> None:
        self.structural = StructuralVerifier()
        self.deadlock = DeadlockVerifier()
        self.dataflow = DataFlowVerifier()
        self.check_soundness = check_soundness
        self.soundness = SoundnessVerifier(max_states=soundness_max_states)

    def verify(self, schema: ProcessSchema) -> VerificationReport:
        """Verify ``schema`` and return the merged report."""
        report = VerificationReport(schema_id=schema.schema_id)
        report.merge(self.structural.verify(schema))
        report.merge(self.deadlock.verify(schema))
        report.merge(self.dataflow.verify(schema))
        if self.check_soundness and report.is_correct:
            report.merge(self.soundness.verify(schema))
        return report


def verify_schema(schema: ProcessSchema, check_soundness: bool = False) -> VerificationReport:
    """Convenience wrapper: verify ``schema`` with default settings."""
    return SchemaVerifier(check_soundness=check_soundness).verify(schema)
