"""Buildtime verification of process schemas.

ADEPT2 only accepts schemas that pass a set of formal checks — the paper
calls this "an important prerequisite for dynamic process changes":
structural well-formedness and block structure, absence of
deadlock-causing cycles (in particular those introduced by sync edges),
and data-flow correctness (no activity reads a mandatory input that may
not have been written).  Schemas produced by change operations need no
re-check: the operations keep these guarantees by construction
(:mod:`repro.core.footprint`), with this verifier as their test oracle.
"""

from repro.verification.report import (
    IssueCode,
    Severity,
    VerificationIssue,
    VerificationReport,
)
from repro.verification.structural import StructuralVerifier
from repro.verification.deadlock import DeadlockVerifier
from repro.verification.dataflow import DataFlowVerifier
from repro.verification.soundness import SoundnessVerifier
from repro.verification.verifier import SchemaVerifier, verify_schema

__all__ = [
    "IssueCode",
    "Severity",
    "VerificationIssue",
    "VerificationReport",
    "StructuralVerifier",
    "DeadlockVerifier",
    "DataFlowVerifier",
    "SoundnessVerifier",
    "SchemaVerifier",
    "verify_schema",
]
