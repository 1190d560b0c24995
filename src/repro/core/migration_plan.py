"""Migration plans: pay per change operation and per class, not per instance.

The paper's scalability argument is that compliance is decided by
"precise and easy to implement compliance conditions" per change
operation instead of replaying histories
(:meth:`~repro.core.operations.ChangeOperation.compliance_conflicts`).
This module carries the same idea over to *bulk* migration: a
:class:`TypeChange` is compiled **once** into a :class:`MigrationPlan`,
which holds

* the change's operations, whose conditions decide every verdict
  (:meth:`~repro.core.compliance.ComplianceChecker.check_with_conditions`);
* the exact **state projection** those conditions and the subsequent
  marking adaptation read; and
* the compliance **fingerprint** derived from it.  Two unbiased
  instances with equal fingerprints are indistinguishable to the whole
  migration pipeline: they receive the same
  :class:`~repro.core.compliance.ComplianceResult` and — when compliant
  — the same adapted marking.  Bulk migration therefore evaluates the
  conditions once per *equivalence class* and applies the verdict O(1)
  per member (see :class:`FingerprintCache`).

Soundness contract
------------------

``fingerprint_of_instance``/``fingerprint_of_record`` cover every input
of the per-instance work (verdict *and* adapted marking):

* the complete marking (node and edge states),
* the loop iteration counters (the adaptation's loop-end decisions),
* the values of the *relevant* data elements — the variables read by any
  guard or loop condition of the target schema, every element a change
  operation names, and the elements a deleted activity writes without a
  supplied value (its condition asks whether they hold one),
* the instance status and schema version, and
* the reduced-history projection — only when the conditions read
  history: the ``insertSyncEdge`` condition orders events.

Biased instances are fingerprinted only together with their canonical
bias payload (``fingerprint_of_record(..., include_bias=True)``): their
combined-schema checks are a pure function of (bias, projected state),
with the data projection widened by the bias's own guard and data
elements (:meth:`MigrationPlan.bias_extras`).  Rollback migrations are
never shared (they mutate the instance).  The property suite
cross-checks the contract by migrating randomized populations with
memoization on and off and asserting byte-identical reports and end
states.
"""

from __future__ import annotations

import ast
import hashlib
import json
import marshal
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set

from repro.core.compliance import ComplianceResult
from repro.core.conflicts import Conflict
from repro.core.evolution import TypeChange
from repro.core.operations import ChangeOperation, DeleteActivity, InsertSyncEdge
from repro.runtime.history import ExecutionHistory
from repro.runtime.instance import ProcessInstance
from repro.runtime.markings import Marking
from repro.runtime.worklist import WorklistManager
from repro.schema.graph import ProcessSchema


def _expression_names(expression: str) -> Set[str]:
    """Variable names referenced by a guard / loop-condition expression."""
    try:
        tree = ast.parse(expression, mode="eval")
    except SyntaxError:
        return set()
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _stable(value: Any) -> Any:
    """Order-canonical form of a (possibly nested) data value.

    Snapshots re-serialise records with ``sort_keys=True`` while live
    values keep insertion order — dicts are therefore hashed as sorted
    item tuples so equal values fingerprint equally on every provenance.
    """
    if isinstance(value, dict):
        return tuple((key, _stable(item)) for key, item in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_stable(item) for item in value)
    return value


class MigrationPlan:
    """A :class:`TypeChange` compiled for one old → new schema pair.

    Built once per evolution via :meth:`compile`; shared by every
    unbiased instance still running on ``old_schema``'s version.
    """

    def __init__(
        self,
        old_schema: ProcessSchema,
        new_schema: ProcessSchema,
        operations: Sequence[ChangeOperation],
        relevant_elements: Set[str],
        include_history: bool,
    ) -> None:
        self.old_schema = old_schema
        self.new_schema = new_schema
        self.operations = list(operations)
        #: data elements whose values the plan may read
        self.relevant_elements = relevant_elements
        self.include_history = include_history
        self._layout = old_schema.index.marking_layout()
        #: per-distinct-bias projection extensions (see :meth:`bias_extras`)
        self._bias_extras: Dict[Any, "BiasExtras"] = {}

    @classmethod
    def compile(
        cls,
        old_schema: ProcessSchema,
        new_schema: ProcessSchema,
        type_change: TypeChange,
    ) -> "MigrationPlan":
        """The plan of ``type_change``: its operations and the state they read."""
        operations = list(type_change.operations)
        relevant: Set[str] = set()
        for operation in operations:
            relevant |= operation.affected_elements()
            if isinstance(operation, DeleteActivity):
                # the condition asks whether each unsupplied written element has a value
                relevant.update(
                    write.element
                    for write in old_schema.writes_of(operation.activity_id)
                    if write.element not in operation.supply_values
                )
        # the adaptation's propagation pass evaluates guards and loop
        # conditions of the *target* schema over the instance data
        for edge in new_schema.edges:
            if edge.guard is not None:
                relevant |= _expression_names(edge.guard)
            if edge.loop_condition is not None:
                relevant |= _expression_names(edge.loop_condition)
        return cls(
            old_schema=old_schema,
            new_schema=new_schema,
            operations=operations,
            relevant_elements=relevant,
            include_history=any(isinstance(op, InsertSyncEdge) for op in operations),
        )

    # ------------------------------------------------------------------ #
    # fingerprints
    # ------------------------------------------------------------------ #

    # -- biased classes ------------------------------------------------- #

    def bias_extras(self, bias_payload: Mapping[str, Any]) -> "BiasExtras":
        """Projection extension for one canonical bias change log.

        A biased instance's migration additionally reads (a) the bias
        itself — overlap, structural and semantic checks, the combined
        schema — and (b) the data elements the bias's own guards and data
        edges introduce (the adaptation propagates over the *combined*
        schema).  Both are pure functions of the bias payload, computed
        once per distinct bias and cached.
        """
        key = _stable(bias_payload)
        extras = self._bias_extras.get(key)
        if extras is None:
            from repro.core.operations import operation_from_dict

            elements: Set[str] = set()
            parse_failed = False
            for op_payload in bias_payload.get("operations", []):
                try:
                    operation = operation_from_dict(op_payload)
                except Exception:
                    parse_failed = True
                    break
                guard = getattr(operation, "guard", None)
                if guard:
                    elements |= _expression_names(guard)
                elements |= operation.affected_elements()
            extras = BiasExtras(
                key=key, elements=frozenset(elements), supported=not parse_failed
            )
            self._bias_extras[key] = extras
        return extras

    def fingerprint_of_instance(self, instance: ProcessInstance) -> Optional[str]:
        """Compliance fingerprint of a live unbiased instance.

        Biased instances are not fingerprinted on this path (their
        verdict additionally depends on their private execution schema;
        the façade's record-level bias classes use
        :meth:`fingerprint_of_record` with ``include_bias=True``).
        """
        if instance.is_biased:
            return None
        history = instance.history.reduced_rows() if self.include_history else None
        # the marking part is the marking as a write-back would store it
        marking_part = Marking.stored_key(
            instance.marking.to_stored(instance.original_schema.index.marking_layout())
        )
        return self._digest(
            schema_version=instance.schema_version,
            status=instance.status.value,
            marking_part=marking_part,
            loop_iterations=instance.loop_iterations,
            values=instance.data.values,
            history=history,
        )

    def fingerprint_of_record(
        self, record: Mapping[str, Any], include_bias: bool = False
    ) -> Optional[str]:
        """Compliance fingerprint straight from a stored instance record.

        Produces exactly the digest :meth:`fingerprint_of_instance` would
        produce for the hydrated instance — without materialising it.
        The marking part of the digest is a slice of the record: the
        layout checksum and the two code strings of a positionally
        stored marking are hashed as they are.  The two logs are read in
        either stored form (text since format 3, lists before) and decoded
        only when the plan's digest covers them.

        ``include_bias=True`` additionally fingerprints *biased* records:
        the canonical bias payload joins the digest and the data
        projection is widened by the bias's own guard/data elements
        (:meth:`bias_extras`) — two biased records with equal fingerprints
        then receive identical migration outcomes, adapted markings and
        re-encoded representations.  Without it, biased records return
        ``None``.
        """
        bias_part = None
        extra_elements: Optional[frozenset] = None
        if record.get("biased"):
            if not include_bias:
                return None
            bias_payload = record.get("bias")
            if not bias_payload:
                return None
            extras = self.bias_extras(bias_payload)
            if not extras.supported:
                return None
            bias_part = extras.key
            extra_elements = extras.elements
        history = None
        if self.include_history:
            history = ExecutionHistory.from_dict(record.get("history", {})).reduced_rows()
        version = record.get("schema_version", 0)
        # a positional marking is its own projection; a keyed one written
        # before the positional form (unbiased, on the plan's version) is
        # keyed the way its hydrated case would be written back
        upgrade = bias_part is None and version == self.old_schema.version
        marking_part = Marking.stored_key(
            record.get("marking", {}), self._layout if upgrade else None
        )
        return self._digest(
            schema_version=version,
            status=record.get("status", "running"),
            marking_part=marking_part,
            loop_iterations=record.get("loop_iterations", {}),
            values=record.get("data", {}).get("values", {}),
            history=history,
            bias_part=bias_part,
            extra_elements=extra_elements,
        )

    def _digest(
        self,
        schema_version: int,
        status: str,
        marking_part: Any,
        loop_iterations: Mapping[str, int],
        values: Mapping[str, Any],
        history: Optional[List[Any]],
        bias_part: Any = None,
        extra_elements: Optional[frozenset] = None,
    ) -> str:
        relevant = self.relevant_elements
        if extra_elements:
            relevant = relevant | extra_elements
        names = sorted(name for name in relevant if name in values)
        payload = (
            schema_version,
            status,
            marking_part,
            sorted(loop_iterations.items()),
            [(name, _stable(values[name])) for name in names],
            [row[:4] + [_stable(row[4])] + row[5:] for row in history]
            if history is not None
            else None,
            bias_part,
        )
        # marshal is the fastest deterministic serialiser for the
        # JSON-shaped payloads both fingerprint sources produce; the
        # fingerprint only lives for the duration of one evolution, so
        # cross-version marshal stability is irrelevant.  Format version
        # 2 is required: version 3+ encodes object *identity*
        # (backreferences for shared objects), which would fingerprint
        # equal values differently depending on string interning.
        # ``_stable`` canonicalises nested container values (snapshots
        # re-serialise records with sorted keys, so raw dict order is not
        # provenance-stable).  Payloads holding unmarshalable in-memory
        # objects fall back to json — object identity then keeps
        # distinct objects in distinct classes, which costs sharing,
        # never soundness.
        try:
            rendered = marshal.dumps(payload, 2)
        except (ValueError, TypeError):
            rendered = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
        return hashlib.sha256(rendered).hexdigest()


# --------------------------------------------------------------------------- #
# the per-class verdict cache
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class BiasExtras:
    """Cached projection extension for one distinct bias change log."""

    #: canonical (hashable) form of the bias payload — joins the digest
    key: Any
    #: data elements the bias's guards and data edges read or write
    elements: frozenset
    #: False when the payload could not be parsed (never share then)
    supported: bool = True


@dataclass
class ClassVerdict:
    """The shared outcome of one fingerprint equivalence class."""

    fingerprint: str
    compliance: ComplianceResult
    #: adapted marking template (``None`` when not compliant)
    adapted_marking: Optional[Marking] = None
    #: members that received this verdict so far (for telemetry)
    members: int = 0
    #: the per-instance ``MigrationOutcome`` this class maps to, cached
    #: by the migration manager so members never re-derive it
    outcome: Any = None
    _effect: Optional["StoredEffect"] = field(default=None, init=False, repr=False, compare=False)

    @property
    def compliant(self) -> bool:
        return self.compliance.compliant

    @property
    def conflicts(self) -> List[Conflict]:
        return self.compliance.conflicts

    def stored_effect(self, schema: ProcessSchema) -> "StoredEffect":
        """What rewriting a stored member onto ``schema`` applies (cached).

        ``schema`` is the target version of the verdict's plan — the only
        one its adapted marking is laid out for.  The class members are
        unbiased, so the marking's stored form is what a write-back of
        any migrated member would store, and whether it finishes the case
        and what work it offers are the same for every member.
        """
        effect = self._effect
        if effect is None:
            marking = self.adapted_marking
            if marking is None:
                raise ValueError("non-compliant classes have no adapted marking")
            offers, _ = WorklistManager.work_of(schema, marking)
            effect = self._effect = StoredEffect(
                marking=marking.to_stored(schema.index.marking_layout()),
                finished=marking.reached_end(schema),
                offers=offers,
            )
        return effect


@dataclass(frozen=True)
class StoredEffect:
    """A compliant class's effect on each of its stored members."""

    #: the adapted marking in stored form (shared — treat as immutable)
    marking: Dict[str, Any]
    #: the adapted marking completed the end node: members finish
    finished: bool
    #: activity id -> role of what the adapted marking activates
    offers: Dict[str, Optional[str]]


class FingerprintCache:
    """Verdicts per fingerprint class, with hit/miss telemetry."""

    def __init__(self) -> None:
        self._verdicts: Dict[str, ClassVerdict] = {}
        self.hits = 0
        self.misses = 0

    def get(self, fingerprint: str) -> Optional[ClassVerdict]:
        verdict = self._verdicts.get(fingerprint)
        if verdict is not None:
            self.hits += 1
            verdict.members += 1
        return verdict

    def put(self, verdict: ClassVerdict) -> ClassVerdict:
        """Insert a verdict; the first one per class wins.

        Concurrent touch paths (lazy rollout) may derive the same class
        verdict twice; ``setdefault`` keeps exactly one so every member
        shares one template object.  Equal fingerprints produce identical
        verdicts (property-tested), so losing the race is harmless.
        """
        existing = self._verdicts.setdefault(verdict.fingerprint, verdict)
        if existing is verdict:
            self.misses += 1
        else:
            self.hits += 1
        existing.members += 1
        return existing

    def __len__(self) -> int:
        return len(self._verdicts)

    @property
    def classes(self) -> int:
        return len(self._verdicts)
