"""Progressive rollout state machine for zero-downtime evolution.

``AdeptSystem.evolve(..., rollout="lazy")`` publishes a new schema
version *without migrating the population*: the operation shrinks to the
version publish, and every case adopts the new version **on its next
touch** (claim, step, hydrate or sweep) via the compiled
:class:`~repro.core.migration_plan.MigrationPlan` — an O(1) decision for
every memoized fingerprint class.  ``rollout="canary"`` first migrates
only a deterministic ``fraction`` of touched cases and watches the
observed conflict rate; the rollout then either *promotes* itself to the
full lazy mode or *auto-rolls back*, reverting (or pinning) the canary
cohort.

This module holds the pure state machine — one :class:`Rollout` object
per in-flight evolution.  The façade owns the journaling and instance
mutation around it, and calls it only under its execution lock;
:mod:`repro.system.persistence` serialises the state into snapshots and
replays the rollout WAL records so an in-flight rollout survives a crash
and resumes where it stopped.

State machine::

                     evolve(rollout="lazy")
    (start) ──────────────────────────────────────► MIGRATING ──► COMPLETED
       │                                                ▲          (residue
       │ evolve(rollout="canary", fraction=k)           │ promote   drained)
       └──────────────► OBSERVING ──────────────────────┘
                           │  conflict rate > threshold
                           ▼  after >= min_observations
                      ROLLED_BACK  (cohort reverted or pinned,
                                    version withdrawn/retired)

Decisions are taken exactly once: the first attempt that meets the
decision condition sets :attr:`Rollout.pending_decision`; the façade runs
the transition when that attempt's operation ends.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Mapping, Optional, Set

from repro.core.evolution import TypeChange

#: Rollout modes accepted by ``AdeptSystem.evolve(rollout=...)``.
ROLLOUT_EAGER = "eager"
ROLLOUT_LAZY = "lazy"
ROLLOUT_CANARY = "canary"

#: Rollout states.
STATE_OBSERVING = "observing"      # canary: only the cohort migrates
STATE_MIGRATING = "migrating"      # lazy (or promoted canary): every touch migrates
STATE_COMPLETED = "completed"      # residue drained; rollout retired
STATE_ROLLED_BACK = "rolled_back"  # canary refused the version

#: Canary rollback policies.
POLICY_REVERT = "revert"  # restore every adopted case to its pre-adoption state
POLICY_PIN = "pin"        # adopted cases stay on the (retired) new version

_COHORT_BUCKETS = 10_000


def cohort_bucket(instance_id: str) -> int:
    """Deterministic, uniform bucket of one case id in ``[0, 10000)``.

    Independent of ``PYTHONHASHSEED`` — the canary cohort must be the
    same on every run and after every recovery.
    """
    digest = hashlib.sha256(instance_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % _COHORT_BUCKETS


class Rollout:
    """One in-flight progressive rollout of a process type.

    The façade reads and mutates it only inside its operations, which
    run one at a time.
    """

    def __init__(
        self,
        type_id: str,
        type_change: TypeChange,
        mode: str,
        *,
        fraction: float = 0.1,
        conflict_threshold: float = 0.5,
        min_observations: int = 20,
        policy: str = POLICY_REVERT,
        decide_externally: bool = False,
    ) -> None:
        if mode not in (ROLLOUT_LAZY, ROLLOUT_CANARY):
            raise ValueError(f"unknown rollout mode {mode!r}")
        if policy not in (POLICY_REVERT, POLICY_PIN):
            raise ValueError(f"unknown canary policy {policy!r}")
        if mode == ROLLOUT_CANARY and not (0.0 < fraction <= 1.0):
            raise ValueError("canary fraction must be in (0, 1]")
        self.type_id = type_id
        self.type_change = type_change
        self.from_version = type_change.from_version
        self.to_version = type_change.to_version
        self.mode = mode
        self.fraction = float(fraction)
        self.conflict_threshold = float(conflict_threshold)
        self.min_observations = int(min_observations)
        self.policy = policy
        #: when True this rollout never takes the canary verdict itself —
        #: an external control plane (the shard router, which sees the
        #: attempts of *every* shard) observes the aggregated counters and
        #: calls promote/roll_back explicitly.  A single shard's local
        #: sample would otherwise decide on a fraction of the evidence.
        self.decide_externally = bool(decide_externally)
        self.state = STATE_OBSERVING if mode == ROLLOUT_CANARY else STATE_MIGRATING
        #: ids migrated by this rollout (exactly-once bookkeeping).
        self.adopted: Set[str] = set()
        #: ids whose adoption attempt conflicted — they stay on the old
        #: version and are not re-attempted (mirrors the eager policy of
        #: leaving conflicting cases behind).
        self.conflicted: Set[str] = set()
        #: canary only: pre-adoption state (``instance_to_dict``) of every
        #: adopted cohort member, kept until the observe/rollback decision.
        self.pre_states: Dict[str, Dict[str, Any]] = {}
        #: counters (telemetry, not journaled: they survive in snapshots
        #: and restart from zero on a WAL-only recovery)
        self.touches = 0
        self.swept = 0
        #: one-shot decision slot: None until the canary verdict is taken.
        self.pending_decision: Optional[str] = None
        # set lazily by the façade: compiled plan + shared verdict cache
        self.plan: Optional[Any] = None
        self.cache: Optional[Any] = None

    # -- cohort -------------------------------------------------------- #

    def in_cohort(self, instance_id: str) -> bool:
        """True when a touched case belongs to the canary cohort."""
        if self.mode != ROLLOUT_CANARY:
            return True
        return cohort_bucket(instance_id) < int(self.fraction * _COHORT_BUCKETS)

    # -- observation bookkeeping --------------------------------------- #

    @property
    def attempts(self) -> int:
        """Cohort migration attempts observed so far (adoptions + conflicts)."""
        return len(self.adopted) + len(self.conflicted)

    @property
    def observed_conflict_rate(self) -> float:
        attempts = self.attempts
        return (len(self.conflicted) / attempts) if attempts else 0.0

    def note_adoption(
        self, instance_id: str, pre_state: Optional[Mapping[str, Any]] = None
    ) -> Optional[str]:
        """Record one successful adoption; returns a pending canary decision."""
        self.conflicted.discard(instance_id)
        self.adopted.add(instance_id)
        if pre_state is not None and self.state == STATE_OBSERVING:
            self.pre_states[instance_id] = dict(pre_state)
        return self._maybe_decide()

    def note_conflict(self, instance_id: str) -> Optional[str]:
        """Record one conflicting adoption attempt; returns a pending decision."""
        if instance_id not in self.adopted:
            self.conflicted.add(instance_id)
        return self._maybe_decide()

    def _maybe_decide(self) -> Optional[str]:
        """Take the canary verdict exactly once."""
        if self.state != STATE_OBSERVING or self.pending_decision is not None:
            return None
        if self.decide_externally:
            return None
        if self.attempts < self.min_observations:
            return None
        if self.observed_conflict_rate > self.conflict_threshold:
            self.pending_decision = "rollback"
        else:
            self.pending_decision = "promote"
        return self.pending_decision

    # -- transitions (the façade journals around these) ----------------- #

    def promote(self) -> bool:
        """OBSERVING → MIGRATING; returns False when already decided."""
        if self.state != STATE_OBSERVING:
            return False
        self.state = STATE_MIGRATING
        self.pre_states.clear()  # no rollback after promotion
        return True

    def roll_back(self) -> bool:
        """OBSERVING → ROLLED_BACK; returns False when already decided."""
        if self.state != STATE_OBSERVING:
            return False
        self.state = STATE_ROLLED_BACK
        return True

    def complete(self) -> bool:
        """MIGRATING → COMPLETED; returns False unless currently migrating."""
        if self.state != STATE_MIGRATING:
            return False
        self.state = STATE_COMPLETED
        return True

    @property
    def active(self) -> bool:
        return self.state in (STATE_OBSERVING, STATE_MIGRATING)

    # -- monitoring ----------------------------------------------------- #

    def progress(self) -> Dict[str, Any]:
        """A structured snapshot for monitoring and CLI output."""
        return {
            "type_id": self.type_id,
            "mode": self.mode,
            "state": self.state,
            "from_version": self.from_version,
            "to_version": self.to_version,
            "adopted": len(self.adopted),
            "conflicted": len(self.conflicted),
            "attempts": self.attempts,
            "observed_conflict_rate": round(self.observed_conflict_rate, 4),
            "conflict_threshold": self.conflict_threshold,
            "fraction": self.fraction,
            "touches": self.touches,
            "swept": self.swept,
            "policy": self.policy,
        }

    # -- snapshot persistence ------------------------------------------- #

    def to_dict(self) -> Dict[str, Any]:
        """Serialise the resumable rollout state (checkpoint payload)."""
        return {
            "type_id": self.type_id,
            "change": self.type_change.to_dict(),
            "mode": self.mode,
            "state": self.state,
            "fraction": self.fraction,
            "conflict_threshold": self.conflict_threshold,
            "min_observations": self.min_observations,
            "policy": self.policy,
            "decide_externally": self.decide_externally,
            "adopted": sorted(self.adopted),
            "conflicted": sorted(self.conflicted),
            "pre_states": dict(self.pre_states),
            "touches": self.touches,
            "swept": self.swept,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Rollout":
        rollout = cls(
            payload["type_id"],
            TypeChange.from_dict(payload["change"]),
            payload["mode"],
            fraction=payload.get("fraction", 0.1),
            conflict_threshold=payload.get("conflict_threshold", 0.5),
            min_observations=payload.get("min_observations", 20),
            policy=payload.get("policy", POLICY_REVERT),
            decide_externally=payload.get("decide_externally", False),
        )
        rollout.state = payload.get("state", rollout.state)
        rollout.adopted = set(payload.get("adopted", ()))
        rollout.conflicted = set(payload.get("conflicted", ()))
        rollout.pre_states = {
            key: dict(value) for key, value in payload.get("pre_states", {}).items()
        }
        rollout.touches = int(payload.get("touches", 0))
        rollout.swept = int(payload.get("swept", 0))
        return rollout

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Rollout({self.type_id!r}, v{self.from_version}->v{self.to_version}, "
            f"mode={self.mode}, state={self.state}, adopted={len(self.adopted)}, "
            f"conflicted={len(self.conflicted)})"
        )


#: Ordered list of rollout states (documentation + monitoring helpers).
ALL_STATES = (STATE_OBSERVING, STATE_MIGRATING, STATE_COMPLETED, STATE_ROLLED_BACK)
