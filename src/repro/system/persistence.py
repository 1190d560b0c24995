"""The durability layer behind the :class:`~repro.system.AdeptSystem` façade.

The paper's Fig. 2 storage architecture — a versioned schema repository
plus redundancy-free instance records (hybrid substitution representation
for biased instances) — is implemented in :mod:`repro.storage`.  This
module wires it into the façade as an optional :class:`PersistentBackend`
so an ``AdeptSystem`` survives restarts:

* **journaling** — every committed mutation of the system (instance
  starts, activity steps with their actual outputs, ad-hoc change sets,
  schema deployments, evolutions with migration, saves, deletions) is
  appended to one :class:`~repro.storage.wal.WriteAheadLog` as a *typed
  record* the moment it commits in memory;
* **checkpointing** — :meth:`PersistentBackend.write_snapshot` captures
  the whole system (all schema versions, all instance records, the case
  counters) in a single atomically-replaced snapshot file and truncates
  the log;
* **recovery** — :meth:`PersistentBackend.recover` loads the latest
  snapshot and *replays the WAL suffix* on top of it: a record replays
  by calling the method that journaled it (deployments, starts, aborts,
  deletions, evolutions, every rollout transition); steps and change
  sets are re-executed through the engine and changer that produced
  them.  Replayed schema versions and rollout
  transitions are reconciled against the journal — a mismatch raises
  :class:`RecoveryError`.  A torn trailing record (crash mid-append) is
  ignored — the commit point of a mutation is its complete WAL line.

The WAL-suffix replay is the incremental-frame idea from the related
work: a snapshot bounds how much history recovery has to re-execute, and
everything after it is re-derived rather than stored redundantly.

Record format (JSON lines, one object per line)::

    {"kind": "<record kind>", "seq": <monotonic int>, ...fields}

See ``docs/persistence.md`` for the full record catalogue and the
crash-consistency contract.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, TYPE_CHECKING

from repro.core.evolution import ProcessType, TypeChange
from repro.core.changelog import ChangeLog
from repro.errors import PersistenceError, ReproError
from repro.schema.graph import ProcessSchema
from repro.storage.serialization import stored_record
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.facade import AdeptSystem

logger = logging.getLogger(__name__)

#: Snapshot format written by this code (bumped on incompatible layout
#: changes).  Format 3 holds every record's history rows and data writes
#: as compact JSON text (``storage.serialization.stored_record``); format
#: 2 may hold positionally stored markings and history row lists; format
#: 1 keyed markings and per-entry history dicts.  All three load — every
#: form is still the read path of some record.
FORMAT_VERSION = 3
READABLE_FORMATS = (1, 2, 3)


def shard_store_path(base: str, shard_id: str) -> str:
    """The canonical store directory of one shard under a base directory.

    The service tier runs one :class:`PersistentBackend` per shard
    process; every component (supervisor, CLI, a restarted shard) must
    derive the same path from ``(base, shard_id)`` so a shard always
    reopens *its own* WAL and snapshot.  Layout: ``<base>/<shard_id>/``.
    """
    if not shard_id or "/" in shard_id or shard_id in (".", ".."):
        raise ReproError(f"invalid shard id {shard_id!r} for a store path")
    return str(Path(base) / shard_id)


def write_durably(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` so that a power cut leaves one or the other.

    The text goes to ``<name>.tmp`` beside it, which is fsynced before
    it atomically replaces ``path``; the directory is fsynced after the
    rename, so the new name is durable too.
    """
    temporary = path.with_name(path.name + ".tmp")
    with open(temporary, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)
    descriptor = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


#: All typed WAL record kinds, in the order they were introduced.
KIND_TYPE_DEPLOYED = "type_deployed"
KIND_TYPE_ADOPTED = "type_adopted"
KIND_INSTANCE_STARTED = "instance_started"
KIND_INSTANCE_ADOPTED = "instance_adopted"
KIND_STEP = "step"
KIND_INSTANCE_ABORTED = "instance_aborted"
KIND_ADHOC_CHANGE = "adhoc_change"
KIND_EVOLUTION = "evolution"
KIND_INSTANCE_SAVED = "instance_saved"
KIND_INSTANCE_DELETED = "instance_deleted"
# progressive rollout (lazy / canary evolution) records
KIND_ROLLOUT_STARTED = "rollout_started"
KIND_ROLLOUT_MIGRATED = "rollout_migrated"
KIND_ROLLOUT_PROMOTED = "rollout_promoted"
KIND_ROLLOUT_ROLLED_BACK = "rollout_rolled_back"
KIND_ROLLOUT_COMPLETED = "rollout_completed"
KIND_ROLLOUT_CONFLICTED = "rollout_conflicted"

ALL_KINDS = (
    KIND_TYPE_DEPLOYED,
    KIND_TYPE_ADOPTED,
    KIND_INSTANCE_STARTED,
    KIND_INSTANCE_ADOPTED,
    KIND_STEP,
    KIND_INSTANCE_ABORTED,
    KIND_ADHOC_CHANGE,
    KIND_EVOLUTION,
    KIND_INSTANCE_SAVED,
    KIND_INSTANCE_DELETED,
    KIND_ROLLOUT_STARTED,
    KIND_ROLLOUT_MIGRATED,
    KIND_ROLLOUT_PROMOTED,
    KIND_ROLLOUT_ROLLED_BACK,
    KIND_ROLLOUT_COMPLETED,
    KIND_ROLLOUT_CONFLICTED,
)


class RecoveryError(PersistenceError):
    """Raised when a snapshot or WAL suffix cannot be replayed consistently."""


@dataclass
class RecoveryReport:
    """What :meth:`PersistentBackend.recover` found and replayed."""

    snapshot_loaded: bool = False
    snapshot_instances: int = 0
    snapshot_schema_versions: int = 0
    replayed_records: int = 0
    replayed_by_kind: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        lines = [
            f"snapshot: {'loaded' if self.snapshot_loaded else 'none'}"
            + (
                f" ({self.snapshot_instances} instance(s), "
                f"{self.snapshot_schema_versions} schema version(s))"
                if self.snapshot_loaded
                else ""
            ),
            f"wal: {self.replayed_records} record(s) replayed",
        ]
        for kind in sorted(self.replayed_by_kind):
            lines.append(f"  {kind:<20} {self.replayed_by_kind[kind]}")
        return "\n".join(lines)


class _JournalState(threading.local):
    """One thread's journaling state (class attributes are the defaults).

    ``suspended`` counts the open :meth:`PersistentBackend.suspended`
    scopes, ``deferring`` the open :meth:`PersistentBackend.commit_scope`
    scopes, and ``ticket`` is the WAL ticket of the last record the
    thread enqueued inside a commit scope and has not committed yet.
    """

    suspended = 0
    deferring = 0
    ticket = 0


class _Suspension:
    """The ``with`` scope of :meth:`PersistentBackend.suspended`.

    A plain object rather than a generator: every adoption enters one.
    The nesting count lives in the backend's thread-local, so the
    backend keeps one instance for all threads.
    """

    __slots__ = ("_state",)

    def __init__(self, state: _JournalState) -> None:
        self._state = state

    def __enter__(self) -> None:
        self._state.suspended += 1

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._state.suspended -= 1


class _CommitScope:
    """The ``with`` scope of :meth:`PersistentBackend.commit_scope`."""

    __slots__ = ("_backend",)

    def __init__(self, backend: "PersistentBackend") -> None:
        self._backend = backend

    def __enter__(self) -> None:
        self._backend._state.deferring += 1

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        state = self._backend._state
        state.deferring -= 1
        if not state.deferring:
            self._backend.commit()


class PersistentBackend:
    """Write-ahead log + snapshot durability for one :class:`AdeptSystem`.

    The backend owns a directory::

        <directory>/wal.jsonl       append-only typed record log
        <directory>/snapshot.json   latest checkpoint (atomically replaced)

    It is *passive*: the façade calls :meth:`journal` after each committed
    mutation and :meth:`write_snapshot` on checkpoint; :meth:`recover`
    rebuilds a fresh system from snapshot + WAL suffix.  While
    :meth:`suspended` is active every :meth:`journal` call is a no-op —
    recovery replays mutations through the normal façade code paths and
    must not re-journal them.
    """

    def __init__(self, directory: str) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.wal = WriteAheadLog(str(self.directory / "wal.jsonl"))
        self.snapshot_path = self.directory / "snapshot.json"
        self._seq = 0
        #: the WAL ticket of the last record enqueued
        self._ticket = 0
        # sequence allocation + WAL enqueue happen atomically under this
        # lock, so the file order of records always matches their seq
        # order; the (potentially blocking) group-commit flush happens
        # outside it — see :meth:`journal`
        self._seq_lock = threading.Lock()
        # suspension and deferred commits are per *thread*: while one
        # thread replays or applies a compound mutation (an evolve whose
        # typed record covers every inner step), other threads must keep
        # journaling — and committing — their own work
        self._state = _JournalState()
        self._suspended = _Suspension(self._state)
        self._commit_scope = _CommitScope(self)
        self._bootstrap_seq()

    def _bootstrap_seq(self) -> None:
        """Continue the record sequence after the last durable record.

        The snapshot and the WAL records read here are kept for
        :meth:`recover`, so one ``open`` parses each file once; any write
        through this backend in between drops them.
        """
        snapshot, records = self.load_snapshot(), self.wal.records()
        self._read_at_open = (snapshot, records)
        if snapshot is not None:
            self._seq = int(snapshot.get("next_seq", 0))
        for record in records:
            self._seq = max(self._seq, int(record.get("seq", 0)))

    # ------------------------------------------------------------------ #
    # journaling
    # ------------------------------------------------------------------ #

    @property
    def active(self) -> bool:
        """True when this thread's journal calls are being recorded."""
        return self._state.suspended == 0

    def suspended(self) -> "_Suspension":
        """Suppress journaling *on the calling thread* (recovery replay,
        compound mutations covered by one typed record).  Other threads'
        records keep flowing — the suspension covers the suspending
        thread's own mutation only.  Scopes nest.
        """
        return self._suspended

    def commit_scope(self) -> "_CommitScope":
        """One commit point for every record this thread journals inside.

        Records are enqueued exactly as outside the scope (same ``seq``,
        same bytes, one record per call); the scope defers their WAL
        commit to its end — also when the body raises — so a call that
        journals many records pays one write + flush.  The caller must
        not acknowledge anything journaled inside before the scope ends;
        a checkpoint in between commits the records for it
        (:meth:`write_snapshot` commits every enqueued record before it
        truncates).  Scopes nest; the outermost one commits.
        """
        return self._commit_scope

    def commit(self) -> None:
        """Commit what this thread journaled so far inside a commit scope."""
        state = self._state
        ticket = state.ticket
        if ticket:
            state.ticket = 0
            self.wal.commit(ticket)

    def journal(self, kind: str, **fields: Any) -> Optional[int]:
        """Append one typed record; returns its sequence number (or None).

        A field whose value is ``None`` is left out of the record: every
        reader takes a missing field for ``None`` (``record.get(name)``).

        Safe to call from many threads.  The sequence number is allocated
        and the record enqueued in one critical section (file order ==
        seq order); the durability wait is a group commit — concurrent
        journal calls share one write + flush — unless the calling
        thread is inside a :meth:`commit_scope`, whose end commits.
        """
        state = self._state
        if state.suspended:
            return None
        record = {name: value for name, value in fields.items() if value is not None}
        record["kind"] = kind
        with self._seq_lock:
            self._read_at_open = None
            self._seq += 1
            seq = record["seq"] = self._seq
            ticket = self._ticket = self.wal.enqueue(record)
        if state.deferring:
            state.ticket = ticket
        else:
            self.wal.commit(ticket)
        return seq

    def wal_records(self) -> List[Dict[str, Any]]:
        """All complete records currently in the log (torn tail ignored)."""
        return self.wal.records()

    def close(self) -> None:
        """Release the WAL file handle (the backend can be reopened later)."""
        self.wal.close()

    # ------------------------------------------------------------------ #
    # snapshot (checkpoint)
    # ------------------------------------------------------------------ #

    def write_snapshot(self, system: "AdeptSystem") -> None:
        """Capture the system state atomically and truncate the WAL.

        The caller (``AdeptSystem.checkpoint``) holds the execution lock
        and has already flushed every dirty live instance into the
        instance store, so the store records plus the schema repository
        are the complete state; a record still in a pre-format-3 form is
        written in the stored form.  Records other operations enqueued
        before the lock came to the checkpoint may still wait for their
        group commit: every enqueued record is committed first, so the
        truncation finds none pending, and a thread waiting on one of
        them finds it committed and returns.

        The snapshot survives a power cut: :func:`write_durably` writes
        it to a temporary file that is fsynced before it atomically
        replaces the old snapshot, and fsyncs the directory after the
        rename, so the new name is durable too.  Only then is the log
        truncated — a crash between the steps replays the (now
        redundant) WAL suffix, whose records the snapshot's ``next_seq``
        marks as covered.
        """
        repository = system.repository
        schemas: List[Dict[str, Any]] = []
        for type_name in repository.type_names():
            for version in repository.versions_of(type_name):
                schemas.append(repository.schema(type_name, version).to_dict())
        instances = {
            instance_id: stored_record(record)
            for instance_id, record in system.store.scan_records()
        }
        payload = {
            "format": FORMAT_VERSION,
            "next_seq": self._seq,
            "case_counters": dict(system._case_counters),
            "schemas": schemas,
            "instances": instances,
        }
        payload.update(system.evolution.snapshot())
        self.wal.commit(self._ticket)
        write_durably(self.snapshot_path, json.dumps(payload, sort_keys=True))
        self.wal.truncate()
        self._read_at_open = None

    def load_snapshot(self) -> Optional[Dict[str, Any]]:
        """The latest snapshot payload, or ``None`` when none exists.

        A torn snapshot file (crash during the very first checkpoint,
        before the atomic replace) is treated as absent.
        """
        if not self.snapshot_path.exists():
            return None
        try:
            payload = json.loads(self.snapshot_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            return None
        if payload.get("format") not in READABLE_FORMATS:
            message = (
                f"snapshot format {payload.get('format')!r} is not supported "
                f"(expected one of {READABLE_FORMATS})"
            )
            logger.warning("refusing snapshot %s: %s", self.snapshot_path, message)
            raise RecoveryError(message)
        return payload

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #

    def recover(self, system: "AdeptSystem") -> RecoveryReport:
        """Rebuild ``system`` from the snapshot and the WAL suffix.

        ``system`` must be freshly constructed (no deployed types, no
        instances).  Journaling is suspended for the duration — most
        records replay by calling the method that journaled them, which
        would otherwise re-journal every mutation; ``step``,
        ``adhoc_change`` and ``instance_saved`` records keep a replay of
        their own (``docs/persistence.md`` says why).
        Replayed transitions publish their bus events.
        """
        report = RecoveryReport()
        with self.suspended():
            snapshot, records = self._read_at_open or (self.load_snapshot(), self.wal.records())
            self._read_at_open = None
            snapshot_seq = 0
            if snapshot is not None:
                self._load_snapshot_into(system, snapshot, report)
                snapshot_seq = int(snapshot.get("next_seq", 0))
            for record in records:
                seq = int(record.get("seq", 0))
                if seq <= snapshot_seq:
                    # a crash between the snapshot's atomic replace and the
                    # WAL truncation leaves records the snapshot already
                    # contains — replaying them would double-apply
                    continue
                self._apply_record(system, record)
                self._seq = max(self._seq, seq)
                report.replayed_records += 1
                kind = record.get("kind", "?")
                report.replayed_by_kind[kind] = report.replayed_by_kind.get(kind, 0) + 1
            # the replay stepped cases through the engine directly: one
            # global resynchronisation, the only one the system ever runs —
            # the live cases first (hydrating the others evicts them).  The
            # replay's evictions wrote back cases whose items it never
            # synchronised: no record may pass for one that left them current
            system.store.clear_write_back_marks()
            system.worklists.refresh()
            self._reoffer_stored_work(system)
        logger.info(
            "recovered %s: snapshot %s, %d record(s) replayed%s",
            self.directory,
            f"with {report.snapshot_instances} instance(s)" if report.snapshot_loaded else "none",
            report.replayed_records,
            "".join(
                f", {kind} {count}" for kind, count in sorted(report.replayed_by_kind.items())
            ),
        )
        return report

    @staticmethod
    def _reoffer_stored_work(system: "AdeptSystem") -> None:
        """Synchronise the work items of the cases resident only in the store.

        The snapshot bypasses the worklist manager; without this pass a
        restarted system would show an empty worklist until each case
        happened to be hydrated for another reason.  Hydrating a case
        synchronises its items (and respects the LRU cap — the items
        survive the subsequent eviction).  Besides the running cases this
        covers every evicted case that still holds items: the replay
        steps cases through the engine directly, so items offered before
        such a step are stale by now.
        """
        stored = set(system.store.running_instances())
        stored.update(item.instance_id for item in system.worklists.open_items())
        # the cases live right now were just synchronised; one this loop
        # evicts keeps its items and needs no second hydration
        for instance_id in sorted(stored.difference(system._instances)):
            system.get_instance(instance_id)

    def _load_snapshot_into(
        self, system: "AdeptSystem", snapshot: Mapping[str, Any], report: RecoveryReport
    ) -> None:
        by_type: Dict[str, List[ProcessSchema]] = {}
        for payload in snapshot.get("schemas", []):
            schema = ProcessSchema.from_dict(payload)
            by_type.setdefault(schema.name, []).append(schema)
        for type_name, versions in by_type.items():
            process_type = ProcessType(type_name)
            for schema in sorted(versions, key=lambda s: s.version):
                process_type.add_version(schema)
            system.repository.adopt_type(process_type)
            report.snapshot_schema_versions += len(versions)
        for record in snapshot.get("instances", {}).values():
            system.store.put_record(record)
            report.snapshot_instances += 1
        system._case_counters.update(snapshot.get("case_counters", {}))
        # rollouts are restored after schemas: the compiled plan is rebuilt
        # from the (already adopted) repository versions
        system.evolution.restore(snapshot)
        self._seq = int(snapshot.get("next_seq", self._seq))
        report.snapshot_loaded = True

    # -- record replay -------------------------------------------------- #

    def _apply_record(self, system: "AdeptSystem", record: Mapping[str, Any]) -> None:
        """Replay one WAL record; every failure leaves as a :class:`RecoveryError`.

        A handler's own ``RecoveryError`` (a reconciliation mismatch) is
        wrapped like any other failure, so the one warning logged here
        names the record for all of them.
        """
        kind = record.get("kind")
        handler = _REPLAY_HANDLERS.get(kind)
        if handler is None:
            logger.warning("WAL record #%s: unknown kind %r", record.get("seq"), kind)
            raise RecoveryError(f"unknown WAL record kind {kind!r}")
        try:
            handler(system, record)
        except Exception as exc:
            logger.warning("replaying WAL record #%s (%s) failed: %s", record.get("seq"), kind, exc)
            raise RecoveryError(
                f"replaying WAL record #{record.get('seq')} ({kind}) failed: {exc}"
            ) from exc


# --------------------------------------------------------------------------- #
# replay handlers (one per record kind); a field journaled as None is absent
# from the record, so one that may be None is read with .get()
# --------------------------------------------------------------------------- #


def _replay_type_deployed(system: "AdeptSystem", record: Mapping[str, Any]) -> None:
    schema = ProcessSchema.from_dict(record["schema"])
    # buildtime verification already passed when the deployment committed
    system.deploy(schema, verify=False)


def _replay_type_adopted(system: "AdeptSystem", record: Mapping[str, Any]) -> None:
    process_type: Optional[ProcessType] = None
    for payload in record["schemas"]:
        schema = ProcessSchema.from_dict(payload)
        if process_type is None:
            process_type = ProcessType(schema.name)
        process_type.add_version(schema)
    if process_type is not None:
        system.adopt(process_type)


def _replay_instance_started(system: "AdeptSystem", record: Mapping[str, Any]) -> None:
    system.start(
        record["type_id"],
        case_id=record["instance_id"],
        version=record["version"],
        **record.get("data", {}),
    )


def _replay_instance_adopted(system: "AdeptSystem", record: Mapping[str, Any]) -> None:
    instance = system.store.instantiate(record["record"])
    # adoption once refused only live ids, so a journal may hold an adoption
    # that replaced a stored case: it replays as it was accepted
    system._admit(instance)


def _replay_step(system: "AdeptSystem", record: Mapping[str, Any]) -> None:
    instance = system.get_instance(record["instance_id"])
    if record["action"] == "start":
        system.engine.start_activity(instance, record["activity"], user=record.get("user"))
    else:
        system.engine.complete_activity(
            instance,
            record["activity"],
            outputs=record.get("outputs") or {},
            user=record.get("user"),
        )


def _replay_instance_aborted(system: "AdeptSystem", record: Mapping[str, Any]) -> None:
    system.abort(record["instance_id"])


def _replay_adhoc_change(system: "AdeptSystem", record: Mapping[str, Any]) -> None:
    instance = system.get_instance(record["instance_id"])
    change_log = ChangeLog.from_dict(record["change"])
    system._changer.apply(instance, change_log, comment=change_log.comment, user=record.get("user"))
    system._dirty.add(instance.instance_id)


def _replay_evolution(system: "AdeptSystem", record: Mapping[str, Any]) -> None:
    # the release and migration the original evolve ran, over the journaled
    # candidates with the journaled policy (not the reopened system's):
    # same plan, same per-class verdicts, same compensations, same events,
    # same end state — only the strict dry run is skipped, which passed
    report = system.evolution.release_and_migrate(
        record["type_id"],
        TypeChange.from_dict(record["change"]),
        record.get("policy") or "compliant",
        collect_results=False,
        candidates=list(record.get("candidates", [])),
    )
    _reconcile_version(record, report.to_version)


def _replay_instance_saved(system: "AdeptSystem", record: Mapping[str, Any]) -> None:
    # the record *is* the state at journal time; if the case is live its
    # in-memory state already matches (all earlier records were replayed)
    system.store.put_record(record["record"])


def _replay_instance_deleted(system: "AdeptSystem", record: Mapping[str, Any]) -> None:
    system.delete_instance(record["instance_id"])


def _replay_rollout_started(system: "AdeptSystem", record: Mapping[str, Any]) -> None:
    rollout = system.evolution.start_rollout(
        record["type_id"],
        TypeChange.from_dict(record["change"]),
        record["mode"],
        fraction=record["fraction"],
        conflict_threshold=record["conflict_threshold"],
        min_observations=record["min_observations"],
        policy=record["policy"],
        decide_externally=record.get("decide_externally", False),
    )
    _reconcile_version(record, rollout.to_version)


def _replay_rollout_attempt(system: "AdeptSystem", record: Mapping[str, Any]) -> None:
    """``rollout_migrated`` / ``rollout_conflicted``: one adoption attempt."""
    rollout = system.rollout_of(record["type_id"])
    if rollout is None:
        return
    instance_id = record["instance_id"]
    instance = system.get_instance(instance_id)
    if instance.schema_version != rollout.from_version:
        # a snapshot written after the adoption already carries the
        # migrated state; only the bookkeeping needs replaying
        rollout.adopted.add(instance_id)
    else:
        system.evolution.adopt(rollout, instance_id, instance)
    # a decision re-derived here is not executed: decisions replay from
    # their own promoted / rolled-back records, and one the crash kept
    # out of the log is taken again on the next touch
    rollout.pending_decision = None
    migrated = record["kind"] == KIND_ROLLOUT_MIGRATED
    if instance_id not in (rollout.adopted if migrated else rollout.conflicted):
        raise RecoveryError(f"replay re-derived the opposite outcome for {instance_id!r}")


def _replay_rollout_promoted(system: "AdeptSystem", record: Mapping[str, Any]) -> None:
    if not system.evolution.promote(record["type_id"]):
        raise RecoveryError(f"no observing rollout of {record['type_id']!r} to promote")


def _replay_rollout_rolled_back(system: "AdeptSystem", record: Mapping[str, Any]) -> None:
    reverted = system.evolution.roll_back(record["type_id"])
    if reverted is None:
        raise RecoveryError(f"no observing rollout of {record['type_id']!r} to roll back")
    if reverted != record["reverted"]:
        differing = sorted(set(reverted).symmetric_difference(record["reverted"]))
        raise RecoveryError(f"replay reverted another cohort (differing in {differing})")


def _replay_rollout_completed(system: "AdeptSystem", record: Mapping[str, Any]) -> None:
    rollout = system.rollout_of(record["type_id"])
    if rollout is None or not system.evolution.complete(rollout):
        raise RecoveryError(f"no migrating rollout of {record['type_id']!r} to complete")


def _reconcile_version(record: Mapping[str, Any], actual_version: int) -> None:
    """Check a replayed release against the journaled change log."""
    expected = record.get("to_version")
    if expected is not None and expected != actual_version:
        raise RecoveryError(
            f"released version {actual_version} of {record.get('type_id')!r} but the "
            f"journal recorded v{expected} — the log no longer matches the change history"
        )


_REPLAY_HANDLERS = {
    KIND_TYPE_DEPLOYED: _replay_type_deployed,
    KIND_TYPE_ADOPTED: _replay_type_adopted,
    KIND_INSTANCE_STARTED: _replay_instance_started,
    KIND_INSTANCE_ADOPTED: _replay_instance_adopted,
    KIND_STEP: _replay_step,
    KIND_INSTANCE_ABORTED: _replay_instance_aborted,
    KIND_ADHOC_CHANGE: _replay_adhoc_change,
    KIND_EVOLUTION: _replay_evolution,
    KIND_INSTANCE_SAVED: _replay_instance_saved,
    KIND_INSTANCE_DELETED: _replay_instance_deleted,
    KIND_ROLLOUT_STARTED: _replay_rollout_started,
    KIND_ROLLOUT_MIGRATED: _replay_rollout_attempt,
    KIND_ROLLOUT_CONFLICTED: _replay_rollout_attempt,
    KIND_ROLLOUT_PROMOTED: _replay_rollout_promoted,
    KIND_ROLLOUT_ROLLED_BACK: _replay_rollout_rolled_back,
    KIND_ROLLOUT_COMPLETED: _replay_rollout_completed,
}
