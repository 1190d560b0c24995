"""Write-ahead log: the journal file under the persistence backend.

:class:`~repro.system.persistence.PersistentBackend` appends one typed
logical record per state-changing operation; after a crash, recovery
loads the last snapshot and replays the log on top of it.  The log is
deliberately simple (JSON lines) — its purpose in the reproduction is to
demonstrate that the hybrid storage representation composes with standard
recovery techniques, and to give the failure-injection tests something
real to exercise.

**Line format.**  A line is the record's compact sorted JSON —
``json.dumps(record, separators=(",", ":"), sort_keys=True)``'s text,
the dialect the stored history and data logs use — written through the
prebuilt encoder of :mod:`repro.json_codec` rather than an encoder built
per record.  The log writes the record it is given; the persistence
backend leaves a field whose value is ``None`` out of its records, and
its readers take a missing field for ``None``.  Lines written before
(``", "`` / ``": "`` padding, explicit nulls) parse and replay the same:
a JSON line needs no format version.

**Thread safety and group commit.**  The log is safe to append from many
threads.  Appends are split into two phases: :meth:`enqueue` serialises
the record and adds its line to a pending buffer (cheap, under a mutex),
:meth:`commit` makes it durable.  When several threads commit at once,
the first to reach the flush lock becomes the *leader* and writes and
flushes every pending line in one batch; the followers find their record
already durable and return without touching the file.  This is classic
group commit: journaling many concurrent mutations costs one buffered
write + flush per *batch* instead of per record, so the WAL does not
re-serialise an otherwise parallel execution.  A record is committed —
and its mutation may be acknowledged — only once its complete line is in
the OS file; a crash can tear at most the batch currently being written,
and recovery ignores the torn tail.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping

from repro import json_codec
from repro.errors import PersistenceError


class WriteAheadLog:
    """Append-only JSON-lines log with checkpoint and group-commit support.

    The log keeps one append handle open between writes (every committed
    batch is flushed to the OS, so the file content is always current for
    readers) — opening the file per record would dominate the cost of
    journaling high-frequency step records.  :meth:`close` releases the
    handle; the log transparently reopens it on the next append.
    """

    def __init__(self, path: str) -> None:
        self._path = Path(path)
        self._handle = None
        #: guards the pending buffer and counters
        self._mutex = threading.Lock()
        #: serialises physical writes; the holder is the batch leader
        self._flush_lock = threading.Lock()
        self._pending: List[str] = []
        self._enqueued = 0
        self._committed = 0
        #: number of physical write+flush batches (group-commit telemetry)
        self.flush_count = 0
        #: number of records ever enqueued (group-commit telemetry)
        self.append_count = 0
        self._path.parent.mkdir(parents=True, exist_ok=True)
        if not self._path.exists():
            self._path.touch()

    # ------------------------------------------------------------------ #
    # appending (enqueue + group commit)
    # ------------------------------------------------------------------ #

    def enqueue(self, record: Mapping[str, Any]) -> int:
        """Buffer one record (must be JSON serialisable); returns a ticket.

        The record is *not* durable until :meth:`commit` is called with
        the ticket (or any later ticket).  Callers that must order their
        records relative to their own bookkeeping (the persistence
        backend's sequence numbers) enqueue under their own lock — the
        pending buffer preserves enqueue order — and commit outside it.
        """
        line = json_codec.dumps(record, separators=json_codec.COMPACT, sort_keys=True) + "\n"
        with self._mutex:
            self.append_count += 1
            self._pending.append(line)
            self._enqueued += 1
            return self._enqueued

    def commit(self, ticket: int) -> None:
        """Make every record up to ``ticket`` durable (group commit)."""
        while True:
            with self._mutex:
                if self._committed >= ticket:
                    return
            with self._flush_lock:
                with self._mutex:
                    if self._committed >= ticket:
                        return
                    batch = self._pending
                    self._pending = []
                    if self._handle is None:
                        self._open_handle()
                    handle = self._handle
                # the physical write happens outside the mutex (so new
                # appends keep buffering) but under the flush lock (so
                # close/truncate cannot pull the handle away mid-write)
                handle.write("".join(batch))
                handle.flush()
                with self._mutex:
                    self._committed += len(batch)
                    self.flush_count += 1

    def append(self, record: Mapping[str, Any]) -> None:
        """Append one record and wait until it is durable."""
        self.commit(self.enqueue(record))

    def _open_handle(self) -> None:
        """Open the append handle, dropping any torn tail first.

        A crash can leave a partial line at the end of the file.
        :meth:`records` tolerates it on read, but appending *after* it
        would glue the next record onto the unparseable fragment — one
        bad line that hides the entire post-recovery suffix from every
        future replay.  Before the first append the log therefore
        rewrites itself to end at the last complete record (restoring a
        missing final newline along the way).  Recovery itself never
        appends, so replaying a cut log is still byte-preserving.

        Caller holds ``_flush_lock`` and ``_mutex``.
        """
        raw = self._path.read_bytes()
        valid = bytearray()
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                break
            valid += line + b"\n"
        if bytes(valid) != raw:
            self._path.write_bytes(bytes(valid))
        self._handle = self._path.open("a", encoding="utf-8")

    # ------------------------------------------------------------------ #
    # reading / maintenance
    # ------------------------------------------------------------------ #

    def records(self) -> List[Dict[str, Any]]:
        """All committed records currently in the log (oldest first).

        Torn trailing lines (from a crash in the middle of a batch write)
        are ignored.
        """
        entries: List[Dict[str, Any]] = []
        if not self._path.exists():
            return entries
        for line in self._path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                break
        return entries

    def truncate(self) -> None:
        """Drop all records (called after a successful checkpoint).

        Refuses with :class:`~repro.errors.PersistenceError` while a
        record is enqueued but not yet committed: the checkpoint that
        truncates must cover it, and dropping it would silently lose a
        mutation its caller is about to acknowledge.  The façade's
        checkpoint commits every enqueued record before it truncates
        (enqueues happen only under the execution lock it holds), so a
        refusal is a broken caller, never a race to retry.
        """
        with self._flush_lock:
            with self._mutex:
                if self._pending:
                    raise PersistenceError(
                        f"cannot truncate {self._path}: {len(self._pending)} "
                        f"enqueued record(s) are not committed yet"
                    )
                if self._handle is not None:
                    self._handle.close()
                    self._handle = None
            self._path.write_text("", encoding="utf-8")

    def close(self) -> None:
        """Release the append handle (reopened transparently on next append)."""
        with self._flush_lock:
            with self._mutex:
                if self._handle is not None:
                    self._handle.close()
                    self._handle = None

    def size_bytes(self) -> int:
        """Current size of the log in bytes."""
        if not self._path.exists():
            return 0
        return self._path.stat().st_size

    @property
    def path(self) -> Path:
        """The backing file."""
        return self._path

    def __len__(self) -> int:
        return len(self.records())

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.records())
