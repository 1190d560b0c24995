"""Spans around the public entry points of every layer, from outside ``src/``.

The traced run patches — on the classes, before any object exists — the
functions through which one layer calls the next, so nothing under
``src/`` changes.  A span is ``[name, start, end, parent, request]``;
spans stay in memory and are aggregated (and a capped sample written)
when the phase ends.  A layer's *self time* is its spans' duration
minus the part their child spans cover, so the rows of the layer table
sum to the request time; what no wrapped function covers is reported as
``trace.unaccounted_frac``.

One request is a synchronous chain even when it crosses threads (the
client blocks while the router's pool thread works, which blocks while
the server thread works), so a span opened on a thread with an empty
stack adopts the most recently opened span that is still open.

Private hooks (a leading underscore) are optional: a refactor that
renames one loses that row's detail, not the traced run.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

LAYERS = (
    "service.router",
    "service.hashring",
    "service.protocol",
    "service.shard_server",
    "system.facade",
    "system.concurrency",
    "runtime.engine",
    "runtime.worklist",
    "system.events",
    "system.persistence",
    "storage.wal",
    "storage.instance_store",
    "core.migration",
    "system.rollout",
)

#: spans a request's frames were captured from, for the codec replay
CAPTURED_FRAMES = 400
#: cap of the span sample written per workload
DUMP_BYTES = 5 * 1024 * 1024

_NAME, _START, _END, _PARENT, _REQUEST = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._local = threading.local()
        self._handoff: Optional[list] = None
        self._requests = 0
        self._patches: List[Tuple[Any, str, Any]] = []
        self.counters: Counter = Counter()
        self.missing_hooks: List[str] = []
        #: payloads of the first frames on the wire (client side)
        self.frames: List[Any] = []
        #: payloads of ``bulk_migration_classes`` events
        self.class_reports: List[Dict[str, Any]] = []

    # span bookkeeping ---------------------------------------------------- #

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> List[list]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _open(self, name_id: int) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._handoff
            while parent is not None and parent[_END]:
                parent = parent[_PARENT]
        span = [
            name_id,
            time.perf_counter(),
            0.0,
            parent,
            parent[_REQUEST] if parent is not None else None,
        ]
        self.spans.append(span)
        stack.append(span)
        self._handoff = span
        return span

    def _close(self, span: list) -> None:
        span[_END] = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def request(self) -> Iterator[None]:
        """The root span of one client request."""
        self._requests += 1
        span = [self._name_id("request"), time.perf_counter(), 0.0, None, self._requests]
        self.spans.append(span)
        stack = self._stack()
        stack.append(span)
        self._handoff = span
        try:
            yield
        finally:
            span[_END] = time.perf_counter()
            stack.pop()

    def wrapped(
        self, function: Callable[..., Any], name: str, after: Optional[Callable] = None
    ) -> Callable[..., Any]:
        """``function`` inside a span named ``name`` (``layer:entry point``).

        ``after(tracer, args, kwargs, result)`` feeds counters from the
        call.  The span bookkeeping is inlined: this wrapper sits on
        paths that run a thousand times per request.
        """
        name_id = self._name_id(name)
        local, spans, clock = self._local, self.spans, time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            else:
                parent = self._handoff
                while parent is not None and parent[_END]:
                    parent = parent[_PARENT]
            span = [name_id, 0.0, 0.0, parent, None if parent is None else parent[_REQUEST]]
            spans.append(span)
            stack.append(span)
            self._handoff = span
            span[_START] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(function, "__name__", name)
        return wrapper

    # patching ------------------------------------------------------------ #

    def patch(
        self,
        owner: Any,
        attribute: str,
        layer: str,
        after: Optional[Callable] = None,
        entry: Optional[str] = None,
    ) -> None:
        original = getattr(owner, attribute, None)
        if original is None:
            self.missing_hooks.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
            return
        name = f"{layer}:{entry or attribute.lstrip('_')}"
        self._replace(owner, attribute, self.wrapped(original, name, after))

    def _replace(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def install(self) -> None:
        """Patch every layer boundary.  Call before any system object exists."""
        from repro.core.migration import MigrationManager
        from repro.core.migration_plan import MigrationPlan
        from repro.runtime.engine import ProcessEngine
        from repro.runtime.worklist import WorklistManager
        from repro.service import hashring, protocol, router, shard_server
        from repro.storage.instance_store import InstanceStore
        from repro.storage.wal import WriteAheadLog
        from repro.system.concurrency import LockTable
        from repro.system.events import EventBus
        from repro.system.facade import AdeptSystem
        from repro.system.persistence import PersistentBackend
        from repro.system.rollout import Rollout

        for name in ("step_many", "start", "instance_info", "client_for", "call"):
            self.patch(router.ShardRouter, name, "service.router")
        for name in ("shard_for", "partition"):
            self.patch(hashring.HashRing, name, "service.hashring")
        # The codec as the protocol module sees it is the protocol's time.
        # What is left of a client round trip once codec and server spans
        # are taken out is the socket's: syscalls, loopback, thread
        # wake-ups.  The client's send and receive get no spans of their
        # own — the server starts on a request before the sending thread
        # is scheduled again, so they would overlap the server's work —
        # and neither does the server's blocking receive, which is idle.
        self._replace(protocol, "json", _TracedJson(self))
        self.patch(router.ShardClient, "call", "socket", entry="round_trip")
        self._replace(router, "send_message", _counting(self, router.send_message, _capture_request))
        self._replace(router, "recv_message", _counting(self, router.recv_message, _capture_response))
        self.patch(shard_server, "send_message", "socket", entry="server_send")
        self.patch(shard_server.ShardServer, "_dispatch", "service.shard_server")

        for name in ("step_many", "start", "delete_instance", "get_instance",
                     "evolve", "instances_of", "checkpoint"):
            self.patch(AdeptSystem, name, "system.facade")
        self.patch(AdeptSystem, "sweep_rollout", "system.rollout")
        self.patch(AdeptSystem, "_touch_for_rollout", "system.rollout")
        for name in ("note_adoption", "note_conflict"):
            self.patch(Rollout, name, "system.rollout")
        self._replace(LockTable, "holding", _timed_holding(self, LockTable.holding))

        self.patch(ProcessEngine, "step_many_compiled", "runtime.engine", after=_count_steps)
        self.patch(ProcessEngine, "create_instance", "runtime.engine")
        self.patch(WorklistManager, "refresh", "runtime.worklist", after=_count_scanned)
        for name in ("register_instance", "unregister_instance", "discard_instance",
                     "sync_instance"):
            self.patch(WorklistManager, name, "runtime.worklist")
        self.patch(EventBus, "publish", "system.events", after=_watch_events)

        self.patch(PersistentBackend, "journal", "system.persistence", after=_count_records)
        for name in ("load_snapshot", "recover", "write_snapshot"):
            self.patch(PersistentBackend, name, "system.persistence")
        for name in ("enqueue", "commit"):
            self.patch(WriteAheadLog, name, "storage.wal")
        for name in ("save", "load", "write_back", "delete", "records_for",
                     "migrate_record", "put_record", "scan_records"):
            self.patch(InstanceStore, name, "storage.instance_store")

        for name in ("compile_plan", "migrate_batch", "migrate_on_touch", "migrate_instance"):
            self.patch(MigrationManager, name, "core.migration")
        self.patch(MigrationPlan, "fingerprint_of_record", "core.migration")

    # aggregation --------------------------------------------------------- #

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``/``self``/``total`` inside requests, ``all_total`` overall.

        A span counts only for the part of its interval that lies inside
        its parent's: a server thread that finishes its send after the
        client already read the reply must not claim time the client's
        next span also covers.  With that, the self times of one request
        sum to its duration.
        """
        effective: Dict[int, Tuple[float, float]] = {}
        covered: Dict[int, float] = {}
        for span in self.spans:  # parents are always recorded before their children
            start, end = span[_START], span[_END]
            parent = span[_PARENT]
            if parent is not None:
                parent_start, parent_end = effective[id(parent)]
                start, end = max(start, parent_start), max(start, min(end, parent_end))
                covered[id(parent)] = covered.get(id(parent), 0.0) + end - start
            effective[id(span)] = (start, end)
        rows: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "self": 0.0, "total": 0.0, "all_total": 0.0}
            for name in self.names
        }
        for span in self.spans:
            row = rows[self.names[span[_NAME]]]
            start, end = effective[id(span)]
            row["all_total"] += end - start
            if span[_REQUEST] is not None:
                row["calls"] += 1
                row["total"] += end - start
                row["self"] += max(0.0, end - start - covered.get(id(span), 0.0))
        return rows

    def dump(self, path: str) -> None:
        """Write spans as ndjson, oldest first, until the size cap."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for position, span in enumerate(self.spans):
                line = json.dumps(
                    {
                        "id": position,
                        "name": self.names[span[_NAME]],
                        "start": span[_START],
                        "end": span[_END],
                        "parent": index[id(span[_PARENT])] if span[_PARENT] is not None else None,
                        "request": span[_REQUEST],
                    }
                )
                written += len(line) + 1
                if written > DUMP_BYTES:
                    break
                handle.write(line + "\n")


class _TracedJson:
    """Stands in for the ``json`` module inside ``repro.service.protocol``."""

    JSONDecodeError = json.JSONDecodeError

    def __init__(self, tracer: Tracer) -> None:
        self.dumps = tracer.wrapped(json.dumps, "service.protocol:encode")
        self.loads = tracer.wrapped(json.loads, "service.protocol:decode")


def _timed_holding(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
    """``LockTable.holding`` with the acquisition (the wait) inside a span."""
    name_id = tracer._name_id("system.concurrency:holding")

    class _Holding:
        __slots__ = ("inner",)

        def __init__(self, inner: Any) -> None:
            self.inner = inner

        def __enter__(self) -> None:
            span = tracer._open(name_id)
            try:
                self.inner.__enter__()
            finally:
                tracer._close(span)

        def __exit__(self, *exc_info: Any) -> Any:
            return self.inner.__exit__(*exc_info)

    def holding(self: Any, *keys: str) -> Any:
        return _Holding(original(self, *keys))

    return holding


def _counting(tracer: Tracer, function: Callable[..., Any], after: Callable) -> Callable[..., Any]:
    """``function`` with a counter hook and no span."""

    def counted(*args: Any, **kwargs: Any) -> Any:
        result = function(*args, **kwargs)
        after(tracer, args, kwargs, result)
        return result

    return counted


def _capture_request(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["wire.bytes"] += result
    if len(tracer.frames) < CAPTURED_FRAMES:
        tracer.frames.append(args[1])


def _capture_response(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["wire.bytes"] += result[1]
    if len(tracer.frames) < CAPTURED_FRAMES:
        tracer.frames.append(result[0])


def _count_steps(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["engine.steps"] += sum(result)


def _count_scanned(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["worklist.scanned"] += len(getattr(args[0], "_instances", ()))


def _count_records(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    if result is not None:
        tracer.counters["journal.records"] += 1


def _watch_events(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    name = args[2] if len(args) > 2 else kwargs.get("name")
    if name == "instance_evicted":
        tracer.counters["store.evictions"] += 1
    elif name == "bulk_migration_classes":
        tracer.class_reports.append(dict(result.payload))


def layer_metrics(
    rows: Dict[str, Dict[str, float]],
    tracer: Tracer,
    traced: Dict[str, Any],
    bare: Dict[str, Any],
    restart_rows: Dict[str, Dict[str, float]],
    recovery: Any,
    codec: Dict[str, float],
) -> Dict[str, float]:
    """Every name in ``BENCHMARK.json``'s ``per_layer``, from one traced phase."""
    work = traced["work"]
    inputs = traced["layer_inputs"]
    counters = Counter(inputs["counters"])

    def row(name: str, source: Dict[str, Dict[str, float]] = rows) -> Dict[str, float]:
        return source.get(name, {"calls": 0, "self": 0.0, "total": 0.0, "all_total": 0.0})

    def per(amount: float, count: float, factor: float = 1.0) -> float:
        return amount / count * factor if count else 0.0

    layers: Dict[str, Dict[str, float]] = {
        layer: {"calls": 0, "self": 0.0} for layer in (*LAYERS, "socket", "request")
    }
    for name, values in rows.items():
        layer = layers[name.split(":")[0]]
        layer["calls"] += values["calls"]
        layer["self"] += values["self"]

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls_per_work"] = layers[layer]["calls"] / work
        metrics[f"{layer}.self_us_per_work"] = layers[layer]["self"] / work * 1e6

    metrics["service.protocol.bytes_per_work"] = counters["wire.bytes"] / work
    metrics.update(codec)
    metrics["socket.wait_us_per_work"] = layers["socket"]["self"] / work * 1e6

    refresh = row("runtime.worklist:refresh")
    metrics["runtime.worklist.refreshes_per_work"] = refresh["calls"] / work
    metrics["runtime.worklist.instances_scanned_per_work"] = counters["worklist.scanned"] / work
    metrics["runtime.worklist.us_per_refresh"] = per(refresh["total"], refresh["calls"], 1e6)
    metrics["runtime.worklist.items_total"] = inputs["worklist.items_total"]

    steps = counters["engine.steps"]
    metrics["runtime.engine.steps_per_work"] = steps / work
    metrics["runtime.engine.us_per_step"] = per(
        row("runtime.engine:step_many_compiled")["self"], steps, 1e6
    )
    publish = row("system.events:publish")
    metrics["system.events.events_per_work"] = publish["calls"] / work
    metrics["system.events.us_per_event"] = per(publish["total"], publish["calls"], 1e6)

    records, flushes = inputs["wal.records"], inputs["wal.flushes"]
    metrics["system.persistence.records_per_work"] = records / work
    metrics["storage.wal.bytes_per_record"] = per(inputs["wal.bytes"], records)
    metrics["storage.wal.flushes_per_work"] = flushes / work
    metrics["storage.wal.records_per_flush"] = per(records, flushes)
    metrics["storage.wal.encode_us_per_record"] = per(
        row("storage.wal:enqueue")["all_total"], records, 1e6
    )
    metrics["storage.wal.flush_us_per_flush"] = per(
        row("storage.wal:commit")["all_total"], flushes, 1e6
    )

    loads = row("storage.instance_store:load")
    lookups = row("system.facade:get_instance")["calls"]
    saves = [row("storage.instance_store:write_back"), row("storage.instance_store:save")]
    metrics["storage.instance_store.hydrations_per_work"] = loads["calls"] / work
    metrics["storage.instance_store.evictions_per_work"] = counters["store.evictions"] / work
    metrics["storage.instance_store.cache_hit_frac"] = (
        1.0 - loads["calls"] / lookups if lookups else 0.0
    )
    metrics["storage.instance_store.us_per_hydration"] = per(loads["total"], loads["calls"], 1e6)
    metrics["storage.instance_store.us_per_save"] = per(
        sum(s["all_total"] for s in saves), sum(s["calls"] for s in saves) or 0, 1e6
    )
    metrics["storage.instance_store.bytes_per_record"] = inputs["store.bytes_per_record"]

    cycles = traced["cycle_log"]
    evolves = 2 * len(cycles)
    candidates = sum(c["eager_candidates"] + c["lazy_candidates"] for c in cycles)
    conflicts = sum(c["eager_conflicts"] + c["lazy_conflicts"] for c in cycles)
    hits = sum(r["hits"] for r in tracer.class_reports) + sum(c["lazy_hits"] for c in cycles)
    misses = sum(r["misses"] for r in tracer.class_reports) + sum(c["lazy_misses"] for c in cycles)
    classes = sum(r["classes"] for r in tracer.class_reports) + sum(c["lazy_classes"] for c in cycles)
    compile_plan = row("core.migration:compile_plan")
    metrics["core.migration.plan_compile_ms"] = per(compile_plan["total"], compile_plan["calls"], 1e3)
    metrics["core.migration.classes_per_evolve"] = per(classes, evolves)
    metrics["core.migration.class_hit_frac"] = per(hits, candidates)
    metrics["core.migration.residue_cases_per_evolve"] = per(candidates - hits - misses, evolves)
    metrics["core.migration.conflict_frac"] = per(conflicts, candidates)
    metrics["core.migration.us_per_case"] = per(layers["core.migration"]["self"], candidates, 1e6)

    touches = sum(c["touches"] for c in cycles)
    touch = row("system.rollout:touch_for_rollout")
    if not touch["calls"]:  # the private hook is gone: the manager's public call remains
        touch = row("core.migration:migrate_on_touch")
    sweep = row("system.rollout:sweep_rollout")
    metrics["system.rollout.adoptions_per_touch"] = per(
        sum(c["touch_adoptions"] for c in cycles), touches
    )
    metrics["system.rollout.adopt_us_per_touch"] = per(touch["total"], touches, 1e6)
    metrics["system.rollout.sweep_us_per_case"] = per(
        sweep["total"], sum(c["swept"] for c in cycles), 1e6
    )

    load = row("system.persistence:load_snapshot", restart_rows)
    one_load = per(load["total"], load["calls"])
    restored = recovery.snapshot_instances + recovery.replayed_records
    metrics["system.persistence.snapshot_load_ms"] = one_load * 1e3
    metrics["system.persistence.replayed_records"] = recovery.replayed_records
    metrics["system.persistence.recover_us_per_record"] = per(
        row("system.persistence:recover", restart_rows)["total"] - one_load, restored, 1e6
    )
    metrics["system.persistence.snapshot_write_ms"] = (
        row("system.persistence:write_snapshot", restart_rows)["total"] * 1e3
    )

    holding = row("system.concurrency:holding")
    metrics["system.concurrency.lock_acquires_per_work"] = holding["calls"] / work
    metrics["system.concurrency.lock_wait_us_per_work"] = holding["self"] / work * 1e6

    request = row("request")
    metrics["trace.overhead_frac"] = (
        bare["metrics"]["work_per_s"] / traced["metrics"]["work_per_s"] - 1.0
    )
    metrics["trace.unaccounted_frac"] = per(request["self"], request["total"])
    metrics["trace.spans"] = len(tracer.spans)
    for name in ("host.calib_ms", "host.disturbed_block_frac", "host.block_spread_frac",
                 "client.p99_ms", "client.mean_work_per_s"):
        metrics[name] = bare["diagnostics"][name]
    return metrics


def codec_cost(frames: List[Any]) -> Dict[str, float]:
    """Replay captured frames through the real protocol over a ``socketpair``."""
    from repro.service.protocol import recv_message, send_message

    left, right = socket.socketpair()
    encode = decode = 0.0
    total = 0
    try:
        for payload in frames:
            started = time.perf_counter()
            sent = send_message(left, payload)
            sent_at = time.perf_counter()
            recv_message(right)
            decode += time.perf_counter() - sent_at
            encode += sent_at - started
            total += sent
    finally:
        left.close()
        right.close()
    kilobytes = max(total, 1) / 1024.0
    return {
        "service.protocol.encode_us_per_kb": encode / kilobytes * 1e6,
        "service.protocol.decode_us_per_kb": decode / kilobytes * 1e6,
    }
