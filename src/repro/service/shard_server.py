"""One shard: a process owning one durable ``AdeptSystem`` partition.

A :class:`ShardServer` wraps exactly one
:class:`~repro.system.AdeptSystem` — its own store directory, its own
worker pool, its own rollout sweepers — behind the length-prefixed JSON
protocol of :mod:`repro.service.protocol`.  The server never routes:
every instance id it is asked about is assumed to belong to its
partition (the :class:`~repro.service.router.ShardRouter` owns the
consistent-hash placement).

Two run modes share all the code:

* **in-thread** (``start_in_thread()``) — for unit tests and doctests;
  the server and the caller share one interpreter, so a "cluster" of
  three in-thread shards still demonstrates routing and broadcast
  semantics without subprocess overhead.
* **as a process** (``python -m repro.service.shard_server``) — the
  real deployment unit, spawned by the
  :class:`~repro.service.supervisor.ShardSupervisor` or an operator.
  The process installs SIGTERM/SIGINT handlers that stop the request
  loop, drain the worker pool and run ``AdeptSystem.close()`` — the
  group-commit WAL batches flush and a snapshot is written, so a
  *gracefully* terminated shard restarts without any WAL replay.  A
  shard killed with SIGKILL recovers through the normal
  ``AdeptSystem.open`` replay path instead; both paths converge on the
  same committed state.

After binding (``port=0`` asks the OS for a free port) the server
publishes ``endpoint.json`` into its store directory — the discovery
handshake used by the supervisor and the CLI.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import secrets
import signal
import socket
import sys
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.evolution import ProcessType, TypeChange
from repro.errors import ReproError
from repro.schema.graph import ProcessSchema
from repro.service.errors import ServiceError
from repro.service.protocol import recv_message, send_message
from repro.service.telemetry import ShardTelemetry
from repro.system.concurrency import RolloutSweeper, simulated_latency_worker
from repro.system.facade import AdeptSystem
from repro.system.persistence import write_durably
from repro.system.rollout import ROLLOUT_CANARY, ROLLOUT_EAGER, ROLLOUT_LAZY

__all__ = ["ShardServer", "resolve_worker", "run_shard_server", "main"]

logger = logging.getLogger(__name__)

ENDPOINT_FILE = "endpoint.json"
#: how much of a refused request's error message the warning quotes
LOGGED_MESSAGE_CHARS = 200


def resolve_worker(spec: str) -> Optional[Callable[..., Dict[str, Any]]]:
    """Materialise a worker from its wire/CLI spec.

    Workers are functions and cannot travel over the wire or a command
    line, so the service tier names them: ``""`` is the engine default,
    ``"simulated_latency:<seconds>"`` is the blocking-activity model
    used by the throughput benchmarks.
    """
    if not spec:
        return None
    if spec.startswith("simulated_latency:"):
        return simulated_latency_worker(float(spec.split(":", 1)[1]))
    raise ServiceError(f"unknown worker spec {spec!r}")


class ShardServer:
    """Serve one ``AdeptSystem`` partition over the shard protocol."""

    def __init__(
        self,
        shard_id: str,
        store: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 0,
        worker: str = "",
        cache_instances: Optional[int] = None,
    ) -> None:
        self.shard_id = shard_id
        self.store_path = store
        self.host = host
        self.port = port
        self.workers = workers
        self.worker_spec = worker
        self.cache_instances = cache_instances
        self.telemetry = ShardTelemetry()
        self.system: Optional[AdeptSystem] = None
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._started = False
        self._stopped = False
        self._lifecycle = threading.Lock()
        # staged (published, not yet activated) schema changes, by token
        self._staged: Dict[str, Tuple[str, TypeChange]] = {}
        self._staged_lock = threading.Lock()
        self._sweepers: Dict[str, RolloutSweeper] = {}
        # an op is its ``_op_<name>`` method, and the method's keyword
        # parameters are the request's fields: binding refuses the rest
        self._handlers: Dict[str, Callable[..., Any]] = {
            name[len("_op_"):]: getattr(self, name)
            for name in dir(type(self))
            if name.startswith("_op_")
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def endpoint(self) -> Tuple[str, int]:
        if self._listener is None:
            raise ServiceError(f"shard {self.shard_id!r} is not listening")
        return self.host, self.port

    def start_in_thread(self) -> Tuple[str, int]:
        """Open the system, bind, and serve from a daemon thread."""
        with self._lifecycle:
            if self._started:
                raise ServiceError(f"shard {self.shard_id!r} already started")
            self._started = True
        if self.store_path is not None:
            self.system = AdeptSystem.open(
                self.store_path, cache_instances=self.cache_instances
            )
        else:
            self.system = AdeptSystem(cache_instances=self.cache_instances)
        if self.workers:
            self.system.serve(
                workers=self.workers, worker=resolve_worker(self.worker_spec)
            )
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        listener.settimeout(0.2)
        self.host, self.port = listener.getsockname()
        self._listener = listener
        if self.store_path is not None:
            endpoint = {
                "shard_id": self.shard_id,
                "host": self.host,
                "port": self.port,
                "pid": os.getpid(),
            }
            write_durably(Path(self.store_path) / ENDPOINT_FILE, json.dumps(endpoint, indent=2))
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"shard-{self.shard_id}-accept", daemon=True
        )
        self._accept_thread.start()
        return self.host, self.port

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the server is asked to stop (signal or RPC)."""
        return self._stop.wait(timeout)

    def initiate_shutdown(self) -> None:
        """Ask the request loop to stop; safe from signal handlers and RPCs."""
        self._stop.set()

    def stop(self, checkpoint: bool = True) -> None:
        """Stop serving, drain workers, flush and close the system.

        Idempotent, like ``AdeptSystem.close`` — the SIGTERM handler and
        the ``finally`` of the main loop may both end up here.
        """
        with self._lifecycle:
            if self._stopped:
                return
            self._stopped = True
        self._stop.set()
        if self._listener is not None:
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for thread in list(self._threads):
            thread.join(timeout=5.0)
        for sweeper in self._sweepers.values():
            sweeper.stop()
        self._sweepers.clear()
        if self.system is not None:
            try:
                if self.system._pool is not None and self.system._pool.active:
                    self.system.drain(timeout=30.0)
            except ReproError:
                pass
            self.system.close(checkpoint=checkpoint)

    # ------------------------------------------------------------------ #
    # request loop
    # ------------------------------------------------------------------ #

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"shard-{self.shard_id}-conn",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
            # reap finished connection threads so long-lived servers
            # don't accumulate thread objects
            self._threads = [t for t in self._threads if t.is_alive()]

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while not self._stop.is_set():
                try:
                    request, received = recv_message(conn)
                except (ConnectionError, OSError):
                    return
                except ServiceError as exc:
                    logger.warning(
                        "shard %s dropped a connection on a malformed frame: %s",
                        self.shard_id,
                        _truncated(str(exc)),
                    )
                    return
                response = self._dispatch(request)
                steps = _steps_taken(request, response)
                try:
                    sent = send_message(conn, response)
                except (ConnectionError, OSError):
                    self.telemetry.note_request(received, steps)
                    return
                self.telemetry.note_request(received + sent, steps)

    def _dispatch(self, request: Any) -> Dict[str, Any]:
        if not isinstance(request, dict) or not isinstance(request.get("op"), str):
            return self._refused(None, ServiceError("request must be an object with an 'op'"))
        fields = dict(request)
        op = fields.pop("op")
        handler = self._handlers.get(op)
        if handler is None:
            return self._refused(op, ServiceError(f"unknown op {op!r}"))
        try:
            return {"ok": True, "result": handler(**fields)}
        except Exception as exc:  # noqa: BLE001 - every failure crosses the wire
            return self._refused(op, exc)

    def _refused(self, op: Any, exc: Exception) -> Dict[str, Any]:
        """The error response to a refused request, logged as one warning."""
        logger.warning(
            "shard %s refused %r: %s: %s",
            self.shard_id,
            op,
            type(exc).__name__,
            _truncated(str(exc)),
        )
        return _error_payload(exc)

    # ------------------------------------------------------------------ #
    # basic ops
    # ------------------------------------------------------------------ #

    def _system(self) -> AdeptSystem:
        if self.system is None:
            raise ServiceError(f"shard {self.shard_id!r} has no system")
        return self.system

    def _worker(self, spec: Optional[str]) -> Optional[Callable[..., Dict[str, Any]]]:
        """The worker a request names; an omitted one is the server's own."""
        return resolve_worker(self.worker_spec if spec is None else spec)

    def _op_ping(self) -> Dict[str, Any]:
        return {"shard_id": self.shard_id, "pid": os.getpid()}

    def _op_status(self) -> Dict[str, Any]:
        system = self._system()
        live = len(system.live_instance_ids())
        backend = system.backend
        # the WAL's own counters, apart from the distributed cost factors
        # of ``telemetry``: records over flushes is the group-commit batch
        journal = (
            None
            if backend is None
            else {"records": backend.wal.append_count, "flushes": backend.wal.flush_count}
        )
        return {
            "shard_id": self.shard_id,
            "pid": os.getpid(),
            "host": self.host,
            "port": self.port,
            "store": self.store_path,
            "types": sorted(system.repository.type_names()),
            "live_instances": live,
            "stored_instances": len(system.store.instance_ids()),
            "workers": self.workers,
            "journal": journal,
            "telemetry": self.telemetry.as_dict(),
        }

    def _op_telemetry(self) -> Dict[str, Any]:
        return self.telemetry.as_dict()

    def _op_deploy(self, *, schema: Dict[str, Any], verify: bool = True) -> Dict[str, Any]:
        system = self._system()
        process_schema = ProcessSchema.from_dict(schema)
        if system.repository.has_type(process_schema.name):
            # the broadcast deploy is idempotent: a shard that already
            # has the type (restart, retry) acknowledges instead of failing
            existing = system.repository.process_type(process_schema.name)
            return {
                "type_id": process_schema.name,
                "version": existing.latest_version,
                "already_deployed": True,
            }
        handle = system.deploy(process_schema, verify=verify)
        self.telemetry.add("change_propagation")
        return {
            "type_id": handle.type_id,
            "version": process_schema.version,
            "already_deployed": False,
        }

    def _op_dump_types(self) -> List[Dict[str, Any]]:
        """Every deployed type with all its schema versions (join sync)."""
        system = self._system()
        dump: List[Dict[str, Any]] = []
        for type_name in sorted(system.repository.type_names()):
            process_type = system.repository.process_type(type_name)
            dump.append(
                {
                    "name": type_name,
                    "schemas": [
                        process_type.schema_for(version).to_dict()
                        for version in process_type.versions
                    ],
                }
            )
        return dump

    def _op_adopt_type(self, *, type: Dict[str, Any]) -> Dict[str, Any]:
        """Adopt a multi-version type dumped by another shard (join sync).

        Idempotent like ``deploy``: a shard that already has the type at
        the dumped latest version acknowledges instead of failing.
        """
        system = self._system()
        name = type["name"]
        schemas = [ProcessSchema.from_dict(payload) for payload in type["schemas"]]
        latest = max(schema.version for schema in schemas)
        if system.repository.has_type(name):
            existing = system.repository.process_type(name)
            if existing.latest_version != latest:
                raise ServiceError(
                    f"shard {self.shard_id!r} has {name!r} at version "
                    f"{existing.latest_version}, dump carries {latest}"
                )
            return {"type_id": name, "version": latest, "already_deployed": True}
        process_type = ProcessType(name)
        for schema in sorted(schemas, key=lambda s: s.version):
            process_type.add_version(schema)
        system.adopt(process_type)
        self.telemetry.add("change_propagation")
        return {"type_id": name, "version": latest, "already_deployed": False}

    def _op_start(
        self,
        *,
        type_id: str,
        case_id: Optional[str] = None,
        version: Optional[int] = None,
        data: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        handle = self._system().start(type_id, case_id=case_id, version=version, **(data or {}))
        return {"instance_id": handle.instance_id}

    def _op_run(
        self, *, instance_id: str, worker: Optional[str] = None, max_steps: int = 10000
    ) -> Dict[str, Any]:
        result = self._system().run(instance_id, worker=self._worker(worker), max_steps=max_steps)
        return result.to_dict()

    def _op_step_many(
        self, *, instance_ids: List[str], steps: int = 1, worker: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        results = self._system().step_many(instance_ids, steps=steps, worker=self._worker(worker))
        return [result.to_dict() for result in results]

    def _op_start_activity(
        self, *, instance_id: str, activity_id: str, user: Optional[str] = None
    ) -> Dict[str, Any]:
        return self._system().start_activity(instance_id, activity_id, user=user).to_dict()

    def _op_complete(
        self,
        *,
        instance_id: str,
        activity_id: str,
        outputs: Optional[Dict[str, Any]] = None,
        user: Optional[str] = None,
    ) -> Dict[str, Any]:
        result = self._system().complete(instance_id, activity_id, outputs=outputs, user=user)
        return result.to_dict()

    def _op_activated(self, *, instance_id: str) -> List[str]:
        return self._system().activated(instance_id)

    def _op_abort(self, *, instance_id: str) -> Dict[str, Any]:
        self._system().abort(instance_id)
        return {}

    def _op_delete_instance(self, *, instance_id: str) -> Dict[str, Any]:
        return {"deleted": self._system().delete_instance(instance_id)}

    def _op_instance_info(self, *, instance_id: str) -> Dict[str, Any]:
        instance = self._system().get_instance(instance_id)
        return {
            "instance_id": instance.instance_id,
            "type_id": instance.process_type,
            "version": instance.schema_version,
            "status": instance.status.value,
            "activated": instance.activated_activities(),
            "completed": instance.completed_activities(),
            "state_fingerprint": instance.state_fingerprint(),
        }

    def _op_instances_of(self, *, type_id: str, version: Optional[int] = None) -> List[str]:
        handles = self._system().instances_of(type_id, version=version)
        return sorted(handle.instance_id for handle in handles)

    # ------------------------------------------------------------------ #
    # the versioned two-phase schema broadcast
    # ------------------------------------------------------------------ #

    def _op_evolve_publish(
        self, *, type_id: str, change: Dict[str, Any], expect_version: Optional[int] = None
    ) -> Dict[str, Any]:
        """Phase 1: validate and stage a schema change, commit nothing.

        The router publishes the change to *every* shard first; only when
        all shards accepted does phase 2 activate it.  The version check
        is the broadcast's safety property — a shard whose type is not at
        the expected version (missed a previous broadcast, restored from
        an old snapshot) refuses, and the router aborts everywhere instead
        of splitting the fleet across schema versions.
        """
        system = self._system()
        type_change = TypeChange.from_dict(change)
        expect = type_change.from_version if expect_version is None else expect_version
        process_type = system.repository.process_type(type_id)
        if process_type.latest_version != expect:
            raise ServiceError(
                f"shard {self.shard_id!r} has {type_id!r} at version "
                f"{process_type.latest_version}, broadcast expects {expect}"
            )
        if type_change.from_version != process_type.latest_version:
            raise ServiceError(
                f"change targets version {type_change.from_version}, "
                f"shard is at {process_type.latest_version}"
            )
        if system.rollout_of(type_id) is not None:
            raise ServiceError(
                f"shard {self.shard_id!r} still has a rollout of {type_id!r} in flight"
            )
        token = secrets.token_hex(8)
        with self._staged_lock:
            self._staged[token] = (type_id, type_change)
        self.telemetry.add("change_propagation")
        return {
            "token": token,
            "shard_id": self.shard_id,
            "from_version": process_type.latest_version,
            "to_version": type_change.to_version,
        }

    def _pop_staged(self, token: str) -> Tuple[str, TypeChange]:
        with self._staged_lock:
            staged = self._staged.pop(token, None)
        if staged is None:
            raise ServiceError(f"no staged evolution for token {token!r}")
        return staged

    def _op_evolve_activate(
        self,
        *,
        token: str,
        rollout: str = ROLLOUT_EAGER,
        migrate: str = "compliant",
        fraction: float = 0.1,
        conflict_threshold: float = 0.5,
        min_observations: int = 20,
        policy: str = "revert",
        sweep: bool = False,
    ) -> Dict[str, Any]:
        """Phase 2: commit a staged change (eager migrate or rollout)."""
        system = self._system()
        type_id, type_change = self._pop_staged(token)
        if rollout == ROLLOUT_EAGER:
            report = system.evolve(type_id, type_change, migrate=migrate, collect_results=False)
            self.telemetry.add("migration", report.migrated_count)
            return {
                "shard_id": self.shard_id,
                "mode": rollout,
                "from_version": report.from_version,
                "to_version": report.to_version,
                "total": report.total,
                "migrated": report.migrated_count,
                "outcomes": report.outcome_counts(),
            }
        if rollout not in (ROLLOUT_LAZY, ROLLOUT_CANARY):
            raise ServiceError(f"unknown rollout mode {rollout!r}")
        progress = system.evolve(
            type_id,
            type_change,
            rollout=rollout,
            fraction=fraction,
            conflict_threshold=conflict_threshold,
            min_observations=min_observations,
            canary_policy=policy,
            # shard-local canaries never self-decide: each shard sees only
            # its partition's attempts, the router sees the fleet's
            canary_decide="external" if rollout == ROLLOUT_CANARY else "auto",
        ).progress()
        if sweep and rollout == ROLLOUT_LAZY:
            sweeper = RolloutSweeper(system, type_id)
            self._sweepers[type_id] = sweeper
            sweeper.start()
        return {"shard_id": self.shard_id, "mode": rollout, **progress}

    def _op_evolve_abort(self, *, token: str) -> Dict[str, Any]:
        with self._staged_lock:
            return {"aborted": self._staged.pop(token, None) is not None}

    def _op_evolve_abort_type(self, *, type_id: str) -> Dict[str, Any]:
        """Drop any staged change for a type (the router lost the token).

        A publish broadcast that failed part-way leaves stages on the
        shards that accepted; the router no longer knows their tokens, so
        the abort is keyed by type instead.
        """
        with self._staged_lock:
            tokens = [token for token, staged in self._staged.items() if staged[0] == type_id]
            for token in tokens:
                del self._staged[token]
        return {"aborted": len(tokens)}

    def _op_case_ids(self) -> List[str]:
        """Every case id this shard owns (live or stored) — rebalancing input."""
        system = self._system()
        return sorted(set(system.live_instance_ids()) | set(system.store.instance_ids()))

    def _op_rollout_status(self, *, type_id: str) -> Optional[Dict[str, Any]]:
        return self._system().rollout_status(type_id)

    def _op_rollout_decide(self, *, type_id: str, decision: str) -> Dict[str, Any]:
        """Apply the router's aggregated canary verdict on this shard."""
        system = self._system()
        rollout = system.rollout_of(type_id)
        if rollout is None or rollout.state != "observing":
            return {"applied": False}
        if decision == "promote":
            system.evolution.promote(type_id)
        elif decision == "rollback":
            system.evolution.roll_back(type_id)
        else:
            raise ServiceError(f"unknown rollout decision {decision!r}")
        return {"applied": True}

    def _op_sweep_rollout(self, *, type_id: str, max_cases: int = 256) -> Dict[str, Any]:
        swept = self._system().sweep_rollout(type_id, max_cases=max_cases)
        self.telemetry.add("migration", swept)
        return {"swept": swept}

    # ------------------------------------------------------------------ #
    # worklist
    # ------------------------------------------------------------------ #

    def _op_worklist(self, *, user: str) -> List[Dict[str, Any]]:
        return [_item_payload(item) for item in self._system().worklist(user)]

    def _op_claim(self, *, item_id: str, user: str) -> Dict[str, Any]:
        return _item_payload(self._system().claim(item_id, user))

    def _op_complete_item(
        self, *, item_id: str, outputs: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        return _item_payload(self._system().complete_item(item_id, outputs=outputs))

    # ------------------------------------------------------------------ #
    # cross-shard case handover
    # ------------------------------------------------------------------ #

    def _op_export_case(self, *, instance_id: str) -> Dict[str, Any]:
        """Serialise a case and drop local ownership (handover out)."""
        system = self._system()
        record = system.store.encode_record(system.get_instance(instance_id))
        system.delete_instance(instance_id)
        self.telemetry.add("handover")
        return {"record": record}

    def _op_import_case(self, *, record: Dict[str, Any]) -> Dict[str, Any]:
        """Adopt a case exported by another shard (handover in)."""
        system = self._system()
        handle = system.adopt_instance(system.store.instantiate(record))
        self.telemetry.add("handover")
        return {"instance_id": handle.instance_id}

    # ------------------------------------------------------------------ #
    # durability and the worker pool
    # ------------------------------------------------------------------ #

    def _op_checkpoint(self) -> Dict[str, Any]:
        self._system().checkpoint()
        return {}

    def _op_serve(self, *, workers: int = 4, worker: Optional[str] = None) -> Dict[str, Any]:
        self._system().serve(workers=workers, worker=self._worker(worker))
        self.workers = workers
        return {"workers": workers}

    def _op_drain(self, *, timeout: Optional[float] = None) -> Dict[str, Any]:
        stats = self._system().drain(timeout=timeout)
        self.workers = 0
        return {
            "workers": stats.workers,
            "items_completed": stats.items_completed,
            "stale_claims": stats.stale_claims,
        }

    def _op_shutdown(self) -> Dict[str, Any]:
        # respond first, then let the waiter in main()/stop() tear down —
        # the client gets its ack before the listener closes
        self.initiate_shutdown()
        return {"stopping": True}


#: the ops that advance cases, and the steps their result says they took
_STEPS_OF: Dict[str, Callable[[Any], int]] = {
    "run": lambda result: result["steps"],
    "step_many": lambda results: sum(result["steps"] for result in results),
    "complete": lambda result: 1,
    "complete_item": lambda result: 1,
}


def _steps_taken(request: Any, response: Dict[str, Any]) -> int:
    """The steps a served request took (its ``steps`` telemetry)."""
    if not response["ok"]:
        return 0
    count = _STEPS_OF.get(request["op"])
    return 0 if count is None else count(response["result"])


def _item_payload(item: Any) -> Dict[str, Any]:
    return {
        "item_id": item.item_id,
        "instance_id": item.instance_id,
        "activity_id": item.activity_id,
        "role": item.role,
        "state": item.state.value,
        "claimed_by": item.claimed_by,
    }


def _truncated(message: str) -> str:
    if len(message) <= LOGGED_MESSAGE_CHARS:
        return message
    return message[:LOGGED_MESSAGE_CHARS] + "…"


def _error_payload(exc: Exception) -> Dict[str, Any]:
    return {
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


# ---------------------------------------------------------------------- #
# process entry point
# ---------------------------------------------------------------------- #


def run_shard_server(argv: Optional[List[str]] = None) -> int:
    """Run one shard process until a signal or a ``shutdown`` RPC.

    SIGTERM and SIGINT both trigger the *graceful* path: stop accepting,
    drain the worker pool, flush the group-commit WAL batches and write a
    checkpoint through the (idempotent) ``AdeptSystem.close``.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.shard_server",
        description="Serve one durable AdeptSystem partition as a shard.",
    )
    parser.add_argument("--shard-id", required=True)
    parser.add_argument("--store", required=True, help="this shard's store directory")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = OS-assigned")
    parser.add_argument("--workers", type=int, default=0, help="worker pool size")
    parser.add_argument("--worker", default="", help="worker spec (e.g. simulated_latency:0.002)")
    parser.add_argument("--cache-instances", type=int, default=None)
    args = parser.parse_args(argv)

    server = ShardServer(
        args.shard_id,
        store=args.store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        worker=args.worker,
        cache_instances=args.cache_instances,
    )

    def _on_signal(signum: int, frame: Any) -> None:
        server.initiate_shutdown()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    server.start_in_thread()
    try:
        server.wait()
    finally:
        server.stop()
    return 0


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run_shard_server())


if __name__ == "__main__":  # pragma: no cover
    main()
