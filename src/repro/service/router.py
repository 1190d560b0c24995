"""The client side of the service tier: per-shard clients and the router.

The :class:`ShardRouter` is the piece that makes N independent shard
processes look like one system:

* **placement** — instance ids are consistent-hashed onto the shards
  (:class:`~repro.service.hashring.HashRing`); new case ids are
  allocated by the router so placement is decided *before* the start
  request leaves the client.
* **fan-out** — batch operations (``step_many``, ``start_many``) are
  partitioned per shard, sent in parallel, and merged **in input
  order**: the k-th id a caller passes gets the k-th result back, no
  matter which shard executed it.  The calling thread carries the first
  shard's call itself; pool threads exist for the second to N-th.  A
  ``step_many`` whose ids all live on one shard is that shard's one
  call, its reply returned as is.
* **schema broadcast** — ``evolve`` is a versioned two-phase commit:
  phase 1 *publishes* the change to every shard (each validates that
  its type sits at the expected version and stages the change); only
  when all shards accepted does phase 2 *activate* it — eagerly, or as
  a per-shard lazy/canary rollout.  Any publish refusal aborts the
  broadcast on every shard, so the fleet never splits across versions.
* **canary aggregation** — shard-local canaries are created with
  ``canary_decide="external"``; :meth:`canary_watch` sums attempts and
  conflicts across all shards and broadcasts the one promote/rollback
  verdict, so the decision is taken on fleet-wide evidence.
* **cross-shard worklist** — offers are aggregated under
  shard-qualified item ids (``"<shard>/<item>"``); a claim is routed to
  the single owning shard where it remains the same atomic
  compare-and-set it is in-process.
"""

from __future__ import annotations

import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.runtime.engine import InstanceIdInUseError
from repro.service.errors import RemoteError, ServiceError, ShardUnavailableError
from repro.service.hashring import HashRing
from repro.service.protocol import recv_message, send_message
from repro.service.telemetry import ShardTelemetry

__all__ = ["ShardClient", "ShardRouter"]


class ShardClient:
    """One persistent connection to one shard, usable from many threads.

    Requests on a single connection are serialised under a lock (the
    protocol is strict request/response); the router achieves
    parallelism *across* shards, which is where the processes are.
    """

    def __init__(self, shard_id: str, host: str, port: int, timeout: float = 30.0) -> None:
        self.shard_id = shard_id
        self.host = host
        self.port = port
        self.timeout = timeout
        self.bytes_sent = 0
        self.bytes_received = 0
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None

    def _connect(self) -> socket.socket:
        if self._sock is None:
            try:
                sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
            except OSError as exc:
                raise ShardUnavailableError(self.shard_id, str(exc)) from exc
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def call(self, op: str, **params: Any) -> Any:
        """One request/response round trip; raises typed service errors."""
        request = {"op": op, **params}
        with self._lock:
            sock = self._connect()
            try:
                self.bytes_sent += send_message(sock, request)
                response, received = recv_message(sock)
                self.bytes_received += received
            except (ConnectionError, OSError) as exc:
                # a dead connection is not a dead shard per se, but the
                # caller must re-route or retry explicitly: drop the
                # socket so the next call reconnects
                self.close_socket()
                raise ShardUnavailableError(self.shard_id, str(exc)) from exc
        if not isinstance(response, dict) or "ok" not in response:
            raise ServiceError(f"malformed response from shard {self.shard_id!r}")
        if response["ok"]:
            return response.get("result")
        error = response.get("error") or {}
        raise RemoteError(
            self.shard_id, error.get("type", "Error"), error.get("message", "")
        )

    def close_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def close(self) -> None:
        with self._lock:
            self.close_socket()


class ShardRouter:
    """Make a fleet of shard processes look like one ``AdeptSystem``."""

    def __init__(
        self,
        endpoints: Mapping[str, Tuple[str, int]],
        replicas: int = 128,
        timeout: float = 30.0,
    ) -> None:
        if not endpoints:
            raise ServiceError("a router needs at least one shard endpoint")
        self.ring = HashRing(endpoints.keys(), replicas=replicas)
        self.clients: Dict[str, ShardClient] = {
            shard_id: ShardClient(shard_id, host, port, timeout=timeout)
            for shard_id, (host, port) in endpoints.items()
        }
        self._case_counters: Dict[str, int] = {}
        self._counter_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=max(4, len(self.clients)), thread_name_prefix="router"
        )

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #

    def client_for(self, instance_id: str) -> ShardClient:
        return self.clients[self.ring.shard_for(instance_id)]

    def call(self, shard_id: str, op: str, **params: Any) -> Any:
        return self.clients[shard_id].call(op, **params)

    def _fan_out(
        self, calls: Sequence[Tuple[str, Callable[[], Any]]]
    ) -> Dict[str, Any]:
        """Run thunks in parallel; raise the first failure after all land.

        The caller would only wait, so it runs the first thunk itself:
        every other one is handed to the pool before that, and all are
        collected in call order.  A request that involves one shard —
        every single-case operation's batch form — therefore never
        leaves the calling thread.
        """
        landings = [
            (shard_id, thunk if position == 0 else self._pool.submit(thunk).result)
            for position, (shard_id, thunk) in enumerate(calls)
        ]
        results: Dict[str, Any] = {}
        first_error: Optional[Exception] = None
        for shard_id, land in landings:
            try:
                results[shard_id] = land()
            except Exception as exc:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return results

    def broadcast(self, op: str, **params: Any) -> Dict[str, Any]:
        """Send one op to every shard in parallel; results by shard id."""
        return self._fan_out(
            [
                (shard_id, lambda c=client: c.call(op, **params))
                for shard_id, client in self.clients.items()
            ]
        )

    def reconnect(self, shard_id: str, host: str, port: int) -> None:
        """Point a shard's client at a restarted process."""
        client = self.clients[shard_id]
        client.close()
        client.host = host
        client.port = port

    def close(self) -> None:
        for client in self.clients.values():
            client.close()
        self._pool.shutdown(wait=False)

    # ------------------------------------------------------------------ #
    # schema and case lifecycle
    # ------------------------------------------------------------------ #

    def deploy(self, schema_dict: Mapping[str, Any], verify: bool = True) -> Dict[str, Any]:
        """Deploy a process type on every shard (idempotent broadcast)."""
        results = self.broadcast("deploy", schema=dict(schema_dict), verify=verify)
        return next(iter(results.values()))

    def _next_case_id(self, type_id: str) -> str:
        with self._counter_lock:
            self._case_counters[type_id] = self._case_counters.get(type_id, 0) + 1
            return f"{type_id}-r{self._case_counters[type_id]:06d}"

    def start(self, type_id: str, case_id: Optional[str] = None, **data: Any) -> str:
        """Start one case on the shard that owns its (possibly new) id."""
        return self._start(type_id, data, case_id, retry=case_id is None)

    def start_many(self, type_id: str, count: int, **data: Any) -> List[str]:
        """Start ``count`` cases, spread over the ring by their ids."""
        ids = [self._next_case_id(type_id) for _ in range(count)]
        per_shard = self._fan_out(
            [
                (shard_id, lambda g=group: {i: self._start(type_id, data, i) for i in g})
                for shard_id, group in self.ring.partition(ids).items()
            ]
        )
        started = {i: case_id for group in per_shard.values() for i, case_id in group.items()}
        return [started[i] for i in ids]

    def _start(
        self, type_id: str, data: Mapping[str, Any], case_id: Optional[str], retry: bool = True
    ) -> str:
        """Start a case; with ``retry``, a taken id is replaced by the next one.

        A restarted router counts from 1 again while durable shards keep
        their cases, so a router-allocated id can be the owner's
        ``InstanceIdInUseError``.  A caller's own ``case_id`` is not retried.
        """
        for _attempt in range(1000):
            if case_id is None:
                case_id = self._next_case_id(type_id)
            try:
                result = self.client_for(case_id).call(
                    "start", type_id=type_id, case_id=case_id, data=data or None
                )
                return result["instance_id"]
            except RemoteError as exc:
                if not retry or exc.remote_type != InstanceIdInUseError.__name__:
                    raise
                case_id = None
        raise ServiceError(f"no free case id for {type_id!r} after 1000 collisions")

    def step_many(
        self, instance_ids: Sequence[str], steps: int = 1, worker: str = ""
    ) -> List[Dict[str, Any]]:
        """Advance many cases, one batch per owning shard, merged in input order."""
        ids = list(instance_ids)
        groups = self.ring.partition(ids)
        if len(groups) == 1:
            # one owner got every id, in input order: its reply is the result
            (shard_id,) = groups
            return self.clients[shard_id].call(
                "step_many", instance_ids=ids, steps=steps, worker=worker
            )
        per_shard = self._fan_out(
            [
                (
                    shard_id,
                    lambda c=self.clients[shard_id], g=group: c.call(
                        "step_many", instance_ids=g, steps=steps, worker=worker
                    ),
                )
                for shard_id, group in groups.items()
            ]
        )
        # partition() preserved input order per shard, and each shard
        # returns results in its input order: position by position, the
        # next result of the case's owner is that position's (a case id
        # given twice gets each step's own result)
        owner = {case_id: shard_id for shard_id, group in groups.items() for case_id in group}
        replies = {shard_id: iter(per_shard[shard_id]) for shard_id in groups}
        return [next(replies[owner[case_id]]) for case_id in ids]

    def run(self, instance_id: str, worker: str = "", max_steps: int = 10000) -> Dict[str, Any]:
        return self.client_for(instance_id).call(
            "run", instance_id=instance_id, worker=worker, max_steps=max_steps
        )

    def complete(
        self,
        instance_id: str,
        activity_id: str,
        outputs: Optional[Mapping[str, Any]] = None,
        user: Optional[str] = None,
    ) -> Dict[str, Any]:
        return self.client_for(instance_id).call(
            "complete",
            instance_id=instance_id,
            activity_id=activity_id,
            outputs=dict(outputs) if outputs else None,
            user=user,
        )

    def instance_info(self, instance_id: str) -> Dict[str, Any]:
        return self.client_for(instance_id).call("instance_info", instance_id=instance_id)

    def instances_of(self, type_id: str, version: Optional[int] = None) -> List[str]:
        results = self.broadcast("instances_of", type_id=type_id, version=version)
        merged: List[str] = []
        for shard_id in sorted(results):
            merged.extend(results[shard_id])
        return merged

    # ------------------------------------------------------------------ #
    # the versioned two-phase schema broadcast
    # ------------------------------------------------------------------ #

    def evolve(
        self,
        type_id: str,
        change_dict: Mapping[str, Any],
        expect_version: int,
        rollout: str = "eager",
        **options: Any,
    ) -> Dict[str, Any]:
        """Evolve ``type_id`` across the whole fleet, atomically versioned.

        Phase 1 publishes the change to every shard; each shard verifies
        its type is at ``expect_version`` and stages the change under a
        token.  If *any* shard refuses (version skew, in-flight rollout,
        unreachable), the broadcast aborts on every shard that accepted
        and the error is re-raised — no shard activates.  Phase 2
        activates the staged change everywhere and aggregates the
        per-shard outcome counters.
        """
        tokens: Dict[str, str] = {}
        try:
            published = self.broadcast(
                "evolve_publish",
                type_id=type_id,
                change=dict(change_dict),
                expect_version=expect_version,
            )
        except Exception:
            # some shards may have staged before the failing one refused
            self._abort_published(type_id, expect_version)
            raise
        for shard_id, result in published.items():
            tokens[shard_id] = result["token"]
        try:
            activated = self._fan_out(
                [
                    (
                        shard_id,
                        lambda c=self.clients[shard_id], t=token: c.call(
                            "evolve_activate", token=t, rollout=rollout, **options
                        ),
                    )
                    for shard_id, token in tokens.items()
                ]
            )
        except Exception:
            # activation is not abortable — a shard that activated has
            # committed — but a shard that refused it (an undeclared
            # option) or was unreachable may still hold its stage
            self._abort_published(type_id, expect_version)
            raise
        summary: Dict[str, Any] = {
            "type_id": type_id,
            "rollout": rollout,
            "shards": activated,
        }
        if rollout == "eager":
            summary["total"] = sum(r["total"] for r in activated.values())
            summary["migrated"] = sum(r["migrated"] for r in activated.values())
            outcomes: Dict[str, int] = {}
            for result in activated.values():
                for outcome, count in result.get("outcomes", {}).items():
                    outcomes[outcome] = outcomes.get(outcome, 0) + count
            summary["outcomes"] = outcomes
        return summary

    def _abort_published(self, type_id: str, expect_version: int) -> None:
        """Best-effort abort of stages left behind by a failed publish."""
        for client in self.clients.values():
            try:
                # shards key stages by token; a failed broadcast loses the
                # tokens of the shards that *did* accept, so abort by
                # asking each shard to drop any stage for this type
                client.call("evolve_abort_type", type_id=type_id)
            except ServiceError:
                continue

    def rollout_status(self, type_id: str) -> Dict[str, Any]:
        """Aggregated rollout progress across all shards."""
        statuses = self.broadcast("rollout_status", type_id=type_id)
        present = {s: r for s, r in statuses.items() if r is not None}
        aggregate: Dict[str, Any] = {
            "type_id": type_id,
            "shards": statuses,
            "adopted": sum(r["adopted"] for r in present.values()),
            "conflicted": sum(r["conflicted"] for r in present.values()),
            "attempts": sum(r["attempts"] for r in present.values()),
            "states": sorted({r["state"] for r in present.values()}),
        }
        attempts = aggregate["attempts"]
        aggregate["observed_conflict_rate"] = (
            aggregate["conflicted"] / attempts if attempts else 0.0
        )
        return aggregate

    def canary_watch(
        self,
        type_id: str,
        min_observations: int = 20,
        conflict_threshold: float = 0.5,
        poll_interval: float = 0.02,
        timeout: float = 30.0,
    ) -> str:
        """Observe a fleet-wide canary and broadcast the one verdict.

        The shard-local rollouts were created with
        ``canary_decide="external"`` — none of them will self-promote on
        its partial sample.  This method polls the aggregated counters
        until ``min_observations`` attempts accumulated *fleet-wide*,
        decides with the same rule a single system applies locally, and
        broadcasts ``rollout_decide`` so every shard transitions together.
        Returns ``"promote"`` or ``"rollback"``.
        """
        import time

        deadline = time.monotonic() + timeout
        while True:
            aggregate = self.rollout_status(type_id)
            if aggregate["attempts"] >= min_observations:
                break
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"canary of {type_id!r} saw only {aggregate['attempts']} "
                    f"attempts before the watch timeout"
                )
            time.sleep(poll_interval)
        decision = (
            "rollback"
            if aggregate["observed_conflict_rate"] > conflict_threshold
            else "promote"
        )
        self.broadcast("rollout_decide", type_id=type_id, decision=decision)
        return decision

    def sweep_rollout(self, type_id: str, max_cases: int = 256) -> int:
        results = self.broadcast("sweep_rollout", type_id=type_id, max_cases=max_cases)
        return sum(r["swept"] for r in results.values())

    # ------------------------------------------------------------------ #
    # cross-shard worklist
    # ------------------------------------------------------------------ #

    def worklist(self, user: str) -> List[Dict[str, Any]]:
        """All shards' offers for ``user``, item ids shard-qualified."""
        results = self.broadcast("worklist", user=user)
        merged: List[Dict[str, Any]] = []
        for shard_id in sorted(results):
            for item in results[shard_id]:
                qualified = dict(item)
                qualified["item_id"] = f"{shard_id}/{item['item_id']}"
                qualified["shard_id"] = shard_id
                merged.append(qualified)
        return merged

    def _split_item_id(self, qualified: str) -> Tuple[str, str]:
        shard_id, _, item_id = qualified.partition("/")
        if not item_id or shard_id not in self.clients:
            raise ServiceError(f"item id {qualified!r} is not shard-qualified")
        return shard_id, item_id

    def claim(self, qualified_item_id: str, user: str) -> Dict[str, Any]:
        """Claim one offer — an atomic CAS on the single owning shard."""
        shard_id, item_id = self._split_item_id(qualified_item_id)
        item = self.clients[shard_id].call("claim", item_id=item_id, user=user)
        item["item_id"] = qualified_item_id
        item["shard_id"] = shard_id
        return item

    def complete_item(
        self, qualified_item_id: str, outputs: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        shard_id, item_id = self._split_item_id(qualified_item_id)
        item = self.clients[shard_id].call(
            "complete_item", item_id=item_id, outputs=dict(outputs) if outputs else None
        )
        item["item_id"] = qualified_item_id
        item["shard_id"] = shard_id
        return item

    # ------------------------------------------------------------------ #
    # membership changes (rebalancing)
    # ------------------------------------------------------------------ #

    def add_shard(self, shard_id: str, host: str, port: int) -> List[str]:
        """Add a shard and hand over the cases the ring remaps to it.

        The joining shard first receives every deployed type with all of
        its versions (schema sync — change propagation), *then* the
        remapped cases; an imported case always finds its type.
        """
        client = ShardClient(shard_id, host, port)
        donor = next(iter(self.clients.values()))
        for dumped_type in donor.call("dump_types"):
            client.call("adopt_type", type=dumped_type)
        self.clients[shard_id] = client
        before = {case_id: self.ring.shard_for(case_id) for case_id in self._all_case_ids()}
        self.ring.add_shard(shard_id)
        return self._rebalance(before)

    def remove_shard(self, shard_id: str) -> List[str]:
        """Drain a shard: hand its cases to the ring's new owners, drop it."""
        before = {case_id: self.ring.shard_for(case_id) for case_id in self._all_case_ids()}
        self.ring.remove_shard(shard_id)
        moved = self._rebalance(before)
        client = self.clients.pop(shard_id)
        client.close()
        return moved

    def _all_case_ids(self) -> List[str]:
        ids: List[str] = []
        for shard_ids in self.broadcast("case_ids").values():
            ids.extend(shard_ids)
        return ids

    def _rebalance(self, before: Mapping[str, str]) -> List[str]:
        """Move every case whose owner changed; returns the moved ids."""
        moved: List[str] = []
        for case_id, old_owner in before.items():
            new_owner = self.ring.shard_for(case_id)
            if new_owner == old_owner:
                continue
            record = self.clients[old_owner].call("export_case", instance_id=case_id)
            self.clients[new_owner].call("import_case", record=record["record"])
            moved.append(case_id)
        return moved

    # ------------------------------------------------------------------ #
    # monitoring
    # ------------------------------------------------------------------ #

    def status(self) -> Dict[str, Any]:
        """Per-shard status plus fleet-wide aggregated telemetry."""
        shards = self.broadcast("status")
        telemetry = ShardTelemetry.merge(
            [result["telemetry"] for result in shards.values()]
        )
        client_bytes = sum(
            client.bytes_sent + client.bytes_received
            for client in self.clients.values()
        )
        return {
            "shards": shards,
            "telemetry": telemetry,
            "router_bytes": client_bytes,
        }

    def telemetry(self) -> Dict[str, int]:
        return ShardTelemetry.merge(list(self.broadcast("telemetry").values()))
