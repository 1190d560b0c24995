"""The four workloads: ``desk``, ``crowd``, ``batch`` and ``evolve``.

Every workload is a closed loop with one client thread.  It is seeded in
a child process (:meth:`seed_store`, so seeding never shows in the peak
RSS), ends its seeded store with a checkpoint *plus* a journaled suffix
(so every restart loads a snapshot and replays a log), and drives a
fixed sequence of operations derived from ``--seed`` that is cut into
blocks of equal work.  Each session keeps a model of what the program
must answer: a request that raises or answers something else counts as
failed, and so does every end-of-run check that does not hold.

Case ids never look like ``<type>-rNNNNNN`` — that is the router's own
allocation scheme, and a fresh router over a durable store would walk
its 1000-retry collision loop through them.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.operations import DeleteActivity, SerialInsertActivity
from repro.schema import templates
from repro.schema.builder import SchemaBuilder
from repro.schema.nodes import Node
from repro.service import ShardRouter, ShardServer
from repro.system import AdeptSystem
from repro.workloads.schema_generator import RandomSchemaGenerator, SchemaGeneratorConfig

from measure import Block, Recorder
from sandbox import HERE, Sandbox, start_shard

SHARD_ID = "shard-00"


class Session:
    """One measured phase of a workload against one opened store."""

    #: processes besides the harness whose CPU belongs to the workload
    cpu_pids: Sequence[int] = ()
    #: the process that runs ``repro`` system code (peak RSS is read here)
    rss_pid: int = 0

    def __init__(self) -> None:
        self.failed = 0
        self.failures: List[str] = []
        #: journal records this session was acknowledged, by (kind, action)
        self.acked: Counter = Counter()

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def checked(
        self,
        rec: Recorder,
        expect: Callable[[Any], bool],
        call: Callable[..., Any],
        *args: Any,
        latency: bool = True,
        **kwargs: Any,
    ) -> Any:
        """One request; raising or answering unexpectedly counts as failed."""
        try:
            reply = rec.request(call, *args, latency=latency, **kwargs)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.fail(f"{getattr(call, '__name__', call)}{args!r} raised {exc!r}")
            return None
        if not expect(reply):
            self.fail(f"{getattr(call, '__name__', call)}{args!r} answered {reply!r}")
        return reply

    # the measured phase ------------------------------------------------ #

    def run_block(self, rec: Recorder, block: Block) -> None:
        raise NotImplementedError

    # after the measured phase ------------------------------------------ #

    def system(self) -> AdeptSystem:
        """The in-process system, for layer counters (traced phases only)."""
        raise NotImplementedError

    def final_states(self) -> Dict[str, str]:
        """``{case id: state fingerprint}`` of every case, checked against the model."""
        raise NotImplementedError

    def crash(self) -> None:
        """Stop the program without a flush or a checkpoint (kill -9 semantics)."""
        raise NotImplementedError


def journal_counts(store: str) -> Counter:
    """``(kind, action)`` counts over every WAL file under ``store``."""
    counts: Counter = Counter()
    for wal in Path(store).rglob("wal.jsonl"):
        with open(wal, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                counts[(record["kind"], record.get("action"))] += 1
    return counts


# ---------------------------------------------------------------------- #
# desk / crowd: a worklist clerk over the wire
# ---------------------------------------------------------------------- #

ORDER_TYPE = "online_order"
#: activities an ``online_order`` case executes before it completes
ORDER_LENGTH = 6

class WireWorkload:
    """``ShardRouter`` → one durable shard process, ``population`` resident cases.

    The client works in rounds of ten requests: six
    ``step_many([case], steps=1)``, two ``instance_info`` reads of
    seeded-random cases, and — because exactly one of six consecutive
    slots holds a case on its last activity — one ``delete_instance`` of
    the finished case and one ``start`` of its replacement.  The
    population is therefore stationary and every round is the same
    work.  ``online_order`` has six activities, so turnover cannot be
    rarer than two requests per six steps.
    """

    def __init__(self, name: str, population: int, rounds_per_second: float) -> None:
        self.name = name
        self.base_population = population
        self.rounds_per_second = rounds_per_second

    def population(self, scale: float) -> int:
        return max(12, int(self.base_population * scale) // 6 * 6)

    def units_per_block(self, seconds: float, blocks: int) -> int:
        return max(1, round(self.rounds_per_second * seconds / blocks))

    def seed_store(self, store: str, seed: int, scale: float) -> Dict[str, Any]:
        rng = random.Random(seed)
        population = self.population(scale)
        token = f"{self.name[0]}{seed % 1000000:06d}"
        ids = [_case_id(token, slot, 0) for slot in range(population)]
        system = AdeptSystem.open(os.path.join(store, SHARD_ID))
        system.deploy(templates.online_order_process())
        suffix = max(6, population // 60 * 6)
        for part, journaled in ((ids[:-suffix], False), (ids[-suffix:], True)):
            for case_id in part:
                system.start(ORDER_TYPE, case_id=case_id, order=_order_payload(rng))
            for level in range(1, ORDER_LENGTH):
                system.step_many(
                    [i for i in part if _slot_of(i) % ORDER_LENGTH == level], steps=level
                )
            if not journaled:
                system.checkpoint()
        system.close(checkpoint=False)
        return {"token": token, "population": population}

    def cold_start(
        self, sandbox: Sandbox, store: str, meta: Dict[str, Any]
    ) -> Tuple[float, Any]:
        """Spawn shard process → ``AdeptSystem.open`` → first ``ping``."""
        started = time.perf_counter()
        process, endpoint = start_shard(sandbox, os.path.join(store, SHARD_ID), SHARD_ID)
        router = ShardRouter({SHARD_ID: endpoint})
        try:
            router.call(SHARD_ID, "ping")
            elapsed = time.perf_counter() - started
        finally:
            router.close()
        return elapsed, (process, endpoint)

    def discard_cold_start(self, sandbox: Sandbox, handle: Any) -> None:
        sandbox.kill(handle[0])

    def reopen(self, store: str, meta: Dict[str, Any]) -> AdeptSystem:
        """The stored partition as a plain in-process system (twin checks)."""
        return AdeptSystem.open(os.path.join(store, SHARD_ID))

    def open(
        self,
        sandbox: Sandbox,
        store: str,
        meta: Dict[str, Any],
        seed: int,
        units_per_block: int,
        started: Any = None,
    ) -> "WireSession":
        return WireSession(sandbox, store, meta, seed, units_per_block, started)


def _case_id(token: str, slot: int, generation: int) -> str:
    return f"{token}-{slot:05d}-{generation:05d}"


def _slot_of(case_id: str) -> int:
    return int(case_id.split("-")[1])


def _order_payload(rng: random.Random) -> Dict[str, Any]:
    # fixed-width values: the journal's bytes per request must not depend on the seed
    return {"sku": f"SKU-{rng.randrange(10**6):06d}", "quantity": rng.randrange(1, 10)}


class WireSession(Session):
    def __init__(
        self,
        sandbox: Sandbox,
        store: str,
        meta: Dict[str, Any],
        seed: int,
        rounds_per_block: int,
        started: Any,
    ) -> None:
        super().__init__()
        self.sandbox = sandbox
        self.rounds_per_block = rounds_per_block
        self.rng = random.Random(seed + 1)
        self.token = meta["token"]
        self.population = meta["population"]
        self.server: Optional[ShardServer] = None
        self.process: Optional[subprocess.Popen] = None
        if started is None:
            # the traced topology: the same server, in a thread of this process
            self.server = ShardServer(SHARD_ID, store=os.path.join(store, SHARD_ID))
            endpoint = self.server.start_in_thread()
            self.rss_pid = os.getpid()
        else:
            self.process, endpoint = started
            self.cpu_pids = [self.process.pid]
            self.rss_pid = self.process.pid
        self.router = ShardRouter({SHARD_ID: endpoint})
        self.client = self.router.clients[SHARD_ID]
        self.generation = [0] * self.population
        self.progress = [slot % ORDER_LENGTH for slot in range(self.population)]
        self.cursor = 0

    def system(self) -> AdeptSystem:
        assert self.server is not None and self.server.system is not None
        return self.server.system

    def _id(self, slot: int) -> str:
        return _case_id(self.token, slot, self.generation[slot])

    def run_block(self, rec: Recorder, block: Block) -> None:
        before = rec.requests
        with rec.timed():
            for _ in range(self.rounds_per_block):
                for offset in range(ORDER_LENGTH):
                    self._step(rec, (self.cursor + offset) % self.population)
                    if offset in (1, 3):
                        self._read(rec, self.rng.randrange(self.population))
                self.cursor = (self.cursor + ORDER_LENGTH) % self.population
        block.work = rec.requests - before

    def _step(self, rec: Recorder, slot: int) -> None:
        self.progress[slot] += 1
        status = "completed" if self.progress[slot] == ORDER_LENGTH else "running"
        self.checked(
            rec,
            lambda reply: len(reply) == 1
            and reply[0]["steps"] == 1
            and reply[0]["status"] == status,
            self.router.step_many,
            [self._id(slot)],
            steps=1,
        )
        self.acked[("step", "complete")] += 1
        if status == "completed":
            self._replace(rec, slot)

    def _read(self, rec: Recorder, slot: int) -> None:
        expected = self.progress[slot]
        self.checked(
            rec,
            lambda reply: reply["version"] == 1
            and reply["status"] == "running"
            and len(reply["completed"]) == expected,
            self.router.instance_info,
            self._id(slot),
            latency=False,
        )

    def _replace(self, rec: Recorder, slot: int) -> None:
        finished = self._id(slot)
        self.checked(
            rec,
            lambda reply: reply == {"deleted": True},
            self.client.call,
            "delete_instance",
            instance_id=finished,
            latency=False,
        )
        self.acked[("instance_deleted", None)] += 1
        self.generation[slot] += 1
        self.progress[slot] = 0
        replacement = self._id(slot)
        self.checked(
            rec,
            lambda reply: reply == replacement,
            self.router.start,
            ORDER_TYPE,
            case_id=replacement,
            order=_order_payload(self.rng),
            latency=False,
        )
        self.acked[("instance_started", None)] += 1

    def final_states(self) -> Dict[str, str]:
        states: Dict[str, str] = {}
        for slot in range(self.population):
            case_id = self._id(slot)
            info = self.router.instance_info(case_id)
            if info["status"] != "running" or len(info["completed"]) != self.progress[slot]:
                self.fail(f"{case_id} ended as {info['status']}/{info['completed']}")
            states[case_id] = info["state_fingerprint"]
        resident = self.client.call("case_ids")
        if sorted(resident) != sorted(states):
            self.fail(f"shard holds {len(resident)} cases, the model {len(states)}")
        return states

    def crash(self) -> None:
        self.router.close()
        if self.process is not None:
            self.sandbox.kill(self.process)
        elif self.server is not None:
            self.server.stop(checkpoint=False)


# ---------------------------------------------------------------------- #
# batch: bulk progression in-process, population 4x the live cache
# ---------------------------------------------------------------------- #

BATCH_TYPE = "bulk"
BATCH_CHUNK = 50
BATCH_STEPS = 2


def batch_schema() -> Any:
    """The fixed ≈ 60-node generated schema (AND/XOR blocks, no loops)."""
    config = SchemaGeneratorConfig(target_activities=44, loop_probability=0.0)
    return RandomSchemaGenerator(config, seed=7).generate(BATCH_TYPE)


class InProcessWorkload:
    """What ``batch`` and ``evolve`` share: no wire, a bounded live cache."""

    def cache(self, population: int) -> int:
        raise NotImplementedError

    def cold_start(
        self, sandbox: Sandbox, store: str, meta: Dict[str, Any]
    ) -> Tuple[float, Any]:
        """Spawn a process → import → ``AdeptSystem.open`` → ready line."""
        started = time.perf_counter()
        process = sandbox.spawn(
            [str(HERE / "child.py"), "coldstart", store, str(self.cache(meta["population"]))],
            stdout=subprocess.PIPE,
            text=True,
        )
        assert process.stdout is not None
        line = process.stdout.readline()
        elapsed = time.perf_counter() - started
        process.wait(timeout=30.0)
        if line.strip() != "ready" or process.returncode != 0:
            raise RuntimeError(f"cold start failed: {line!r}, exit {process.returncode}")
        return elapsed, None

    def discard_cold_start(self, sandbox: Sandbox, handle: Any) -> None:
        """Nothing to stop: the cold-start child has already exited."""

    def reopen(self, store: str, meta: Dict[str, Any]) -> AdeptSystem:
        return AdeptSystem.open(store, cache_instances=self.cache(meta["population"]))


class BatchWorkload(InProcessWorkload):
    """Round-robin ``step_many(50 ids, steps=2)`` over a store 4x the live cache.

    Every visit of a case hydrates it from its stored record and evicts
    another, so the engine kernel, the journal (two records per step),
    hydration/eviction and the event bus do the work; the worklist scan
    is paid once per call.  Finished cases are deleted and replaced.
    Work is activity steps; a request is one ``step_many`` call.
    """

    name = "batch"
    base_population = 1000

    def __init__(self, calls_per_second: float) -> None:
        self.calls_per_second = calls_per_second

    def population(self, scale: float) -> int:
        return max(2 * BATCH_CHUNK, int(self.base_population * scale))

    def cache(self, population: int) -> int:
        return population // 4

    def units_per_block(self, seconds: float, blocks: int) -> int:
        return max(1, round(self.calls_per_second * seconds / blocks))

    def seed_store(self, store: str, seed: int, scale: float) -> Dict[str, Any]:
        rng = random.Random(seed)
        population = self.population(scale)
        token = f"b{seed % 1000000:06d}"
        system = AdeptSystem.open(store, cache_instances=self.cache(population))
        system.deploy(batch_schema())
        levels = _level_records(system, BATCH_TYPE, "template")
        slots = list(range(population))
        rng.shuffle(slots)  # which slot sits at which progress level
        level_of = {slot: rank % len(levels) for rank, slot in enumerate(slots)}
        ids = [_case_id(token, slot, 0) for slot in range(population)]
        suffix = max(1, population // 10)
        for case_id in ids[:-suffix]:
            record = json.loads(levels[level_of[_slot_of(case_id)]])
            record["instance_id"] = case_id
            system.store.put_record(record)
        system.checkpoint()
        _start_at_levels(system, BATCH_TYPE, ids[-suffix:], level_of)
        system.close(checkpoint=False)
        return {"token": token, "population": population}

    def open(
        self,
        sandbox: Sandbox,
        store: str,
        meta: Dict[str, Any],
        seed: int,
        units_per_block: int,
        started: Any = None,
    ) -> "BatchSession":
        return BatchSession(store, meta, units_per_block, self.cache(meta["population"]))


def _level_records(system: AdeptSystem, type_id: str, case_id: str) -> List[str]:
    """The stored record of one executed case after 0, 1, 2, … activities."""
    system.start(type_id, case_id=case_id)
    records = []
    while True:
        system.save(case_id)
        records.append(json.dumps(system.store.record(case_id)))
        result = system.step_many([case_id], steps=1)[0]
        if not result.status.is_active:
            break
    system.delete_instance(case_id)
    return records


def _start_at_levels(
    system: AdeptSystem, type_id: str, ids: Sequence[str], level_of: Dict[int, int]
) -> None:
    """Start ``ids`` through the façade and step each to its slot's level (journaled)."""
    for case_id in ids:
        system.start(type_id, case_id=case_id)
    by_level: Dict[int, List[str]] = {}
    for case_id in ids:
        by_level.setdefault(level_of[_slot_of(case_id)], []).append(case_id)
    for level in sorted(by_level):
        if level:
            system.step_many(by_level[level], steps=level)


class BatchSession(Session):
    def __init__(
        self, store: str, meta: Dict[str, Any], calls_per_block: int, cache: int
    ) -> None:
        super().__init__()
        self.calls_per_block = calls_per_block
        self.token = meta["token"]
        self.population = meta["population"]
        self.rss_pid = os.getpid()
        self._system = AdeptSystem.open(store, cache_instances=cache)
        self.generation = [0] * self.population
        self.cursor = 0

    def system(self) -> AdeptSystem:
        return self._system

    def _id(self, slot: int) -> str:
        return _case_id(self.token, slot, self.generation[slot])

    def run_block(self, rec: Recorder, block: Block) -> None:
        system = self._system
        with rec.timed():
            for _ in range(self.calls_per_block):
                slots = [(self.cursor + k) % self.population for k in range(BATCH_CHUNK)]
                self.cursor = (self.cursor + BATCH_CHUNK) % self.population
                results = self.checked(
                    rec,
                    lambda results: len(results) == BATCH_CHUNK
                    and all(
                        r.steps == BATCH_STEPS or (r.steps and not r.status.is_active)
                        for r in results
                    ),
                    system.step_many,
                    [self._id(slot) for slot in slots],
                    steps=BATCH_STEPS,
                )
                for slot, result in zip(slots, results or ()):
                    block.work += result.steps
                    self.acked[("step", "complete")] += result.steps
                    if not result.status.is_active:
                        self._replace(rec, slot)

    def _replace(self, rec: Recorder, slot: int) -> None:
        self.checked(
            rec, lambda existed: existed is True,
            self._system.delete_instance, self._id(slot), latency=False,
        )
        self.acked[("instance_deleted", None)] += 1
        self.generation[slot] += 1
        replacement = self._id(slot)
        self.checked(
            rec, lambda handle: handle.instance_id == replacement,
            self._system.start, BATCH_TYPE, case_id=replacement, latency=False,
        )
        self.acked[("instance_started", None)] += 1

    def final_states(self) -> Dict[str, str]:
        states = {}
        for slot in range(self.population):
            instance = self._system.get_instance(self._id(slot))
            if not instance.status.is_active:
                self.fail(f"{instance.instance_id} ended {instance.status.value}")
            states[instance.instance_id] = instance.state_fingerprint()
        known = set(self._system.live_instance_ids()) | set(self._system.stored_instance_ids())
        if known != set(states):
            self.fail(f"system holds {len(known)} cases, the model {len(states)}")
        return states

    def crash(self) -> None:
        self._system.close(checkpoint=False)


# ---------------------------------------------------------------------- #
# evolve: schema evolution over running cases, eager and lazy
# ---------------------------------------------------------------------- #

EVOLVE_TYPES = ("evo_a", "evo_b")
EVOLVE_TOUCHES = 10
EVOLVE_BIASED_SHARE = 0.03
EVOLVE_CHURN_SHARE = 0.10
_EXTRA = "extra"


def evolve_schema(type_id: str) -> Any:
    """Sixteen activities: a01–a04, AND(a05–a07 | a08–a10), a11–a16."""
    builder = SchemaBuilder(f"{type_id}_v1", name=type_id, version=1)
    builder.data("dossier")
    for index in range(1, 5):
        builder.activity(f"a{index:02d}", role="clerk", writes=["dossier"] if index == 1 else ())
    builder.parallel(
        [
            lambda seq: seq.activity("a05").activity("a06").activity("a07"),
            lambda seq: seq.activity("a08").activity("a09").activity("a10"),
        ],
        label="mid",
    )
    for index in range(11, 17):
        builder.activity(f"a{index:02d}", role="clerk")
    return builder.build()


def _delta(cycle: int) -> List[Any]:
    """Insert one activity mid-schema on even cycles, delete it on odd ones."""
    if cycle % 2 == 0:
        return [
            SerialInsertActivity(
                activity=Node(node_id=_EXTRA, name="extra check"), pred="a13", succ="a14"
            )
        ]
    return [DeleteActivity(activity_id=_EXTRA)]


class EvolveWorkload(InProcessWorkload):
    """The paper's central scenario on one durable in-process store.

    Two 16-activity types, running cases at uniformly spread progress,
    3 % of them ad-hoc modified with distinct biases (the residue no
    class verdict can be shared for).  One cycle: ``evolve(evo_a, Δ)``
    eager; ``evolve(evo_b, Δ, rollout="lazy")``, 10 single-case steps
    that adopt on touch, ``sweep_rollout`` until the rollout completes;
    then *untimed* churn (a seeded 10 % slice advances one step,
    finished cases are replaced) so progress and conflict rate stay
    stationary.  Δ inserts an activity on even cycles and deletes it on
    odd ones, which cost differently, so a block is a *pair* of cycles.
    Work is cases evaluated; a request latency is one adopt-on-touch
    step.
    """

    name = "evolve"
    base_population = 300

    def __init__(self, pairs_per_second: float) -> None:
        self.pairs_per_second = pairs_per_second

    def population(self, scale: float) -> int:
        return max(48, int(self.base_population * scale))

    def cache(self, population: int) -> int:
        """28 % of the two types' cases stay live."""
        return max(16, population * 4 // 7)

    def units_per_block(self, seconds: float, blocks: int) -> int:
        return max(1, round(self.pairs_per_second * seconds / blocks))

    def seed_store(self, store: str, seed: int, scale: float) -> Dict[str, Any]:
        rng = random.Random(seed)
        population = self.population(scale)
        token = f"e{seed % 1000000:06d}"
        system = AdeptSystem.open(store, cache_instances=self.cache(population))
        biased: Dict[str, List[int]] = {}
        journaled: List[Tuple[str, List[str], Dict[int, int]]] = []
        for type_id in EVOLVE_TYPES:
            system.deploy(evolve_schema(type_id))
            levels = _level_records(system, type_id, f"{type_id}-template")
            slots = list(range(population))
            rng.shuffle(slots)
            level_of = {slot: rank % len(levels) for rank, slot in enumerate(slots)}
            # ad-hoc changes go before a16, so biased cases sit early enough
            early = [slot for slot in slots if level_of[slot] <= 12]
            biased[type_id] = sorted(early[: max(1, int(population * EVOLVE_BIASED_SHARE))])
            suffix = set(slots[-max(1, population // 10) :]) | set(biased[type_id])
            for slot in range(population):
                if slot not in suffix:
                    record = json.loads(levels[level_of[slot]])
                    record["instance_id"] = _evolve_id(token, type_id, slot, 0)
                    system.store.put_record(record)
            journaled.append(
                (type_id, [_evolve_id(token, type_id, s, 0) for s in sorted(suffix)], level_of)
            )
        system.checkpoint()
        for type_id, ids, level_of in journaled:
            _start_at_levels(system, type_id, ids, level_of)
            for slot in biased[type_id]:
                _bias(system, _evolve_id(token, type_id, slot, 0))
        system.close(checkpoint=False)
        return {"token": token, "population": population, "biased": biased}

    def open(
        self,
        sandbox: Sandbox,
        store: str,
        meta: Dict[str, Any],
        seed: int,
        units_per_block: int,
        started: Any = None,
    ) -> "EvolveSession":
        return EvolveSession(store, meta, seed, units_per_block, self.cache(meta["population"]))


def _evolve_id(token: str, type_id: str, slot: int, generation: int) -> str:
    return f"{token}{type_id[-1]}-{slot:05d}-{generation:05d}"


def _bias(system: AdeptSystem, case_id: str) -> None:
    """A distinct ad-hoc insertion before the last activity of one case."""
    system.change(case_id).serial_insert(
        f"adhoc_{case_id.replace('-', '_')}", pred="a15", succ="a16"
    ).apply()


class EvolveSession(Session):
    def __init__(
        self, store: str, meta: Dict[str, Any], seed: int, pairs_per_block: int, cache: int
    ) -> None:
        super().__init__()
        self.pairs_per_block = pairs_per_block
        self.rng = random.Random(seed + 1)
        self.token = meta["token"]
        self.population = meta["population"]
        self.rss_pid = os.getpid()
        self._system = AdeptSystem.open(store, cache_instances=cache)
        self.generation = {t: [0] * self.population for t in EVOLVE_TYPES}
        self.biased = {t: set(meta["biased"][t]) for t in EVOLVE_TYPES}
        self.cycle = 0
        #: per cycle, for the per-layer table: candidates, conflicts, touches, …
        self.cycle_log: List[Dict[str, int]] = []

    def system(self) -> AdeptSystem:
        return self._system

    def _id(self, type_id: str, slot: int) -> str:
        return _evolve_id(self.token, type_id, slot, self.generation[type_id][slot])

    def run_block(self, rec: Recorder, block: Block) -> None:
        for _ in range(2 * self.pairs_per_block):
            block.work += self._cycle(rec)

    def _cycle(self, rec: Recorder) -> int:
        system = self._system
        eager_type, lazy_type = EVOLVE_TYPES
        from_version = system.type(lazy_type).latest_version
        on_from_version = sorted(
            handle.instance_id for handle in system.instances_of(lazy_type, version=from_version)
        )
        touched = self.rng.sample(on_from_version, min(EVOLVE_TOUCHES, len(on_from_version)))
        finished: List[str] = []
        swept = 0
        with rec.timed():
            report = self.checked(
                rec,
                lambda report: report.total == self.population
                and report.outcome_counts()["finished"] == 0,
                system.evolve, eager_type, _delta(self.cycle), collect_results=False,
                latency=False,
            )
            rollout = self.checked(
                rec, lambda rollout: rollout.state == "migrating",
                system.evolve, lazy_type, _delta(self.cycle), rollout="lazy",
                latency=False,
            )
            for case_id in touched:
                result = self.checked(
                    rec, lambda results: results[0].steps == 1,
                    system.step_many, [case_id], steps=1,
                )
                if result and not result[0].status.is_active:
                    finished.append(case_id)
            touch_adoptions = len(rollout.adopted) if rollout else 0
            while system.rollout_of(lazy_type) is not None:
                batch = self.checked(
                    rec, lambda count: count > 0 or system.rollout_of(lazy_type) is None,
                    system.sweep_rollout, lazy_type, max_cases=256, latency=False,
                )
                if not batch:
                    break  # stalled (already counted as failed) or drained
                swept += batch
        status = system.rollout_status(lazy_type) or {}
        if (
            status.get("state") != "completed"
            or status.get("to_version") != from_version + 1
            or status["adopted"] + status["conflicted"] != len(on_from_version)
            or status["attempts"] != len(on_from_version)
        ):
            self.fail(f"cycle {self.cycle}: rollout ended as {status}")
        self.acked[("step", "complete")] += len(touched)
        self.acked[("evolution", None)] += 1
        self.acked[("rollout_started", None)] += 1
        self.acked[("rollout_completed", None)] += 1
        self.acked[("rollout_migrated", None)] += status.get("adopted", 0)
        evaluated = (report.total if report else 0) + status.get("attempts", 0)
        cache = rollout.cache if rollout else None
        self.cycle_log.append(
            {
                "eager_candidates": report.total if report else 0,
                "eager_conflicts": (report.total - report.migrated_count) if report else 0,
                "lazy_candidates": status.get("attempts", 0),
                "lazy_conflicts": status.get("conflicted", 0),
                "lazy_hits": cache.hits if cache else 0,
                "lazy_misses": cache.misses if cache else 0,
                "lazy_classes": cache.classes if cache else 0,
                "touches": len(touched),
                "touch_adoptions": touch_adoptions,
                "swept": swept,
            }
        )
        self.cycle += 1
        self._churn(finished)
        return evaluated

    def _churn(self, finished: List[str]) -> None:
        """Untimed: advance a seeded slice one step, replace what finished."""
        system = self._system
        share = max(1, int(self.population * EVOLVE_CHURN_SHARE))
        for type_id in EVOLVE_TYPES:
            slots = self.rng.sample(range(self.population), share)
            results = system.step_many([self._id(type_id, s) for s in slots], steps=1)
            self.acked[("step", "complete")] += sum(r.steps for r in results)
            done = {r.instance_id for r in results if not r.status.is_active}
            done.update(i for i in finished if i[len(self.token)] == type_id[-1])
            for case_id in sorted(done):
                slot = _slot_of(case_id)
                system.delete_instance(case_id)
                self.generation[type_id][slot] += 1
                replacement = self._id(type_id, slot)
                system.start(type_id, case_id=replacement)
                self.acked[("instance_deleted", None)] += 1
                self.acked[("instance_started", None)] += 1
                if slot in self.biased[type_id]:
                    _bias(system, replacement)
                    self.acked[("adhoc_change", None)] += 1

    def final_states(self) -> Dict[str, str]:
        states = {}
        for type_id in EVOLVE_TYPES:
            latest = self._system.type(type_id).latest_version
            if latest != self.cycle + 1:
                self.fail(f"{type_id} is at v{latest} after {self.cycle} cycles")
            for slot in range(self.population):
                instance = self._system.get_instance(self._id(type_id, slot))
                if not instance.status.is_active:
                    self.fail(f"{instance.instance_id} ended {instance.status.value}")
                states[instance.instance_id] = instance.state_fingerprint()
        return states

    def crash(self) -> None:
        self._system.close(checkpoint=False)


def exactly_once(store: str) -> List[str]:
    """Journal check: no case is migrated twice onto one version."""
    problems = []
    adopted: Counter = Counter()
    for wal in Path(store).rglob("wal.jsonl"):
        with open(wal, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if record["kind"] == "rollout_migrated":
                    adopted[(record["instance_id"], record["to_version"])] += 1
                elif record["kind"] == "evolution":
                    candidates = record["candidates"]
                    if len(set(candidates)) != len(candidates):
                        problems.append(f"evolution #{record['seq']} lists a case twice")
    problems += [f"{key} adopted {n} times" for key, n in adopted.items() if n > 1]
    return problems


WORKLOADS = {
    "desk": WireWorkload("desk", population=24, rounds_per_second=215.0),
    "crowd": WireWorkload("crowd", population=1200, rounds_per_second=15.0),
    "batch": BatchWorkload(calls_per_second=20.0),
    "evolve": EvolveWorkload(pairs_per_second=4.0),
}
