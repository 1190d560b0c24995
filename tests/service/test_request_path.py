"""The budget of one step request — counts, never time.

What a ``step_many`` costs on its way from the caller to the journal is
pinned here in the units that do not depend on the host: threads it
hops, WAL records it appends, flushes it waits for.  One case on one
shard: the caller's own thread all the way to the socket, one record,
one flush.  N shards: the caller carries the first call, the pool the
rest, every call lands before a failure surfaces and the first failure
in call order is the one raised.
"""

import threading

import pytest

from repro import AdeptSystem
from repro.schema.templates import online_order_process, sequential_process
from repro.service import ShardClient, ShardRouter, ShardServer


@pytest.fixture()
def fleet(tmp_path):
    """``fleet(n)`` → (servers, router) over n in-thread durable shards."""
    servers, routers = [], []

    def build(count):
        endpoints = {}
        for index in range(count):
            server = ShardServer(f"s{index}", store=str(tmp_path / f"s{index}"))
            endpoints[server.shard_id] = server.start_in_thread()
            servers.append(server)
        router = ShardRouter(endpoints)
        routers.append(router)
        router.deploy(online_order_process().to_dict())
        return servers, router

    try:
        yield build
    finally:
        for router in routers:
            router.close()
        for server in servers:
            server.stop()


@pytest.fixture()
def call_threads(monkeypatch):
    """Thread ident of every ``ShardClient.call``, as ``(shard_id, op, ident)``."""
    seen = []
    call = ShardClient.call

    def recording_call(self, op, **params):
        seen.append((self.shard_id, op, threading.get_ident()))
        return call(self, op, **params)

    monkeypatch.setattr(ShardClient, "call", recording_call)
    return seen


def _wal_counts(server):
    wal = server.system.backend.wal
    return wal.append_count, wal.flush_count


class TestOneShard:
    def test_a_step_costs_one_record_one_flush_and_no_thread_hop(self, fleet, call_threads):
        (server,), router = fleet(1)
        case_id = router.start("online_order")
        del call_threads[:]
        appended, flushed = _wal_counts(server)

        (result,) = router.step_many([case_id], steps=1)

        assert result["steps"] == 1
        assert _wal_counts(server) == (appended + 1, flushed + 1)
        assert call_threads == [("s0", "step_many", threading.get_ident())]


class TestTwoShards:
    def _ids_on_both(self, router, per_shard=3):
        """Started case ids, interleaved so that neither shard's run is contiguous."""
        by_shard = {shard_id: [] for shard_id in router.clients}
        while any(len(ids) < per_shard for ids in by_shard.values()):
            case_id = router.start("online_order")
            by_shard[router.ring.shard_for(case_id)].append(case_id)
        first, second = (ids[:per_shard] for ids in by_shard.values())
        return [case_id for pair in zip(first, second) for case_id in pair]

    def test_the_caller_carries_the_first_call_and_one_pool_thread_the_other(
        self, fleet, call_threads
    ):
        _servers, router = fleet(2)
        ids = self._ids_on_both(router)
        del call_threads[:]

        results = router.step_many(ids, steps=1)

        assert [result["instance_id"] for result in results] == ids
        assert all(result["steps"] == 1 for result in results)
        first_shard = next(iter(router.ring.partition(ids)))
        threads = {shard_id: ident for shard_id, _op, ident in call_threads}
        assert len(call_threads) == len(threads) == 2
        assert threads[first_shard] == threading.get_ident()
        assert len(set(threads.values())) == 2

    def test_a_case_given_twice_gets_each_steps_own_result(self, fleet):
        _servers, router = fleet(2)
        router.deploy(sequential_process(length=3).to_dict())
        by_shard = {}
        while len(by_shard) < 2:
            case_id = router.start("sequence")
            by_shard.setdefault(router.ring.shard_for(case_id), case_id)
        twice, other = by_shard.values()
        router.step_many([twice], steps=2)  # one activity before completion

        results = router.step_many([twice, other, twice], steps=1)

        # what the one-shard path answers: the first position took the
        # last step, the second found nothing left to do
        assert [result["instance_id"] for result in results] == [twice, other, twice]
        assert [result["steps"] for result in results] == [1, 1, 0]
        assert results[0]["status"] == results[2]["status"] == "completed"
        assert results[1]["status"] == "running"

    def test_every_call_lands_before_the_first_failure_in_call_order_surfaces(
        self, fleet, monkeypatch
    ):
        _servers, router = fleet(2)
        ids = self._ids_on_both(router)
        first_shard, second_shard = router.ring.partition(ids)
        first_failed, second_landed = threading.Event(), threading.Event()

        def failing_call(self, op, **params):
            if self.shard_id == first_shard:
                first_failed.set()
                raise RuntimeError("first in call order")
            # the other call is still in flight when the first has failed
            assert first_failed.wait(timeout=10)
            second_landed.set()
            raise RuntimeError("second in call order")

        monkeypatch.setattr(ShardClient, "call", failing_call)
        with pytest.raises(RuntimeError, match="first in call order"):
            router.step_many(ids, steps=1)
        assert second_landed.is_set()


def test_in_process_step_many_appends_one_complete_record_per_step(tmp_path):
    system = AdeptSystem.open(tmp_path / "db")
    orders = system.deploy(online_order_process())
    ids = [orders.start().instance_id for _ in range(4)]
    wal = system.backend.wal
    already, appended, flushed = len(system.backend.wal_records()), wal.append_count, wal.flush_count

    results = system.step_many(ids, steps=3) + system.step_many(ids[:2], steps=100)

    steps = sum(result.steps for result in results)
    assert steps > 4 * 3
    records = system.backend.wal_records()[already:]
    assert [(r["kind"], r["action"]) for r in records] == [("step", "complete")] * steps
    # one record per completed activity, one flush per step_many call
    assert (wal.append_count, wal.flush_count) == (appended + steps, flushed + 2)
    system.close()
