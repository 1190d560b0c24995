"""A batch on one shard is that shard's call — counted, never timed.

``ShardRouter.step_many`` partitions its ids over the ring.  When every
id lands on one shard the batch is one ``ShardClient.call`` made on the
caller's thread, with nothing handed to the router's pool, and the
shard's reply — already in input order — is the result.  A batch that
spans shards still fans out and merges by position.
"""

import threading

import pytest

from repro.service import ShardClient

from tests.service.test_request_path import call_threads, fleet  # noqa: F401 - fixtures


@pytest.fixture()
def plumbing(monkeypatch):
    """``plumbing(router)`` → counts of the router's pool submits and fan-outs."""

    def install(router):
        counts = {"submits": 0, "fan_outs": 0}
        submit, fan_out = router._pool.submit, router._fan_out

        def counting_submit(*args, **kwargs):
            counts["submits"] += 1
            return submit(*args, **kwargs)

        def counting_fan_out(calls):
            counts["fan_outs"] += 1
            return fan_out(calls)

        monkeypatch.setattr(router._pool, "submit", counting_submit)
        monkeypatch.setattr(router, "_fan_out", counting_fan_out)
        return counts

    return install


def test_one_shard_batch_is_one_call_with_no_pool_and_input_order(
    fleet, call_threads, plumbing, monkeypatch  # noqa: F811
):
    _servers, router = fleet(1)
    ids = [router.start("online_order") for _ in range(5)]
    ids = ids[3:] + ids[:3]  # not the order they were started in
    counts = plumbing(router)
    replies = []
    call = ShardClient.call

    def keeping_call(self, op, **params):
        replies.append(call(self, op, **params))
        return replies[-1]

    monkeypatch.setattr(ShardClient, "call", keeping_call)
    del call_threads[:]

    results = router.step_many(ids, steps=1)

    assert call_threads == [("s0", "step_many", threading.get_ident())]
    assert counts == {"submits": 0, "fan_outs": 0}
    assert results is replies[0]  # the shard's reply, not a merged copy
    assert [result["instance_id"] for result in results] == ids
    assert all(result["steps"] == 1 for result in results)


def test_two_shard_batch_still_fans_out_and_merges_in_input_order(
    fleet, call_threads, plumbing  # noqa: F811
):
    _servers, router = fleet(2)
    ids = [router.start("online_order") for _ in range(12)]
    assert {router.ring.shard_for(case_id) for case_id in ids} == {"s0", "s1"}
    ids.reverse()
    counts = plumbing(router)
    del call_threads[:]

    results = router.step_many(ids, steps=1)

    assert sorted(op for _shard, op, _ident in call_threads) == ["step_many"] * 2
    assert {shard for shard, _op, _ident in call_threads} == {"s0", "s1"}
    assert counts == {"submits": 1, "fan_outs": 1}
    assert [result["instance_id"] for result in results] == ids
    assert all(result["steps"] == 1 for result in results)
