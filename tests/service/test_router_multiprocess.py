"""The service tier across real OS processes (``-m shards`` suite).

Covers the acceptance drills of the sharded runtime: consistent-hash
routing with order-preserving merges, the versioned two-phase schema
broadcast (including the abort path), fleet-aggregated canary verdicts,
rebalancing handovers, graceful SIGTERM flushes and the kill -9
mid-load recovery drill.
"""

import signal
import threading
import time

import pytest

from repro import AdeptSystem
from repro.schema.templates import online_order_process, sequential_process
from repro.service import (
    RemoteError,
    ShardRouter,
    ShardSupervisor,
    ShardUnavailableError,
)
from repro.workloads.order_process import ORDER_EXECUTION_SEQUENCE, order_type_change_v2
from tests.service.journal import journal_summary

pytestmark = pytest.mark.shards

ORDERS = online_order_process().to_dict()


@pytest.fixture()
def fleet(tmp_path):
    supervisor = ShardSupervisor(str(tmp_path / "fleet"), shards=3)
    endpoints = supervisor.start_all()
    router = ShardRouter(endpoints)
    try:
        yield supervisor, router
    finally:
        router.close()
        supervisor.stop()


class TestRouting:
    def test_population_spreads_over_all_shards(self, fleet):
        _supervisor, router = fleet
        router.deploy(ORDERS)
        ids = router.start_many("online_order", 60)
        by_shard = router.ring.partition(ids)
        assert len(by_shard) == 3, "60 cases must not all land on one shard"
        status = router.status()
        total = sum(s["live_instances"] for s in status["shards"].values())
        assert total == 60

    def test_step_many_merges_in_input_order(self, fleet):
        _supervisor, router = fleet
        router.deploy(ORDERS)
        ids = router.start_many("online_order", 30)
        shuffled = list(reversed(ids))
        results = router.step_many(shuffled, steps=2)
        assert [r["instance_id"] for r in results] == shuffled
        assert all(r["steps"] == 2 for r in results)

    def test_instance_is_only_on_its_owning_shard(self, fleet):
        _supervisor, router = fleet
        router.deploy(ORDERS)
        (case_id,) = router.start_many("online_order", 1)
        owner = router.ring.shard_for(case_id)
        for shard_id, client in router.clients.items():
            if shard_id == owner:
                assert client.call("instance_info", instance_id=case_id)
            else:
                with pytest.raises(RemoteError):
                    client.call("instance_info", instance_id=case_id)

    def test_cross_shard_worklist_claim_is_single_shard(self, fleet):
        _supervisor, router = fleet
        router.deploy(ORDERS)
        router.start_many("online_order", 12)
        items = router.worklist("clerk")
        assert len(items) == 12
        shards_offering = {item["shard_id"] for item in items}
        assert len(shards_offering) == 3
        claimed = router.claim(items[0]["item_id"], "clerk")
        assert claimed["state"] == "claimed"
        done = router.complete_item(items[0]["item_id"])
        assert done["state"] == "completed"


class TestSchemaBroadcast:
    def test_two_phase_evolve_migrates_the_whole_fleet(self, fleet):
        _supervisor, router = fleet
        router.deploy(ORDERS)
        ids = router.start_many("online_order", 24)
        router.step_many(ids, steps=2)
        summary = router.evolve(
            "online_order", order_type_change_v2(1).to_dict(), expect_version=1
        )
        assert summary["total"] == 24
        assert summary["migrated"] == 24
        assert len(summary["shards"]) == 3
        for case_id in ids[:5]:
            assert router.instance_info(case_id)["version"] == 2

    def test_evolve_under_load_matches_single_process_reference(self, fleet):
        """The broadcast equals one in-process evolve of the same population,
        and each shard journals exactly one evolution record for it."""
        supervisor, router = fleet
        router.deploy(ORDERS)
        router.deploy(sequential_process(length=3).to_dict())
        ids = router.start_many("online_order", 60)
        # every third case advances past the V2 insertion point (a conflict)
        plan = {case_id: 4 if index % 3 == 0 else 2 for index, case_id in enumerate(ids)}
        for case_id, steps in plan.items():
            assert router.step_many([case_id], steps=steps)[0]["steps"] == steps
        side_ids = router.start_many("sequence", 30)

        # a second type keeps stepping through the router during the broadcast
        side_stepped, evolved, errors = threading.Event(), threading.Event(), []

        def side_load():
            try:
                while not evolved.is_set():
                    router.step_many(side_ids, steps=1)
                    side_stepped.set()
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)
                side_stepped.set()

        load = threading.Thread(target=side_load)
        load.start()
        assert side_stepped.wait(timeout=60)
        summary = router.evolve(
            "online_order", order_type_change_v2(1).to_dict(), expect_version=1
        )
        evolved.set()
        load.join(timeout=60)
        assert not errors, errors

        reference = AdeptSystem()
        reference.deploy(online_order_process())
        for case_id in ids:
            reference.start("online_order", case_id=case_id)
        for case_id, steps in plan.items():
            reference.step_many([case_id], steps=steps)
        report = reference.evolve("online_order", order_type_change_v2(1))
        assert summary["total"] == report.total == len(ids)
        assert summary["migrated"] == report.migrated_count
        assert summary["outcomes"] == report.outcome_counts()
        assert summary["total"] - summary["migrated"] == sum(
            1 for steps in plan.values() if steps == 4
        )

        # exactly once, from each shard's journal
        candidates = []
        for shard_id in router.clients:
            wal = journal_summary(supervisor.store_of(shard_id))
            evolutions = [r for r in wal["evolutions"] if r["type_id"] == "online_order"]
            assert len(evolutions) == 1, shard_id
            candidates.extend(evolutions[0]["candidates"])
            for case_id, steps in plan.items():
                if router.ring.shard_for(case_id) == shard_id:
                    assert wal["steps_by_instance"].get(case_id, 0) == steps
        assert sorted(candidates) == sorted(ids)

    def test_version_skew_aborts_everywhere(self, fleet):
        _supervisor, router = fleet
        router.deploy(ORDERS)
        router.start_many("online_order", 6)
        # drive one shard ahead of the fleet behind the router's back
        rogue = sorted(router.clients)[0]
        staged = router.clients[rogue].call(
            "evolve_publish",
            type_id="online_order",
            change=order_type_change_v2(1).to_dict(),
            expect_version=1,
        )
        router.clients[rogue].call(
            "evolve_activate", token=staged["token"], rollout="eager"
        )
        with pytest.raises(RemoteError, match="version"):
            router.evolve(
                "online_order", order_type_change_v2(1).to_dict(), expect_version=1
            )
        # the broadcast aborted: no shard kept a stage behind
        for client in router.clients.values():
            assert (
                client.call("evolve_abort_type", type_id="online_order")["aborted"] == 0
            )

    def test_canary_verdict_aggregates_across_shards(self, fleet):
        _supervisor, router = fleet
        router.deploy(ORDERS)
        ids = router.start_many("online_order", 30)
        router.evolve(
            "online_order",
            order_type_change_v2(1).to_dict(),
            expect_version=1,
            rollout="canary",
            fraction=1.0,
            min_observations=18,
        )
        router.step_many(ids, steps=1)  # touches feed the observation window
        # no single shard saw 18 attempts (30 cases over 3 shards), but the
        # fleet did: only the router's aggregated watch may decide
        statuses = router.broadcast("rollout_status", type_id="online_order")
        assert all(s["state"] == "observing" for s in statuses.values())
        assert max(s["attempts"] for s in statuses.values()) < 18
        decision = router.canary_watch("online_order", min_observations=18)
        assert decision == "promote"
        statuses = router.broadcast("rollout_status", type_id="online_order")
        assert all(s["state"] in ("migrating", "completed") for s in statuses.values())


class TestRebalancing:
    def test_add_shard_hands_over_a_bounded_fraction(self, fleet, tmp_path):
        supervisor, router = fleet
        router.deploy(ORDERS)
        ids = router.start_many("online_order", 40)
        router.step_many(ids, steps=2)
        fingerprints = {i: router.instance_info(i)["state_fingerprint"] for i in ids}

        supervisor.shard_ids.append("shard-03")
        host, port = supervisor.spawn("shard-03")
        # add_shard syncs the schemas to the joiner, then hands over the
        # remapped cases
        new_client_moves = router.add_shard("shard-03", host, port)

        assert 0 < len(new_client_moves) <= len(ids)  # ~K/N, never everything
        telemetry = router.telemetry()
        assert telemetry["handover"] == 2 * len(new_client_moves)  # out + in
        # every case still executes exactly where the ring now points
        for case_id in ids:
            assert (
                router.instance_info(case_id)["state_fingerprint"]
                == fingerprints[case_id]
            )
        results = router.step_many(ids, steps=1)
        assert all(result["steps"] == 1 for result in results)


class TestFailureModel:
    def test_sigterm_flushes_and_checkpoints(self, tmp_path):
        supervisor = ShardSupervisor(str(tmp_path / "fleet"), shards=2)
        endpoints = supervisor.start_all()
        router = ShardRouter(endpoints)
        router.deploy(ORDERS)
        ids = router.start_many("online_order", 10)
        router.step_many(ids, steps=2)
        router.close()
        supervisor.stop()  # SIGTERM: graceful drain + checkpoint
        for shard_id in supervisor.shard_ids:
            reopened = AdeptSystem.open(supervisor.store_of(shard_id))
            try:
                # a graceful shutdown leaves nothing to replay
                assert reopened.last_recovery.replayed_records == 0
            finally:
                reopened.close(checkpoint=False)

    def test_kill_9_mid_load_loses_and_doubles_nothing(self, fleet):
        supervisor, router = fleet
        router.deploy(ORDERS)
        ids = router.start_many("online_order", 30)
        victim = sorted(router.clients)[1]
        victim_ids = [i for i in ids if router.ring.shard_for(i) == victim]
        survivor_ids = [i for i in ids if router.ring.shard_for(i) != victim]
        assert victim_ids, "the hash spread must give the victim some cases"

        acked = {case_id: 0 for case_id in ids}
        for result in router.step_many(ids, steps=2):
            acked[result["instance_id"]] += result["steps"]

        supervisor.kill(victim)  # SIGKILL: no flush, no checkpoint

        # remaining shards keep serving their partitions
        results = router.step_many(survivor_ids, steps=1)
        assert all(result["steps"] == 1 for result in results)
        for result in results:
            acked[result["instance_id"]] += result["steps"]
        with pytest.raises(ShardUnavailableError):
            router.step_many(victim_ids[:1], steps=1)

        # restart on the same store: AdeptSystem.open replays the WAL
        host, port = supervisor.restart(victim)
        router.reconnect(victim, host, port)
        for case_id in ids:
            info = router.instance_info(case_id)
            completed = len(info["completed"])
            # every acknowledged step survived (journaled before the
            # response), and none was applied twice
            assert completed == acked[case_id], (case_id, completed, acked[case_id])
        # the recovered shard serves writes again
        results = router.step_many(victim_ids, steps=1)
        assert all(result["steps"] == 1 for result in results)

    def test_restarted_shard_rejoins_a_broadcast_fleet(self, fleet):
        supervisor, router = fleet
        router.deploy(ORDERS)
        ids = router.start_many("online_order", 12)
        victim = sorted(router.clients)[0]
        supervisor.kill(victim)
        host, port = supervisor.restart(victim)
        router.reconnect(victim, host, port)
        summary = router.evolve(
            "online_order", order_type_change_v2(1).to_dict(), expect_version=1
        )
        assert summary["total"] == 12
        for case_id in ids:
            assert router.instance_info(case_id)["version"] == 2


class TestSignals:
    def test_sigint_equals_sigterm(self, tmp_path):
        supervisor = ShardSupervisor(str(tmp_path / "fleet"), shards=1)
        endpoints = supervisor.start_all()
        router = ShardRouter(endpoints)
        router.deploy(ORDERS)
        router.start_many("online_order", 3)
        router.close()
        (process,) = supervisor.processes.values()
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=30.0) == 0
        reopened = AdeptSystem.open(supervisor.store_of("shard-00"))
        try:
            assert reopened.last_recovery.replayed_records == 0
            assert len(reopened.store.instance_ids()) + len(
                reopened.live_instance_ids()
            ) >= 3
        finally:
            reopened.close(checkpoint=False)
        supervisor.processes.clear()
