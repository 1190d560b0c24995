"""The shard server, driven in-thread through a real socket.

These tests exercise the full request path (framing, dispatch, error
marshalling, telemetry) without subprocess overhead; the multi-process
behaviour (signals, kill -9 recovery, routing) lives in
``test_router_multiprocess.py`` under the ``shards`` marker.
"""

import logging
import os
import socket
import stat
import struct
from contextlib import closing

import pytest

from repro import AdeptSystem
from repro.schema.templates import online_order_process, sequential_process
from repro.service import (
    RemoteError,
    ServiceError,
    ShardClient,
    ShardRouter,
    ShardServer,
)
from repro.service.shard_server import resolve_worker
from repro.system.persistence import shard_store_path
from repro.workloads.order_process import ORDER_EXECUTION_SEQUENCE, order_type_change_v2
from tests.service.journal import journal_summary


@pytest.fixture()
def shard(tmp_path):
    server = ShardServer("s0", store=str(tmp_path / "s0"))
    host, port = server.start_in_thread()
    client = ShardClient("s0", host, port)
    try:
        yield server, client
    finally:
        client.close()
        server.stop()


def _deploy_orders(client):
    return client.call("deploy", schema=online_order_process().to_dict())


class TestLifecycle:
    def test_ping_and_status(self, shard):
        server, client = shard
        assert client.call("ping")["shard_id"] == "s0"
        status = client.call("status")
        assert status["shard_id"] == "s0"
        assert status["live_instances"] == 0

    def test_endpoint_file_published(self, shard, tmp_path):
        import json

        payload = json.loads((tmp_path / "s0" / "endpoint.json").read_text())
        server, _client = shard
        assert (payload["host"], payload["port"]) == server.endpoint

    def test_endpoint_file_is_fsynced_before_and_after_its_rename(self, tmp_path, monkeypatch):
        """The file reaches the disk, then the directory entry naming it."""
        fsync, synced = os.fsync, []

        def recorded_fsync(descriptor):
            status = os.fstat(descriptor)
            synced.append((stat.S_ISDIR(status.st_mode), status.st_ino))
            fsync(descriptor)

        monkeypatch.setattr(os, "fsync", recorded_fsync)
        server = ShardServer("s2", store=str(tmp_path / "s2"))
        server.start_in_thread()
        try:
            endpoint = tmp_path / "s2" / "endpoint.json"
            assert synced == [
                (False, endpoint.stat().st_ino),
                (True, (tmp_path / "s2").stat().st_ino),
            ]
            assert not (tmp_path / "s2" / "endpoint.json.tmp").exists()
        finally:
            server.stop(checkpoint=False)

    def test_unknown_op_is_a_remote_error(self, shard):
        _server, client = shard
        with pytest.raises(RemoteError, match="unknown op"):
            client.call("frobnicate")

    def test_remote_exceptions_carry_their_type(self, shard):
        _server, client = shard
        _deploy_orders(client)
        with pytest.raises(RemoteError) as excinfo:
            client.call("instance_info", instance_id="missing-1")
        assert excinfo.value.shard_id == "s0"
        assert "missing-1" in str(excinfo.value)

    def test_stop_is_idempotent(self, tmp_path):
        server = ShardServer("s1", store=str(tmp_path / "s1"))
        server.start_in_thread()
        server.stop()
        server.stop()  # second stop must be a no-op, like AdeptSystem.close


class TestFieldBinding:
    """An op is its ``_op_`` method; the method's parameters are its fields."""

    def test_an_undeclared_field_is_refused_by_name_before_anything_runs(self, shard):
        _server, client = shard
        _deploy_orders(client)
        client.call("start", type_id="online_order", case_id="ord-1")
        with pytest.raises(RemoteError, match="'max_step'") as excinfo:
            client.call("run", instance_id="ord-1", max_step=1)
        assert excinfo.value.remote_type == "TypeError"
        assert client.call("instance_info", instance_id="ord-1")["completed"] == []

    def test_a_missing_field_is_refused_by_name(self, shard):
        _server, client = shard
        with pytest.raises(RemoteError, match="'instance_id'"):
            client.call("run")

    def test_an_op_that_is_not_a_name_is_refused(self, shard):
        _server, client = shard
        with pytest.raises(RemoteError, match="must be an object with an 'op'"):
            client.call(["run"])
        assert client.call("ping")["shard_id"] == "s0"

    @pytest.mark.parametrize("name", ["_dispatch", "__init__", "stop", "_op_ping"])
    def test_a_method_that_is_not_an_op_is_unknown(self, shard, name):
        _server, client = shard
        with pytest.raises(RemoteError, match="unknown op"):
            client.call(name)


class TestCaseOps:
    def test_start_step_and_info(self, shard):
        _server, client = shard
        _deploy_orders(client)
        case = client.call("start", type_id="online_order", case_id="ord-1")
        assert case["instance_id"] == "ord-1"
        results = client.call("step_many", instance_ids=["ord-1"], steps=2)
        assert results[0]["steps"] == 2
        info = client.call("instance_info", instance_id="ord-1")
        assert info["version"] == 1
        assert info["completed"][:2] == list(ORDER_EXECUTION_SEQUENCE[:2])
        assert info["state_fingerprint"]

    def test_step_many_preserves_input_order(self, shard):
        _server, client = shard
        _deploy_orders(client)
        ids = [f"ord-{index}" for index in range(10)]
        for case_id in ids:
            client.call("start", type_id="online_order", case_id=case_id)
        results = client.call("step_many", instance_ids=list(reversed(ids)), steps=1)
        assert [result["instance_id"] for result in results] == list(reversed(ids))

    def test_worklist_claim_complete(self, shard):
        _server, client = shard
        _deploy_orders(client)
        client.call("start", type_id="online_order", case_id="ord-1")
        items = client.call("worklist", user="clerk")
        assert items, "a started case offers its first activity"
        claimed = client.call("claim", item_id=items[0]["item_id"], user="clerk")
        assert claimed["state"] == "claimed"
        done = client.call("complete_item", item_id=items[0]["item_id"])
        assert done["state"] == "completed"

    def test_claim_is_a_single_shard_cas(self, shard):
        _server, client = shard
        _deploy_orders(client)
        client.call("start", type_id="online_order", case_id="ord-1")
        item = client.call("worklist", user="clerk")[0]
        client.call("claim", item_id=item["item_id"], user="clerk")
        with pytest.raises(RemoteError):
            client.call("claim", item_id=item["item_id"], user="rival")

    def test_export_import_handover(self, shard, tmp_path):
        server_a, client_a = shard
        _deploy_orders(client_a)
        client_a.call("start", type_id="online_order", case_id="ord-1")
        client_a.call("step_many", instance_ids=["ord-1"], steps=2)
        fingerprint = client_a.call("instance_info", instance_id="ord-1")[
            "state_fingerprint"
        ]

        server_b = ShardServer("s1", store=str(tmp_path / "s1"))
        host, port = server_b.start_in_thread()
        client_b = ShardClient("s1", host, port)
        try:
            _deploy_orders(client_b)
            exported = client_a.call("export_case", instance_id="ord-1")
            # an unbiased case travels in the positional form: both shards
            # hold the schema version, the record names only its layout
            assert set(exported["record"]["marking"]) == {"layout", "nodes", "edges"}
            assert "rows" in exported["record"]["history"]
            client_b.call("import_case", record=exported["record"])
            # the case left shard A entirely and kept its exact state on B
            with pytest.raises(RemoteError):
                client_a.call("instance_info", instance_id="ord-1")
            info = client_b.call("instance_info", instance_id="ord-1")
            assert info["state_fingerprint"] == fingerprint
            assert client_a.call("telemetry")["handover"] == 1
            assert client_b.call("telemetry")["handover"] == 1
            done = client_b.call("step_many", instance_ids=["ord-1"], steps=10)
            assert done[0]["status"] == "completed"
        finally:
            client_b.close()
            server_b.stop()


    def test_import_over_an_evicted_case_is_refused(self, shard, tmp_path):
        """``import_case`` refuses an id the shard holds only in its store."""
        _server_a, client_a = shard
        _deploy_orders(client_a)
        client_a.call("start", type_id="online_order", case_id="ord-1")
        client_a.call("step_many", instance_ids=["ord-1"], steps=2)

        server_b = ShardServer("s1", store=str(tmp_path / "s1"), cache_instances=2)
        host, port = server_b.start_in_thread()
        client_b = ShardClient("s1", host, port)
        try:
            _deploy_orders(client_b)
            client_b.call("start", type_id="online_order", case_id="ord-1")
            resident = client_b.call("instance_info", instance_id="ord-1")
            for case_id in ("ord-2", "ord-3", "ord-4"):
                client_b.call("start", type_id="online_order", case_id=case_id)
            assert "ord-1" not in server_b.system.live_instance_ids()
            exported = client_a.call("export_case", instance_id="ord-1")
            with pytest.raises(RemoteError) as excinfo:
                client_b.call("import_case", record=exported["record"])
            assert excinfo.value.remote_type == "InstanceIdInUseError"
            assert client_b.call("instance_info", instance_id="ord-1") == resident
            assert client_b.call("telemetry")["handover"] == 0
        finally:
            client_b.close()
            server_b.stop()


class TestUnroutedOps:
    """The ops no router method sends, each once over the socket."""

    def test_activated(self, shard):
        _server, client = shard
        _deploy_orders(client)
        client.call("start", type_id="online_order", case_id="ord-1")
        assert client.call("activated", instance_id="ord-1") == [ORDER_EXECUTION_SEQUENCE[0]]

    def test_start_activity(self, shard):
        _server, client = shard
        _deploy_orders(client)
        client.call("start", type_id="online_order", case_id="ord-1")
        first = ORDER_EXECUTION_SEQUENCE[0]
        started = client.call(
            "start_activity", instance_id="ord-1", activity_id=first, user="clerk"
        )
        assert started == {
            "ok": True,
            "instance_id": "ord-1",
            "activity_id": first,
            "status": "running",
            "activated": [],
        }

    def test_abort(self, shard):
        _server, client = shard
        _deploy_orders(client)
        client.call("start", type_id="online_order", case_id="ord-1")
        assert client.call("abort", instance_id="ord-1") == {}
        assert client.call("instance_info", instance_id="ord-1")["status"] == "aborted"

    def test_serve(self, shard):
        _server, client = shard
        assert client.call("serve", workers=2) == {"workers": 2}
        assert client.call("status")["workers"] == 2
        client.call("drain", timeout=30)

    def test_drain(self, shard):
        _server, client = shard
        _deploy_orders(client)
        client.call("serve", workers=2)
        for index in range(3):
            client.call("start", type_id="online_order", case_id=f"ord-{index}")
        stats = client.call("drain", timeout=30)
        assert stats["workers"] == 2
        assert stats["items_completed"] == 3 * len(ORDER_EXECUTION_SEQUENCE)
        assert client.call("status")["workers"] == 0
        assert client.call("instance_info", instance_id="ord-2")["status"] == "completed"

    def test_shutdown(self, shard):
        server, client = shard
        assert client.call("shutdown") == {"stopping": True}
        assert server.wait(5) is True


class TestRouterOverOneShard:
    def test_a_restarted_router_starts_cases_under_fresh_ids(self, shard):
        """A router's id counter starts over; the durable shard keeps its cases."""
        server, client = shard
        _deploy_orders(client)
        endpoints = {"s0": server.endpoint}
        with closing(ShardRouter(endpoints)) as first:
            taken = first.start_many("online_order", 4)
        with closing(ShardRouter(endpoints)) as second:
            fresh_many = second.start_many("online_order", 2)
        with closing(ShardRouter(endpoints)) as third:
            fresh_one = third.start("online_order")
            with pytest.raises(RemoteError) as excinfo:
                third.start("online_order", case_id=taken[0])
        assert excinfo.value.remote_type == "InstanceIdInUseError"
        started = taken + fresh_many + [fresh_one]
        assert len(set(started)) == 7
        assert sorted(client.call("case_ids")) == sorted(started)

    def test_a_refused_activation_leaves_no_stage(self, shard):
        """An undeclared option refuses the activation; the router drops the stage."""
        server, client = shard
        _deploy_orders(client)
        client.call("start", type_id="online_order", case_id="ord-1")
        change = order_type_change_v2(1).to_dict()
        with closing(ShardRouter({"s0": server.endpoint})) as router:
            with pytest.raises(RemoteError, match="'fractoin'"):
                router.evolve("online_order", change, expect_version=1, fractoin=1.0)
            assert client.call("evolve_abort_type", type_id="online_order")["aborted"] == 0
            assert client.call("instance_info", instance_id="ord-1")["version"] == 1
            assert router.evolve("online_order", change, expect_version=1)["migrated"] == 1


class TestTwoPhaseEvolve:
    def test_publish_activate_eager(self, shard):
        _server, client = shard
        _deploy_orders(client)
        for index in range(4):
            client.call("start", type_id="online_order", case_id=f"ord-{index}")
        staged = client.call(
            "evolve_publish",
            type_id="online_order",
            change=order_type_change_v2(1).to_dict(),
            expect_version=1,
        )
        assert staged["from_version"] == 1 and staged["to_version"] == 2
        outcome = client.call("evolve_activate", token=staged["token"], rollout="eager")
        assert outcome["migrated"] == 4
        info = client.call("instance_info", instance_id="ord-0")
        assert info["version"] == 2

    def test_publish_refuses_version_skew(self, shard):
        _server, client = shard
        _deploy_orders(client)
        with pytest.raises(RemoteError, match="version"):
            client.call(
                "evolve_publish",
                type_id="online_order",
                change=order_type_change_v2(1).to_dict(),
                expect_version=7,
            )

    def test_abort_discards_the_stage(self, shard):
        _server, client = shard
        _deploy_orders(client)
        staged = client.call(
            "evolve_publish",
            type_id="online_order",
            change=order_type_change_v2(1).to_dict(),
            expect_version=1,
        )
        assert client.call("evolve_abort", token=staged["token"])["aborted"]
        with pytest.raises(RemoteError, match="no staged evolution"):
            client.call("evolve_activate", token=staged["token"], rollout="eager")

    def test_abort_by_type_without_token(self, shard):
        _server, client = shard
        _deploy_orders(client)
        client.call(
            "evolve_publish",
            type_id="online_order",
            change=order_type_change_v2(1).to_dict(),
            expect_version=1,
        )
        assert client.call("evolve_abort_type", type_id="online_order")["aborted"] == 1

    def test_canary_activation_never_self_decides(self, shard):
        _server, client = shard
        _deploy_orders(client)
        for index in range(30):
            client.call("start", type_id="online_order", case_id=f"ord-{index:03d}")
        staged = client.call(
            "evolve_publish",
            type_id="online_order",
            change=order_type_change_v2(1).to_dict(),
            expect_version=1,
        )
        client.call(
            "evolve_activate",
            token=staged["token"],
            rollout="canary",
            fraction=1.0,
            min_observations=5,
        )
        # touch far more cases than min_observations: a self-deciding
        # canary would have promoted; an external one stays observing
        client.call(
            "step_many",
            instance_ids=[f"ord-{index:03d}" for index in range(30)],
            steps=1,
        )
        status = client.call("rollout_status", type_id="online_order")
        assert status["state"] == "observing"
        assert status["attempts"] >= 5
        client.call("rollout_decide", type_id="online_order", decision="promote")
        status = client.call("rollout_status", type_id="online_order")
        assert status["state"] in ("migrating", "completed")


class TestJournalStatus:
    """``status`` reports the WAL's records and flushes, apart from telemetry."""

    def test_step_many_over_k_cases_adds_k_records_and_one_flush(self, shard):
        _server, client = shard
        _deploy_orders(client)
        ids = [f"ord-{index}" for index in range(5)]
        for case_id in ids:
            client.call("start", type_id="online_order", case_id=case_id)
        before = client.call("status")["journal"]

        results = client.call("step_many", instance_ids=ids, steps=1)

        assert [result["steps"] for result in results] == [1] * len(ids)
        status = client.call("status")
        assert status["journal"] == {
            "records": before["records"] + len(ids),
            "flushes": before["flushes"] + 1,
        }
        assert "journal" not in status["telemetry"]

    def test_an_in_memory_shard_has_no_journal(self):
        server = ShardServer("m0")
        host, port = server.start_in_thread()
        client = ShardClient("m0", host, port)
        try:
            assert client.call("status")["journal"] is None
        finally:
            client.close()
            server.stop()

    def test_shard_status_prints_each_shards_records_and_flushes(self, shard, tmp_path, capsys):
        from repro.cli import main

        _server, client = shard
        _deploy_orders(client)
        client.call("start", type_id="online_order", case_id="ord-1")
        journal = client.call("status")["journal"]

        assert main(["shard-status", "--store", str(tmp_path)]) == 0

        line = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("s0:"))
        assert line.endswith(f"journal={journal['records']} records/{journal['flushes']} flushes")


class TestDurability:
    def test_wal_summary_counts(self, shard):
        server, client = shard
        _deploy_orders(client)
        client.call("start", type_id="online_order", case_id="ord-1")
        client.call("step_many", instance_ids=["ord-1"], steps=3)
        summary = journal_summary(server.store_path)
        assert summary["counts"]["instance_started"] == 1
        assert summary["steps_by_instance"]["ord-1"] == 3

    def test_checkpoint_truncates_wal(self, shard):
        server, client = shard
        _deploy_orders(client)
        client.call("start", type_id="online_order", case_id="ord-1")
        client.call("checkpoint")
        assert journal_summary(server.store_path)["counts"] == {}

    def test_graceful_stop_then_reopen_without_replay(self, tmp_path):
        store = str(tmp_path / "shard")
        server = ShardServer("s0", store=store)
        host, port = server.start_in_thread()
        client = ShardClient("s0", host, port)
        _deploy_orders(client)
        client.call("start", type_id="online_order", case_id="ord-1")
        client.call("step_many", instance_ids=["ord-1"], steps=2)
        client.close()
        server.stop()  # graceful: flush + checkpoint
        reopened = AdeptSystem.open(store)
        try:
            assert reopened.last_recovery.replayed_records == 0
            assert reopened.last_recovery.snapshot_loaded
            instance = reopened.get_instance("ord-1")
            assert list(instance.completed_activities()[:2]) == list(
                ORDER_EXECUTION_SEQUENCE[:2]
            )
        finally:
            reopened.close(checkpoint=False)


class TestSatellites:
    def test_adept_system_close_is_idempotent(self, tmp_path):
        system = AdeptSystem.open(str(tmp_path / "store"))
        system.deploy(sequential_process())
        system.close()
        wal = tmp_path / "store" / "wal.jsonl"
        stamp = wal.stat().st_mtime_ns if wal.exists() else None
        system.close()  # second close: no new checkpoint, no reopened WAL
        assert (wal.stat().st_mtime_ns if wal.exists() else None) == stamp

    def test_close_after_new_mutation_closes_again(self, tmp_path):
        system = AdeptSystem.open(str(tmp_path / "store"))
        system.deploy(sequential_process())
        system.close()
        system.start("sequence", case_id="seq-1")  # reopens the WAL
        system.close()
        reopened = AdeptSystem.open(str(tmp_path / "store"))
        try:
            assert reopened.get_instance("seq-1").instance_id == "seq-1"
        finally:
            reopened.close(checkpoint=False)

    def test_close_after_a_step_closes_again(self, tmp_path):
        system = AdeptSystem.open(str(tmp_path / "store"))
        system.deploy(sequential_process())
        system.start("sequence", case_id="seq-1")
        system.close()
        system.step_many(["seq-1"], steps=1)  # reopens the WAL
        system.close()  # checkpoints the step and releases the handle
        reopened = AdeptSystem.open(str(tmp_path / "store"))
        try:
            assert reopened.last_recovery.replayed_records == 0
            assert reopened.get_instance("seq-1").completed_activities() == ["step_1"]
        finally:
            reopened.close(checkpoint=False)

    def test_shard_store_path_layout(self):
        assert shard_store_path("/data/fleet", "shard-03") == "/data/fleet/shard-03"

    def test_shard_store_path_rejects_traversal(self):
        from repro.errors import ReproError

        for bad in ("", "..", "a/b"):
            with pytest.raises(ReproError):
                shard_store_path("/data", bad)

    def test_resolve_worker_specs(self):
        assert resolve_worker("") is None
        worker = resolve_worker("simulated_latency:0.001")
        assert callable(worker)
        with pytest.raises(ServiceError):
            resolve_worker("quantum:1")


class TestRefusalLogging:
    """One WARNING per refused request or dropped frame; none on success."""

    LOGGER = "repro.service.shard_server"

    def test_each_refused_request_is_one_warning(self, shard, caplog):
        _server, client = shard
        _deploy_orders(client)
        caplog.set_level(logging.DEBUG, logger=self.LOGGER)
        with pytest.raises(RemoteError):
            client.call("frobnicate")
        with pytest.raises(RemoteError):
            client.call("instance_info", instance_id="missing-" + "x" * 500)
        warnings = [r for r in caplog.records if r.name == self.LOGGER]
        assert [r.levelno for r in warnings] == [logging.WARNING] * 2
        unknown, missing = (r.getMessage() for r in warnings)
        assert unknown.startswith("shard s0 refused 'frobnicate': ServiceError: unknown op")
        assert missing.startswith("shard s0 refused 'instance_info': ")
        assert "missing-x" in missing and len(missing) < 300

    def test_the_success_path_logs_nothing(self, shard, caplog):
        _server, client = shard
        caplog.set_level(logging.DEBUG, logger=self.LOGGER)
        _deploy_orders(client)
        case_id = client.call("start", type_id="online_order")["instance_id"]
        client.call("step_many", instance_ids=[case_id], steps=2)
        client.call("instance_info", instance_id=case_id)
        assert [r for r in caplog.records if r.name == self.LOGGER] == []

    def test_a_malformed_frame_is_one_warning(self, shard, caplog):
        server, _client = shard
        caplog.set_level(logging.DEBUG, logger=self.LOGGER)
        body = b"{not json"
        with socket.create_connection(server.endpoint) as raw:
            raw.sendall(struct.pack(">Q", len(body)) + body)
            assert raw.recv(1) == b""  # the server dropped the connection
        (warning,) = [r for r in caplog.records if r.name == self.LOGGER]
        assert warning.levelno == logging.WARNING
        assert warning.getMessage().startswith("shard s0 dropped a connection")
        assert "undecodable frame" in warning.getMessage()
