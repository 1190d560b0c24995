"""Tests for AdeptSystem.evolve(): migration policies and parity with the manager."""

import pytest

from repro import AdeptSystem, MigrationError, MigrationManager, ReproError
from repro.core.operations import DeleteActivity
from repro.runtime.states import InstanceStatus, NodeState
from repro.schema import templates
from repro.workloads.order_process import (
    ORDER_EXECUTION_SEQUENCE,
    order_type_change_v2,
    paper_fig3_population,
    paper_fig3_system,
)


class TestCompliantPolicy:
    def test_counts_match_direct_migration_manager_usage(self):
        """The façade's evolve() and hand-wired MigrationManager agree exactly."""
        process_type, engine, instances = paper_fig3_population(instance_count=50, seed=5)
        direct = MigrationManager(engine).migrate_type(
            process_type, order_type_change_v2(), instances
        )

        system, orders, cases = paper_fig3_system(instance_count=50, seed=5)
        facade = orders.evolve(order_type_change_v2(), migrate="compliant")

        assert facade.outcome_counts() == direct.outcome_counts()
        assert facade.migrated_count == direct.migrated_count
        assert sorted(facade.migrated_instances) == sorted(direct.migrated_instances)
        assert sorted(facade.non_compliant_instances) == sorted(
            direct.non_compliant_instances
        )

    def test_evolve_accepts_changeset_and_operation_list(self):
        from repro import ChangeSet

        system = AdeptSystem()
        orders = system.deploy(templates.online_order_process())
        delta = ChangeSet(comment="V2").serial_insert(
            "send_questions", pred="compose_order", succ="pack_goods", role="sales"
        )
        report = orders.evolve(delta)
        assert report.to_version == 2
        assert orders.versions == [1, 2]

        # a plain operation sequence also works (released as V3)
        ops = order_type_change_v2(from_version=2).operations.operations
        ops = [op for op in ops if op.operation_name == "insert_sync_edge"]
        report = orders.evolve(ops)
        assert report.to_version == 3

    def test_new_cases_start_on_latest_version(self):
        system = AdeptSystem()
        orders = system.deploy(templates.online_order_process())
        orders.evolve(order_type_change_v2(), migrate="none")
        case = orders.start()
        assert case.version == 2
        old_case = system.start("online_order", version=1)
        assert old_case.version == 1

    def test_unknown_policy_rejected(self):
        system = AdeptSystem()
        orders = system.deploy(templates.online_order_process())
        with pytest.raises(ValueError):
            orders.evolve(order_type_change_v2(), migrate="yolo")


class TestRollbackPolicy:
    def test_bus_carries_one_event_per_compensated_activity(self):
        """The planner's dry run on a clone publishes nothing: the bus shows
        exactly the compensations the case's history records."""
        from repro.core.migration import MigrationOutcome
        from repro.runtime.history import HistoryEventType

        system = AdeptSystem()
        # compensations are engine events: built only for a subscriber
        engine_events = []
        system.bus.subscribe(engine_events.append, categories=["engine"])
        published = []
        system.bus.subscribe(published.append)
        orders = system.deploy(templates.online_order_process())
        blocked = orders.start(case_id="blocked")
        for activity in ORDER_EXECUTION_SEQUENCE[:5]:  # pack_goods done -> state conflict
            blocked.complete(activity)
        report = orders.evolve(order_type_change_v2(), migrate="rollback")
        assert [r.outcome for r in report.results] == [MigrationOutcome.MIGRATED_WITH_ROLLBACK]
        compensated = [
            entry.activity
            for entry in system.get_instance("blocked").history
            if entry.event is HistoryEventType.ACTIVITY_COMPENSATED
        ]
        assert compensated
        events = [event for event in engine_events if event.name == "activity_compensated"]
        assert [(event.instance_id, event.payload["node"]) for event in events] == [
            ("blocked", activity) for activity in compensated
        ]
        assert {event.category for event in published} == {"engine", "migration", "schema", "system"}
        assert {event.instance_id for event in published} <= {None, "blocked"}

    @staticmethod
    def _past_pack_goods(orders, count):
        cases = [orders.start(case_id=f"blocked{i}") for i in range(count)]
        for case in cases:
            for activity in ORDER_EXECUTION_SEQUENCE[:5]:  # pack_goods done
                case.complete(activity)
        return [case.instance_id for case in cases]

    def test_recovery_replays_the_journaled_policy(self, tmp_path):
        """Acked => journaled => recovered, whatever the reopen is given.

        The compensations are part of the evolution record's policy, so a
        crash and a plain reopen reproduce every compensated case on v2.
        """
        from repro.core.migration import MigrationOutcome

        store = str(tmp_path / "store")
        system = AdeptSystem.open(store, cache_instances=2)
        orders = system.deploy(templates.online_order_process())
        blocked = self._past_pack_goods(orders, 4)
        fresh = orders.start(case_id="fresh").instance_id
        report = orders.evolve(order_type_change_v2(), migrate="rollback")
        assert report.count(MigrationOutcome.MIGRATED_WITH_ROLLBACK) == len(blocked)
        (record,) = [r for r in system.backend.wal_records() if r["kind"] == "evolution"]
        assert record["policy"] == "rollback"
        expected = {
            case: system.get_instance(case).state_fingerprint() for case in blocked + [fresh]
        }
        system.backend.close()  # crash: recovery replays the evolution

        recovered = AdeptSystem.open(store)
        try:
            for case, fingerprint in expected.items():
                assert recovered.get_instance(case).state_fingerprint() == fingerprint, case
                assert recovered.get_instance(case).schema_version == 2, case
        finally:
            recovered.close()

    def test_other_policies_never_compensate(self):
        from repro.core.migration import MigrationOutcome

        system = AdeptSystem()
        orders = system.deploy(templates.online_order_process())
        (blocked,) = self._past_pack_goods(orders, 1)
        before = system.get_instance(blocked).state_fingerprint()
        with pytest.raises(MigrationError):
            orders.evolve(order_type_change_v2(), migrate="strict")
        report = orders.evolve(order_type_change_v2())
        assert report.count(MigrationOutcome.STATE_CONFLICT) == 1
        assert system.get_instance(blocked).state_fingerprint() == before

    def test_touch_adoption_never_compensates(self):
        """A lazy rollout's touch leaves a state-conflicting case as it is."""
        from repro.runtime.history import HistoryEventType

        system = AdeptSystem()
        orders = system.deploy(templates.online_order_process())
        (blocked,) = self._past_pack_goods(orders, 1)
        rollout = orders.evolve(order_type_change_v2(), rollout="lazy")
        system.complete(blocked, ORDER_EXECUTION_SEQUENCE[5])  # the touch
        assert blocked in rollout.conflicted
        instance = system.get_instance(blocked)
        assert instance.schema_version == 1
        assert instance.status is InstanceStatus.COMPLETED
        assert not [
            entry
            for entry in instance.history
            if entry.event is HistoryEventType.ACTIVITY_COMPENSATED
        ]

    @pytest.mark.parametrize("rollout", ["lazy", "canary"])
    def test_progressive_rollouts_refuse_it(self, rollout):
        system = AdeptSystem()
        orders = system.deploy(templates.online_order_process())
        with pytest.raises(ValueError, match="'compliant' migration policy only"):
            orders.evolve(order_type_change_v2(), migrate="rollback", rollout=rollout)
        assert orders.versions == [1]


class TestNonePolicy:
    def test_releases_version_without_migrating(self):
        system = AdeptSystem()
        orders = system.deploy(templates.online_order_process())
        case = orders.start()
        report = orders.evolve(order_type_change_v2(), migrate="none")
        assert orders.versions == [1, 2]
        assert report.total == 0
        assert case.version == 1  # nobody migrated


class TestStrictPolicy:
    def test_strict_succeeds_when_every_instance_is_compliant(self):
        system = AdeptSystem()
        orders = system.deploy(templates.online_order_process())
        early = orders.start(case_id="early")
        early.complete("get_order")
        report = orders.evolve(order_type_change_v2(), migrate="strict")
        assert report.migrated_count == 1
        assert early.version == 2

    def test_strict_is_all_or_nothing(self):
        """One non-compliant instance aborts the run; nothing is modified."""
        system = AdeptSystem()
        orders = system.deploy(templates.online_order_process())
        early = orders.start(case_id="early")
        late = orders.start(case_id="late")
        for activity in ORDER_EXECUTION_SEQUENCE[:5]:  # past pack_goods
            late.complete(activity)

        with pytest.raises(MigrationError) as excinfo:
            orders.evolve(order_type_change_v2(), migrate="strict")
        assert isinstance(excinfo.value, ReproError)
        assert "late" in str(excinfo.value)
        # the dry-run report names the blocker
        assert excinfo.value.report is not None
        assert "late" in excinfo.value.report.non_compliant_instances

        # neither the repository nor any instance changed
        assert orders.versions == [1]
        assert early.version == 1
        assert late.version == 1
        # both instances still run to completion on V1
        assert early.run().ok
        assert late.run().ok

    def test_strict_ignores_finished_instances(self):
        system = AdeptSystem()
        orders = system.deploy(templates.online_order_process())
        done = orders.start(case_id="done")
        done.run()
        live = orders.start(case_id="live")
        report = orders.evolve(order_type_change_v2(), migrate="strict")
        assert report.migrated_count == 1
        assert live.version == 2
        assert done.version == 1  # finished cases stay where they are

    @pytest.mark.parametrize("refused", [False, True])
    def test_dry_run_hydrates_nobody(self, refused):
        """The dry run clones each candidate without hydrating it — a live case
        is copied, a stored one loaded outside the cache — so memory stays
        bounded by ``cache_instances`` + 1 however large the population."""
        system = AdeptSystem(cache_instances=4)
        orders = system.deploy(templates.online_order_process())
        for number in range(40):
            case = orders.start(case_id=f"case{number:02d}")
            done = 5 if refused and number % 10 == 0 else number % 3  # 5: past pack_goods
            for activity in ORDER_EXECUTION_SEQUENCE[:done]:
                case.complete(activity)
        live_before = system.live_instance_ids()
        cache_traffic = []
        system.bus.subscribe(
            lambda event: cache_traffic.append((event.name, event.instance_id))
            if event.name in ("instance_loaded", "instance_evicted")
            else None
        )

        if refused:
            with pytest.raises(MigrationError, match="4 of 40"):
                orders.evolve(order_type_change_v2(), migrate="strict")
            assert orders.versions == [1]
        else:
            report = orders.evolve(order_type_change_v2(), migrate="strict")
            assert report.migrated_count == 40
        assert cache_traffic == []
        assert system.live_instance_ids() == live_before


class TestNoCaseSkipsADelta:
    """A case an earlier change left behind is not moved by a later one.

    ΔT(2→3) describes the way from v2 to v3 only; re-linking a v1 case
    to v3 with it would hand the case Δ(1→2)'s insertion *before* a step
    it has already completed.
    """

    @staticmethod
    def _insert(node_id, pred, succ):
        from repro import ChangeSet

        return ChangeSet().serial_insert(node_id, pred=pred, succ=succ)

    def _open(self, tmp_path, durable):
        if durable:
            return AdeptSystem.open(str(tmp_path / "store"), cache_instances=1)
        return AdeptSystem()

    def _assert_left_on_v1(self, system, instance_id):
        from repro.paper.replay import check_by_replay

        instance = system.get_instance(instance_id)
        assert instance.schema_version == 1
        assert not instance.execution_schema.has_node("review")
        assert not instance.execution_schema.has_node("audit")
        # its history is one the schema it runs on can produce
        own_schema = system.repository.resolve("sequence", 1)
        assert check_by_replay(instance, own_schema).compliant

    @pytest.mark.parametrize("durable", [False, True], ids=["in_memory", "durable"])
    def test_straggler_stays_on_its_version(self, tmp_path, monkeypatch, durable):
        from repro.core.migration import MigrationOutcome
        from repro.core.migration_plan import MigrationPlan

        system = self._open(tmp_path, durable)
        sequence = system.deploy(templates.sequential_process(length=6))
        straggler = sequence.start(case_id="straggler").instance_id
        system.step_many([straggler], steps=3)  # step_3 completed: refuses Δ(1→2)
        fresh = sequence.start(case_id="fresh").instance_id
        first = sequence.evolve(self._insert("review", "step_2", "step_3"))
        assert {r.instance_id: r.outcome for r in first.results} == {
            straggler: MigrationOutcome.STATE_CONFLICT,
            fresh: MigrationOutcome.MIGRATED,
        }
        on_v2 = sequence.start(case_id="on_v2").instance_id

        loaded, fingerprinted = [], []

        def record_hydration(event):
            if event.name == "instance_loaded":
                loaded.append(event.instance_id)

        system.bus.subscribe(record_hydration)
        fingerprint_of_record = MigrationPlan.fingerprint_of_record

        def recording_fingerprint(plan, record, **kwargs):
            fingerprinted.append(record["instance_id"])
            return fingerprint_of_record(plan, record, **kwargs)

        monkeypatch.setattr(MigrationPlan, "fingerprint_of_record", recording_fingerprint)
        second = sequence.evolve(self._insert("audit", "step_5", "step_6"))

        # the candidate set does not shrink; the straggler is refused by version
        outcomes = {r.instance_id: r for r in second.results}
        assert second.total == 3
        assert outcomes[fresh].outcome is MigrationOutcome.MIGRATED
        assert outcomes[on_v2].outcome is MigrationOutcome.MIGRATED
        assert outcomes[straggler].outcome is MigrationOutcome.STATE_CONFLICT
        (conflict,) = outcomes[straggler].conflicts
        assert "version 1" in str(conflict) and "version 2" in str(conflict)
        if durable:  # store-resident: decided from the record's schema_version alone
            assert straggler not in loaded and straggler not in fingerprinted
        self._assert_left_on_v1(system, straggler)
        assert system.get_instance(on_v2).schema_version == 3
        assert system.get_instance(fresh).execution_schema.has_node("audit")
        expected = system.get_instance(straggler).state_fingerprint()
        if durable:
            system.backend.close()  # crash: recovery replays both evolutions
            system = AdeptSystem.open(str(tmp_path / "store"), cache_instances=1)
            self._assert_left_on_v1(system, straggler)
            assert system.get_instance(straggler).state_fingerprint() == expected
            assert system.get_instance(on_v2).schema_version == 3
        assert system.run(straggler).ok  # and it still finishes on v1
        system.close()

    @pytest.mark.parametrize("policy", ["compliant", "rollback"], ids=["plain", "rollback_policy"])
    @pytest.mark.parametrize("durable", [False, True], ids=["in_memory", "durable"])
    def test_cases_passed_over_by_migrate_none_stay_too(self, tmp_path, durable, policy):
        from repro.core.migration import MigrationOutcome

        system = self._open(tmp_path, durable)
        sequence = system.deploy(templates.sequential_process(length=6))
        passed_over = sequence.start(case_id="passed_over").instance_id
        system.step_many([passed_over], steps=3)
        sequence.evolve(self._insert("review", "step_2", "step_3"), migrate="none")
        on_v2 = sequence.start(case_id="on_v2").instance_id
        before = system.get_instance(passed_over).state_fingerprint()

        report = sequence.evolve(self._insert("audit", "step_5", "step_6"), migrate=policy)
        outcomes = {r.instance_id: r.outcome for r in report.results}
        assert outcomes == {
            passed_over: MigrationOutcome.STATE_CONFLICT,
            on_v2: MigrationOutcome.MIGRATED,
        }
        # refused before the rollback policy: nothing was compensated
        assert system.get_instance(passed_over).state_fingerprint() == before
        self._assert_left_on_v1(system, passed_over)
        assert system.get_instance(on_v2).schema_version == 3
        system.close()


class TestMigrationThatFinishesACase:
    """A change that removes a case's last pending activity finishes the case.

    ``sequence`` v1 is step_1 → step_2 → step_3; a case with step_3
    activated meets ``DeleteActivity("step_3")``: its adapted marking
    completes the end node, so the case is COMPLETED — whichever path
    installs the marking — keeps no work item and steps nowhere.
    """

    DELETE_LAST = staticmethod(lambda: [DeleteActivity(activity_id="step_3")])

    @staticmethod
    def _system(tmp_path=None, **kwargs):
        if tmp_path is not None:
            system = AdeptSystem.open(str(tmp_path / "store"), **kwargs)
        else:
            system = AdeptSystem(**kwargs)
        return system, system.deploy(templates.sequential_process(length=3))

    @staticmethod
    def _at_step_3(system, sequence, case_id, bias=False):
        case = sequence.start(case_id=case_id).instance_id
        if bias:
            system.change(case).serial_insert("extra", pred="step_1", succ="step_2").apply()
        system.run(case, max_steps=3 if bias else 2)
        assert system.activated(case) == ["step_3"]
        return case

    @staticmethod
    def _assert_finished(system, case_id):
        instance = system.get_instance(case_id)
        assert instance.status is InstanceStatus.COMPLETED
        assert instance.node_state("end") is NodeState.COMPLETED
        assert system.worklists.items_for_instance(case_id) == []
        assert system.step_many([case_id], steps=5)[0].steps == 0

    def test_live_case(self):
        system, sequence = self._system()
        case = self._at_step_3(system, sequence, "live")
        assert len(system.worklists.items_for_instance(case)) == 1
        report = sequence.evolve(self.DELETE_LAST())
        assert report.migrated_instances == [case]
        self._assert_finished(system, case)

    def test_stored_member_of_a_known_class(self):
        system, sequence = self._system(cache_instances=1)
        first = self._at_step_3(system, sequence, "a-first")
        stored = self._at_step_3(system, sequence, "b-stored")
        system.get_instance(first)  # "b-stored" is evicted: rewritten from its record
        assert stored not in system.live_instance_ids()
        sequence.evolve(self.DELETE_LAST())
        assert system.store.record(stored)["status"] == "completed"
        for case in (first, stored):
            self._assert_finished(system, case)

    def test_biased_case(self):
        system, sequence = self._system()
        case = self._at_step_3(system, sequence, "biased", bias=True)
        report = sequence.evolve(self.DELETE_LAST())
        assert [r.outcome.value for r in report.results] == ["migrated_with_bias"]
        self._assert_finished(system, case)

    @pytest.mark.parametrize("representative", ["live", "evicted"])
    def test_stored_member_of_a_biased_class(self, representative):
        system, sequence = self._system(cache_instances=1)
        members = [self._at_step_3(system, sequence, f"m{i}", bias=True) for i in (0, 2)]
        if representative == "evicted":
            # hydrated between the two members, it evicts the representative m0
            self._at_step_3(system, sequence, "m1")
        system.get_instance(sequence.start(case_id="z-other").instance_id)
        assert not set(members) & set(system.live_instance_ids())
        sequence.evolve(self.DELETE_LAST())
        # the member's record is the representative's, less the write-back's hint
        shared = system.store.encode_record(system.get_instance("m0"))
        member = system.store.record("m2")
        assert "fix" not in member["marking"]
        for key in ("marking", "status", "biased", "bias", "representation"):
            assert member[key] == shared[key], key
        for case in members:
            assert system.store.record(case)["status"] == "completed"
            self._assert_finished(system, case)

    def test_rollback_migration(self):
        system, sequence = self._system()
        case = self._at_step_3(system, sequence, "compensated")
        # step_2 completed: deleting it needs its compensation first
        report = sequence.evolve(
            [DeleteActivity(activity_id="step_2"), DeleteActivity(activity_id="step_3")],
            migrate="rollback",
        )
        assert [r.outcome.value for r in report.results] == ["migrated_with_rollback"]
        self._assert_finished(system, case)

    def test_lazy_rollout_sweep(self):
        system, sequence = self._system(cache_instances=1)
        cases = [self._at_step_3(system, sequence, f"lazy{i}") for i in range(3)]
        sequence.evolve(self.DELETE_LAST(), rollout="lazy")
        while system.rollout_of("sequence") is not None:
            assert system.sweep_rollout("sequence")
        assert system.rollout_status("sequence")["adopted"] == 3
        for case in cases:
            self._assert_finished(system, case)

    def test_reopen_replays_the_finish(self, tmp_path):
        system, sequence = self._system(tmp_path, cache_instances=1)
        cases = [self._at_step_3(system, sequence, f"durable{i}") for i in range(2)]
        sequence.evolve(self.DELETE_LAST())
        expected = {case: system.get_instance(case).state_fingerprint() for case in cases}
        system.backend.close()  # crash: recovery replays the evolution
        system = AdeptSystem.open(str(tmp_path / "store"), cache_instances=1)
        for case in cases:
            self._assert_finished(system, case)
            assert system.get_instance(case).state_fingerprint() == expected[case]
        system.close()
