"""Progressive (zero-downtime) rollouts: lazy on-touch migration + canary.

Covers the rollout state machine end to end through the façade: lazy
adoption on touch, background sweeping, canary observation with
auto-promotion and auto-rollback (both the "revert" and the "pin"
policy), interaction with new case starts, durability across restarts,
and parity of the lazily migrated end state with an eager evolution.
"""

import pytest

from repro import AdeptSystem, MigrationError, Rollout, RolloutSweeper
from repro.schema import templates
from repro.storage.serialization import instance_to_dict
from repro.system.rollout import (
    POLICY_PIN,
    ROLLOUT_CANARY,
    ROLLOUT_LAZY,
    STATE_COMPLETED,
    STATE_MIGRATING,
    STATE_OBSERVING,
    STATE_ROLLED_BACK,
    cohort_bucket,
)
from repro.workloads.order_process import order_type_change_v2


def _order_system(fresh=0, advanced=0, steps=3, **system_kwargs):
    """An online-order population: ``fresh`` compliant cases plus
    ``advanced`` cases stepped past the V2 insertion point (conflicting)."""
    system = AdeptSystem(**system_kwargs)
    orders = system.deploy(templates.online_order_process())
    fresh_cases = [orders.start() for _ in range(fresh)]
    advanced_cases = [orders.start() for _ in range(advanced)]
    for case in advanced_cases:
        system.step_many([case.instance_id], steps=steps)
    return system, orders, fresh_cases, advanced_cases


def _touch_all(system, cases, steps=1):
    for case in cases:
        system.step_many([case.instance_id], steps=steps)
        if system.rollout_of(case.raw.process_type) is None:
            return


class TestLazyRollout:
    def test_returns_live_rollout_not_report(self):
        system, orders, cases, _ = _order_system(fresh=5)
        rollout = orders.evolve(order_type_change_v2(), rollout="lazy")
        assert isinstance(rollout, Rollout)
        assert rollout.mode == ROLLOUT_LAZY
        assert rollout.state == STATE_MIGRATING
        assert system.rollout_of("online_order") is rollout
        assert orders.rollout() is rollout

    def test_cases_adopt_on_touch(self):
        system, orders, cases, _ = _order_system(fresh=10)
        rollout = orders.evolve(order_type_change_v2(), rollout="lazy")
        # untouched cases stay on V1
        assert all(
            system.get_instance(c.instance_id).schema_version == 1 for c in cases
        )
        system.step_many([cases[0].instance_id], steps=1)
        assert system.get_instance(cases[0].instance_id).schema_version == 2
        assert cases[0].instance_id in rollout.adopted
        assert rollout.touches >= 1

    def test_claim_through_worklist_adopts(self):
        system, orders, cases, _ = _order_system(fresh=3)
        orders.evolve(order_type_change_v2(), rollout="lazy")
        items = system.worklist("sales")
        assert items, "the order process offers sales work"
        item = system.claim(items[0].item_id, "sales")
        adopted = system.get_instance(item.instance_id)
        assert adopted.schema_version == 2

    def test_conflicting_cases_stay_on_old_version(self):
        system, orders, _, advanced = _order_system(advanced=5)
        rollout = orders.evolve(order_type_change_v2(), rollout="lazy")
        _touch_all(system, advanced)
        assert len(rollout.conflicted) == 5
        assert all(
            system.get_instance(c.instance_id).schema_version == 1 for c in advanced
        )
        # conflicted cases are never re-attempted on later touches
        _touch_all(system, advanced)
        assert rollout.touches == 5

    def test_sweep_drains_residue_and_completes(self):
        system, orders, cases, advanced = _order_system(fresh=12, advanced=4)
        rollout = orders.evolve(order_type_change_v2(), rollout="lazy")
        _touch_all(system, cases[:3])
        total = 0
        while system.rollout_of("online_order") is not None:
            swept = system.sweep_rollout("online_order", max_cases=5)
            total += swept
            if swept == 0:
                break
        assert rollout.state == STATE_COMPLETED
        assert rollout.swept == total
        assert len(rollout.adopted) == 12
        assert len(rollout.conflicted) == 4
        assert system.rollout_of("online_order") is None
        assert system.rollout_status("online_order")["state"] == "completed"

    def test_sweeper_thread_drains_rollout(self):
        system, orders, cases, _ = _order_system(fresh=20)
        orders.evolve(order_type_change_v2(), rollout="lazy")
        sweeper = RolloutSweeper(system, "online_order", batch=8, interval=0.001)
        with sweeper:
            deadline = 200
            while system.rollout_of("online_order") is not None and deadline:
                deadline -= 1
                import time

                time.sleep(0.005)
        assert system.rollout_of("online_order") is None
        assert sweeper.swept == 20

    def test_lazy_end_state_matches_eager_evolution(self):
        """The tentpole parity claim, on a fixed mixed population."""
        digests = []
        for mode in ("eager", "lazy"):
            system, orders, cases, advanced = _order_system(fresh=8, advanced=6)
            everyone = cases + advanced
            if mode == "eager":
                orders.evolve(order_type_change_v2(), migrate="compliant")
            else:
                orders.evolve(order_type_change_v2(), rollout="lazy")
                while system.rollout_of("online_order") is not None:
                    if system.sweep_rollout("online_order", max_cases=64) == 0:
                        break
            digests.append(
                [instance_to_dict(system.get_instance(c.instance_id)) for c in everyone]
            )
        assert digests[0] == digests[1]

    def test_new_cases_start_on_new_version_during_lazy(self):
        system, orders, _, _ = _order_system(fresh=2)
        orders.evolve(order_type_change_v2(), rollout="lazy")
        assert orders.start().version == 2


class TestCanaryRollout:
    def test_observing_respects_cohort_fraction(self):
        system, orders, cases, _ = _order_system(fresh=40)
        rollout = orders.evolve(
            order_type_change_v2(),
            rollout="canary",
            fraction=0.5,
            min_observations=10_000,  # never decide during this test
        )
        assert rollout.state == STATE_OBSERVING
        _touch_all(system, cases)
        in_cohort = [
            c for c in cases if cohort_bucket(c.instance_id) < 5000
        ]
        assert {c.instance_id for c in cases if c.version == 2} == {
            c.instance_id for c in in_cohort
        }
        assert rollout.attempts == len(in_cohort)

    def test_new_cases_start_on_stable_version_while_observing(self):
        system, orders, _, _ = _order_system(fresh=2)
        orders.evolve(
            order_type_change_v2(),
            rollout="canary",
            min_observations=10_000,
        )
        assert orders.start().version == 1
        assert system.start("online_order", version=2).version == 2  # explicit pin

    def test_auto_promotes_on_healthy_cohort(self):
        system, orders, cases, _ = _order_system(fresh=20)
        rollout = orders.evolve(
            order_type_change_v2(),
            rollout="canary",
            fraction=1.0,
            conflict_threshold=0.5,
            min_observations=10,
        )
        _touch_all(system, cases)
        assert rollout.state == STATE_MIGRATING
        assert orders.start().version == 2  # promotion reopens the new version
        while system.rollout_of("online_order") is not None:
            if system.sweep_rollout("online_order", max_cases=64) == 0:
                break
        assert rollout.state == STATE_COMPLETED

    def test_auto_rolls_back_on_conflict_spike(self):
        system, orders, fresh, advanced = _order_system(fresh=15, advanced=15)
        rollout = orders.evolve(
            order_type_change_v2(),
            rollout="canary",
            fraction=1.0,
            conflict_threshold=0.3,
            min_observations=20,
        )
        pre_adoption = {
            c.instance_id: instance_to_dict(system.get_instance(c.instance_id))
            for c in fresh
        }
        interleaved = [c for pair in zip(fresh, advanced) for c in pair]
        _touch_all(system, interleaved)
        assert rollout.state == STATE_ROLLED_BACK
        assert rollout.observed_conflict_rate > 0.3
        # the version is withdrawn; nobody runs (or can start) on it
        assert orders.versions == [1]
        for case in fresh + advanced:
            assert system.get_instance(case.instance_id).schema_version == 1
        assert orders.start().version == 1
        # adopted canary cases reverted byte-identically to pre-adoption
        for instance_id in rollout.adopted:
            assert (
                instance_to_dict(system.get_instance(instance_id))
                == pre_adoption[instance_id]
            )

    def test_no_case_steps_on_a_rolled_back_version(self):
        system, orders, fresh, advanced = _order_system(fresh=15, advanced=15)
        orders.evolve(
            order_type_change_v2(),
            rollout="canary",
            fraction=1.0,
            conflict_threshold=0.3,
            min_observations=20,
        )
        interleaved = [c for pair in zip(fresh, advanced) for c in pair]
        _touch_all(system, interleaved)
        # every case keeps stepping on V1 after the rollback
        for case in fresh:
            result = system.step_many([case.instance_id], steps=1)
            assert system.get_instance(case.instance_id).schema_version == 1

    def test_pin_policy_retires_version_but_keeps_adopted_cases(self):
        system, orders, fresh, advanced = _order_system(fresh=15, advanced=15)
        rollout = orders.evolve(
            order_type_change_v2(),
            rollout="canary",
            fraction=1.0,
            conflict_threshold=0.3,
            min_observations=20,
            canary_policy="pin",
        )
        assert rollout.policy == POLICY_PIN
        interleaved = [c for pair in zip(fresh, advanced) for c in pair]
        _touch_all(system, interleaved)
        assert rollout.state == STATE_ROLLED_BACK
        # the version stays released (pinned cases keep running on it) …
        assert orders.versions == [1, 2]
        assert len(rollout.adopted) > 0
        for instance_id in rollout.adopted:
            case = system.get_instance(instance_id)
            assert case.schema_version == 2
            system.step_many([instance_id], steps=1)  # still executable
        # … but retired: no new case ever starts on it
        assert orders.start().version == 1

    def test_rejects_invalid_parameters(self):
        system, orders, _, _ = _order_system(fresh=1)
        with pytest.raises(ValueError):
            orders.evolve(order_type_change_v2(), rollout="gradual")
        with pytest.raises(ValueError):
            orders.evolve(order_type_change_v2(), rollout="lazy", migrate="strict")
        with pytest.raises(ValueError):
            system.evolve(
                "online_order", order_type_change_v2(), rollout="canary", fraction=1.5
            )
        with pytest.raises(ValueError):
            system.evolve(
                "online_order",
                order_type_change_v2(),
                rollout="canary",
                canary_policy="abandon",
            )


def _offers(system, instance_id):
    return sorted(
        item.activity_id
        for item in system.worklists.offered_items_for_instance(instance_id)
    )


class TestRolloutWorklistSync:
    """Adoption outside an execution scope must not leave stale offers
    (a later request's global worklist rescan used to repair them)."""

    def test_sweep_withdraws_offers_of_deleted_activities(self):
        from repro.core.operations import DeleteActivity

        system = AdeptSystem()
        sequence = system.deploy(templates.sequential_process())
        ids = [sequence.start().instance_id for _ in range(4)]
        system.step_many(ids[:2], steps=1)
        assert [_offers(system, i) for i in ids] == [["step_2"]] * 2 + [["step_1"]] * 2
        sequence.evolve([DeleteActivity(activity_id="step_2")], rollout="lazy")
        assert system.sweep_rollout("sequence") == 4
        # no other call in between: the sweep itself synchronised the cases
        assert [_offers(system, i) for i in ids] == [["step_3"]] * 2 + [["step_1"]] * 2

    def test_sweep_synchronises_evicted_cases_without_hydrating_them(self, tmp_path):
        from repro.core.operations import DeleteActivity

        system = AdeptSystem.open(tmp_path / "db", cache_instances=2)
        sequence = system.deploy(templates.sequential_process())
        ids = [sequence.start().instance_id for _ in range(6)]
        system.step_many(ids, steps=1)
        sequence.evolve([DeleteActivity(activity_id="step_2")], rollout="lazy")
        while system.rollout_of("sequence") is not None:
            if system.sweep_rollout("sequence", max_cases=2) == 0:
                break
        assert system.rollout_status("sequence")["state"] == STATE_COMPLETED
        evicted = [i for i in ids if i not in system.live_instance_ids()]
        assert evicted
        assert [_offers(system, i) for i in ids] == [["step_3"]] * 6
        assert set(evicted).isdisjoint(system.live_instance_ids())

    def test_canary_revert_reoffers_the_restored_activations(self):
        system, orders, fresh, _ = _order_system(fresh=6)
        rollout = orders.evolve(
            order_type_change_v2(),
            rollout="canary",
            fraction=1.0,
            canary_decide="external",
        )
        # adopt, then move on *on the canary version*
        _touch_all(system, fresh)
        assert rollout.adopted == {case.instance_id for case in fresh}
        assert all(_offers(system, c.instance_id) == ["collect_data"] for c in fresh)
        system.evolution.roll_back("online_order")
        assert rollout.state == STATE_ROLLED_BACK
        for case in fresh:
            restored = system.get_instance(case.instance_id)
            assert restored.schema_version == 1
            assert restored.activated_activities() == ["get_order"]
            assert _offers(system, case.instance_id) == ["get_order"]
            # the manager tracks the restored object, not the discarded one
            assert system.worklists._instances[case.instance_id] is restored


class TestRolloutExclusion:
    def test_eager_evolve_blocked_while_rollout_in_flight(self):
        system, orders, cases, _ = _order_system(fresh=3)
        orders.evolve(order_type_change_v2(), rollout="lazy")
        with pytest.raises(MigrationError):
            orders.evolve(order_type_change_v2(from_version=2))

    def test_second_rollout_blocked_while_first_in_flight(self):
        system, orders, cases, _ = _order_system(fresh=3)
        orders.evolve(order_type_change_v2(), rollout="lazy")
        with pytest.raises(MigrationError):
            orders.evolve(order_type_change_v2(from_version=2), rollout="lazy")

    def test_next_evolution_allowed_after_completion(self):
        from repro import ChangeSet

        system, orders, cases, _ = _order_system(fresh=3)
        orders.evolve(order_type_change_v2(), rollout="lazy")
        while system.rollout_of("online_order") is not None:
            if system.sweep_rollout("online_order", max_cases=64) == 0:
                break
        delta = ChangeSet(comment="V3").serial_insert(
            "confirm_payment", pred="deliver_goods", succ="end", role="sales"
        )
        report = orders.evolve(delta, migrate="none")
        assert report.to_version == 3


class TestDurableRollout:
    def test_in_flight_rollout_survives_crash(self, tmp_path):
        system = AdeptSystem.open(tmp_path / "db")
        orders = system.deploy(templates.online_order_process())
        cases = [orders.start() for _ in range(12)]
        orders.evolve(order_type_change_v2(), rollout="lazy")
        for case in cases[:5]:
            system.step_many([case.instance_id], steps=1)

        # crash (no checkpoint, no close): recover from WAL alone
        recovered = AdeptSystem.open(tmp_path / "db")
        rollout = recovered.rollout_of("online_order")
        assert rollout is not None and rollout.state == STATE_MIGRATING
        assert len(rollout.adopted) == 5
        versions = {
            recovered.get_instance(c.instance_id).schema_version for c in cases
        }
        assert versions == {1, 2}
        # the rollout resumes and converges
        while recovered.rollout_of("online_order") is not None:
            if recovered.sweep_rollout("online_order", max_cases=8) == 0:
                break
        assert all(
            recovered.get_instance(c.instance_id).schema_version == 2 for c in cases
        )

    def test_rollout_survives_checkpoint_snapshot(self, tmp_path):
        system = AdeptSystem.open(tmp_path / "db")
        orders = system.deploy(templates.online_order_process())
        cases = [orders.start() for _ in range(8)]
        orders.evolve(order_type_change_v2(), rollout="lazy")
        for case in cases[:3]:
            system.step_many([case.instance_id], steps=1)
        system.checkpoint()
        for case in cases[3:5]:
            system.step_many([case.instance_id], steps=1)

        recovered = AdeptSystem.open(tmp_path / "db")
        rollout = recovered.rollout_of("online_order")
        assert rollout is not None
        assert len(rollout.adopted) == 5
        while recovered.rollout_of("online_order") is not None:
            if recovered.sweep_rollout("online_order", max_cases=8) == 0:
                break
        assert recovered.rollout_status("online_order")["state"] == "completed"

    def test_canary_rollback_survives_crash(self, tmp_path):
        system = AdeptSystem.open(tmp_path / "db")
        orders = system.deploy(templates.online_order_process())
        fresh = [orders.start() for _ in range(15)]
        advanced = [orders.start() for _ in range(15)]
        for case in advanced:
            system.step_many([case.instance_id], steps=3)
        rollout = system.evolve(
            "online_order",
            order_type_change_v2(),
            rollout="canary",
            fraction=1.0,
            conflict_threshold=0.3,
            min_observations=20,
        )
        interleaved = [c for pair in zip(fresh, advanced) for c in pair]
        _touch_all(system, interleaved)
        assert rollout.state == STATE_ROLLED_BACK
        expected = {
            c.instance_id: instance_to_dict(system.get_instance(c.instance_id))
            for c in fresh + advanced
        }

        recovered = AdeptSystem.open(tmp_path / "db")
        assert recovered.rollout_of("online_order") is None
        assert recovered.rollout_status("online_order")["state"] == "rolled_back"
        assert recovered.type("online_order").versions == [1]
        for case in fresh + advanced:
            assert (
                instance_to_dict(recovered.get_instance(case.instance_id))
                == expected[case.instance_id]
            )
        # the replay runs the live transitions, bus events included
        assert recovered.feed.rollout_summary() == system.feed.rollout_summary()
        assert recovered.feed.rollout_summary()["rollout_case_adopted"] == 10
        assert recovered.feed.rollout_summary()["rollout_rolled_back"] == 1

    def test_crash_mid_observation_keeps_the_canary_verdict(self, tmp_path):
        def touch_and_decide(crash):
            path = tmp_path / f"db-{crash}"
            system = AdeptSystem.open(path)
            orders = system.deploy(templates.online_order_process())
            fresh = [orders.start().instance_id for _ in range(20)]
            advanced = [orders.start().instance_id for _ in range(10)]
            system.step_many(advanced, steps=3)
            rollout = system.evolve(
                "online_order",
                order_type_change_v2(),
                rollout="canary",
                fraction=1.0,
                conflict_threshold=0.3,
                min_observations=20,
            )
            for instance_id in fresh[:5] + advanced[:9]:
                system.step_many([instance_id], steps=1)
            assert (len(rollout.adopted), len(rollout.conflicted)) == (5, 9)
            if crash:
                # the canary's evidence (its conflicts too) is in the WAL
                system.backend.close()
                system = AdeptSystem.open(path)
            for instance_id in fresh[5:]:
                system.step_many([instance_id], steps=1)
            return (
                system.rollout_status("online_order")["state"],
                system.type("online_order").versions,
            )

        assert touch_and_decide(crash=False) == (STATE_ROLLED_BACK, [1])
        assert touch_and_decide(crash=True) == (STATE_ROLLED_BACK, [1])


class TestRolloutObservability:
    def test_feed_rollout_summary(self):
        system, orders, cases, advanced = _order_system(fresh=5, advanced=2)
        orders.evolve(order_type_change_v2(), rollout="lazy")
        _touch_all(system, cases + advanced)
        while system.rollout_of("online_order") is not None:
            if system.sweep_rollout("online_order", max_cases=64) == 0:
                break
        summary = system.feed.rollout_summary()
        assert summary["rollout_started"] == 1
        assert summary["rollout_case_adopted"] == 5
        assert summary["rollout_case_conflict"] == 2
        assert summary["rollout_completed"] == 1

    def test_progress_serialisation_roundtrip(self):
        system, orders, cases, _ = _order_system(fresh=4)
        rollout = orders.evolve(
            order_type_change_v2(), rollout="canary", min_observations=10_000
        )
        _touch_all(system, cases)
        clone = Rollout.from_dict(rollout.to_dict())
        assert clone.progress() == rollout.progress()
        assert clone.adopted == rollout.adopted
        assert clone.pre_states == rollout.pre_states
