"""Tests for the AdeptSystem service façade: lifecycle, handles, persistence."""

import pytest

from repro import AdeptSystem, EngineError, InstanceStatus, SchemaError
from repro.core.evolution import EvolutionError
from repro.org.model import example_org_model
from repro.schema import templates


@pytest.fixture
def system():
    return AdeptSystem()


@pytest.fixture
def orders(system):
    return system.deploy(templates.online_order_process())


class TestDeploy:
    def test_deploy_returns_type_handle(self, system):
        handle = system.deploy(templates.online_order_process())
        assert handle.type_id == "online_order"
        assert handle.versions == [1]
        assert handle.schema().name == "online_order"

    def test_deploy_rejects_broken_schema(self, system):
        schema = templates.online_order_process()
        schema.remove_node("deliver_goods")
        with pytest.raises(SchemaError):
            system.deploy(schema)

    def test_deploy_rejects_duplicate_type(self, system, orders):
        with pytest.raises(EvolutionError):
            system.deploy(templates.online_order_process())

    def test_type_lookup(self, system, orders):
        assert system.type("online_order").type_id == "online_order"
        assert [t.type_id for t in system.types()] == ["online_order"]
        with pytest.raises(EvolutionError):
            system.type("nope")


class TestLifecycle:
    def test_full_lifecycle_deploy_start_complete_query_worklist(self):
        """The satellite's canonical flow: deploy -> start -> complete -> worklist."""
        system = AdeptSystem(org_model=example_org_model())
        treatment = system.deploy(templates.patient_treatment_process())
        case = treatment.start(case_id="patient-1")

        # the first activity is offered on the nurse's worklist
        items = system.worklist("erik")
        assert len(items) == 1
        assert items[0].activity_id == "admit_patient"

        item = system.claim(items[0].item_id, "erik")
        system.complete_item(item.item_id, outputs={"patient": {"name": "Jane"}})
        assert "admit_patient" in case.completed_activities()

        # drive the case to completion by handle
        result = case.run()
        assert result.ok
        assert case.status is InstanceStatus.COMPLETED
        # the finished case no longer offers work
        assert system.worklist("erik") == []

    def test_start_generates_case_ids(self, system, orders):
        first = orders.start()
        second = orders.start()
        assert first.instance_id != second.instance_id
        assert first.instance_id.startswith("online_order-")

    def test_start_rejects_duplicate_case_id(self, system, orders):
        orders.start(case_id="c1")
        with pytest.raises(EngineError):
            orders.start(case_id="c1")

    def test_start_with_initial_data(self, system, orders):
        case = orders.start(customer="jane")
        assert case.data("customer") == "jane"

    def test_complete_returns_step_result(self, system, orders):
        case = orders.start()
        result = case.complete("get_order")
        assert result.ok
        assert result.activated == ["collect_data"]
        assert result.status is InstanceStatus.RUNNING
        payload = result.to_dict()
        assert payload["instance_id"] == case.instance_id

    def test_instance_handle_addresses_by_id(self, system, orders):
        case = orders.start(case_id="c42")
        same = system.instance("c42")
        assert same == case
        assert same.raw is case.raw
        with pytest.raises(EngineError):
            system.instance("missing")

    def test_instances_of_type(self, system, orders):
        orders.start(case_id="a")
        orders.start(case_id="b")
        ids = sorted(handle.instance_id for handle in orders.instances())
        assert ids == ["a", "b"]

    def test_abort(self, system, orders):
        case = orders.start()
        case.abort()
        assert case.status is InstanceStatus.ABORTED
        # nobody could start anything on it any more: nothing stays offered
        assert system.worklists.items_for_instance(case.instance_id) == []

    def test_start_activity_withdraws_the_offer_at_once(self, system, orders):
        """Regression: an activity started directly (not through ``claim``)
        stayed OFFERED and claimable until some later refresh."""
        case = orders.start()
        (item,) = system.worklists.offered_items_for_instance(case.instance_id)
        assert item.activity_id == "get_order"
        system.start_activity(case.instance_id, "get_order", user="alice")
        assert system.worklists.offered_items_for_instance(case.instance_id) == []
        assert system.worklist("alice") == []
        with pytest.raises(EngineError, match="unknown work item"):
            system.claim(item.item_id, "alice")
        # completing the running activity offers its successor
        system.complete(case.instance_id, "get_order", outputs={"order": {"id": 1}})
        assert [
            i.activity_id for i in system.worklists.offered_items_for_instance(case.instance_id)
        ] == ["collect_data"]

    def test_worklist_is_a_pure_read(self, system, orders):
        """``worklist()`` neither resynchronises nor reads any case."""
        case = orders.start()
        # step the case behind the façade's back: a pure read cannot notice
        system.engine.complete_activity(case.raw, "get_order", outputs={"order": {}})
        assert [i.activity_id for i in system.worklist("anyone")] == ["get_order"]
        # the next façade call that touches the case synchronises it
        system.activated(case.instance_id)
        assert [i.activity_id for i in system.worklist("anyone")] == ["collect_data"]

    def test_statistics(self, system, orders):
        orders.start().run()
        orders.start()
        stats = system.statistics()
        assert stats.total == 2
        assert stats.running() == 1


class TestPersistence:
    def test_save_and_reload_by_handle(self, system, orders):
        case = orders.start(case_id="persist-1")
        case.complete("get_order")
        case.save()
        assert "persist-1" in system.stored_instance_ids()

        # a fresh system sharing nothing must not know the case
        other = AdeptSystem()
        other.deploy(templates.online_order_process())
        with pytest.raises(EngineError):
            other.instance("persist-1")

        # dropping the live object: the handle transparently reloads from the store
        del system._instances["persist-1"]
        reloaded = system.instance("persist-1")
        assert "get_order" in reloaded.completed_activities()

    def test_save_all(self, system, orders):
        orders.start(case_id="a")
        orders.start(case_id="b")
        stored = system.save_all()
        assert sorted(s.instance_id for s in stored) == ["a", "b"]

    def test_adopt_instance_requires_deployed_type(self, system):
        from repro.runtime.engine import ProcessEngine

        schema = templates.online_order_process()
        instance = ProcessEngine().create_instance(schema, "outsider")
        with pytest.raises(EvolutionError):
            system.adopt_instance(instance)
        system.deploy(schema)
        handle = system.adopt_instance(instance)
        assert handle.instance_id == "outsider"
        assert system.activated("outsider") == ["get_order"]
