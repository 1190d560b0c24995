"""Sanity checks on the public package surface (`import repro`)."""

import pytest

import repro


class TestPublicApi:
    def test_version_exposed(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} is exported but missing"

    def test_core_workflow_through_top_level_names_only(self):
        """The README quickstart works using only top-level imports."""
        builder = repro.SchemaBuilder("api_check", name="api_check")
        builder.data("order", repro.DataType.DOCUMENT)
        builder.activity("receive", role="clerk", writes=["order"])
        builder.activity("ship", role="logistics", reads=["order"])
        schema = builder.build()
        assert repro.verify_schema(schema).is_correct

        engine = repro.ProcessEngine()
        case = engine.create_instance(schema, "api-case")
        engine.complete_activity(case, "receive", outputs={"order": {"id": 1}})

        repro.AdHocChanger(engine).apply(
            case,
            [
                repro.SerialInsertActivity(
                    activity=repro.Node(node_id="approve", staff_assignment="manager"),
                    pred="receive",
                    succ="ship",
                )
            ],
        )
        process_type = repro.ProcessType("api_check", schema)
        change = repro.TypeChange.of(
            1,
            [
                repro.SerialInsertActivity(
                    activity=repro.Node(node_id="invoice", staff_assignment="clerk"),
                    pred="ship",
                    succ=schema.successors("ship")[0],
                )
            ],
        )
        report = repro.MigrationManager(engine).migrate_type(process_type, change, [case])
        assert report.migrated_count == 1
        engine.run_to_completion(case)
        assert case.status is repro.InstanceStatus.COMPLETED
        assert set(case.completed_activities()) == {"receive", "approve", "ship", "invoice"}

    def test_monitoring_helpers_exposed(self, order_schema):
        text = repro.render_schema_ascii(order_schema)
        assert "get_order" in text

    def test_storage_types_exposed(self, order_schema):
        repository = repro.SchemaRepository()
        repository.register_type(order_schema)
        store = repro.InstanceStore(repository, strategy=repro.HybridSubstitutionRepresentation())
        engine = repro.ProcessEngine()
        instance = engine.create_instance(order_schema, "api-store")
        store.save(instance)
        assert store.load("api-store").instance_id == "api-store"

    def test_stepping_mode_switches_are_gone(self):
        """One stepping path: no process-global mode switch is importable."""
        import repro.runtime
        import repro.runtime.kernel
        import repro.schema
        import repro.schema.index

        removed = {
            (repro.schema, repro.schema.index): ("indexing_enabled", "set_indexing", "without_index"),
            (repro.runtime, repro.runtime.kernel): (
                "compiled_stepping_enabled",
                "set_compiled_stepping",
                "without_compiled_kernel",
            ),
        }
        for modules, names in removed.items():
            for module in modules:
                for name in names:
                    assert not hasattr(module, name), f"{module.__name__}.{name} is back"
                    assert name not in getattr(module, "__all__", ())

    def test_event_windows_are_gone(self):
        """One event path, no window: the engine reports to one listener, the
        bus keeps no history and no failed delivery, the feed keeps counts
        only, and scratch engines report nowhere."""
        import repro.runtime
        import repro.runtime.events
        from repro.core.rollback import RollbackPlanner
        from repro.errors import MigrationError
        from repro.schema import templates
        from repro.workloads.order_process import ORDER_EXECUTION_SEQUENCE, order_type_change_v2

        for module in (repro, repro.runtime, repro.runtime.events):
            assert not hasattr(module, "EventLog"), f"{module.__name__}.EventLog is back"
            assert "EventLog" not in getattr(module, "__all__", ())
        system = repro.AdeptSystem()
        assert not hasattr(system, "event_log")
        assert not hasattr(system.engine, "event_log")
        assert system.engine.event_listener == system.bus.publish_engine_event
        for name in ("events", "events_of", "max_history", "__len__"):
            assert not hasattr(repro.EventBus, name), f"EventBus.{name} is back"
        assert repro.EventBus()  # no __len__: an empty bus is not falsy
        assert not hasattr(repro.EventBus(), "delivery_errors")
        assert not hasattr(repro.runtime.events, "MAX_RETAINED_EVENTS")
        for name in ("events", "names", "tail", "render", "__len__", "max_events"):
            assert not hasattr(system.feed, name), f"EventFeed.{name} is back"
        with pytest.raises(TypeError):
            repro.EventFeed(max_events=5)

        orders = system.deploy(templates.online_order_process())
        blocked = orders.start(case_id="blocked")
        for activity in ORDER_EXECUTION_SEQUENCE[:5]:  # pack_goods done -> state conflict
            blocked.complete(activity)
        heard = []
        system.bus.subscribe(heard.append)
        plan = RollbackPlanner(system.engine).plan(
            system.get_instance("blocked"), order_type_change_v2().operations
        )
        assert plan.activities
        with pytest.raises(MigrationError):
            orders.evolve(order_type_change_v2(), migrate="strict")
        assert heard == []

    def test_migration_surface_has_no_path_selecting_knobs(self):
        """One migration pipeline: nothing on the surface chooses between paths."""
        import inspect

        def parameters(function):
            return [name for name in inspect.signature(function).parameters if name != "self"]

        assert parameters(repro.AdeptSystem.__init__) == [
            "org_model",
            "bus",
            "monitor",
            "cache_instances",
        ]
        assert parameters(repro.MigrationManager.migrate_type) == [
            "process_type",
            "type_change",
            "instances",
            "release",
            "collect_results",
            "plan",
            "cache",
        ]

    def test_the_marking_has_one_representation(self, order_schema):
        """Two code arrays on a layout plus the settled flag — and no mirror of them."""
        import re
        from pathlib import Path

        import repro.runtime
        import repro.runtime.markings

        assert repro.Marking.__slots__ == ("layout", "nodes", "edges", "settled")
        assert not hasattr(repro.Marking.initial(order_schema), "__dict__")
        for module in (repro, repro.runtime, repro.runtime.markings):
            assert not hasattr(module, "DenseMarking"), f"{module.__name__}.DenseMarking is back"
        for gone in ("dense_view", "ensure_node", "ensure_edge", "remove_node", "to_codes"):
            assert not hasattr(repro.Marking, gone), f"Marking.{gone} is back"
        # grep -rn "DenseMarking\|dense_view\|_dense" src/  must stay empty
        mirror = re.compile(r"DenseMarking|dense_view|_dense")
        source = Path(repro.__file__).resolve().parent
        hits = [
            f"{path.relative_to(source)}:{number}"
            for path in sorted(source.rglob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if mirror.search(line)
        ]
        assert hits == []

    def test_storage_has_one_durability_mechanism(self, tmp_path):
        """Snapshot + logical WAL behind ``AdeptSystem.open`` — and nothing beside it."""
        import importlib

        import pytest

        import repro.storage
        from repro.storage import InstanceStore, SchemaRepository, WriteAheadLog

        assert not hasattr(repro.storage, "KeyValueStore")
        assert "KeyValueStore" not in repro.storage.__all__
        with pytest.raises(ImportError):
            importlib.import_module("repro.storage.kv")

        repository = SchemaRepository()
        wal = WriteAheadLog(str(tmp_path / "wal.jsonl"))
        removed_keywords = [
            (repro.AdeptSystem, {"wal": wal}),
            (repro.AdeptSystem, {"kv_store": None}),
            (SchemaRepository, {"store": None}),
            (lambda **kw: InstanceStore(repository, **kw), {"store": None}),
            (lambda **kw: InstanceStore(repository, **kw), {"wal": wal}),
        ]
        for construct, keyword in removed_keywords:
            with pytest.raises(TypeError):
                construct(**keyword)
        with pytest.raises(TypeError):
            WriteAheadLog()

        removed_methods = {
            repro.AdeptSystem: ("recover_from_wal", "simulate_crash_recovery"),
            InstanceStore: ("recover_from_wal", "checkpoint"),
            SchemaRepository: ("_persist", "_load"),
        }
        for owner, names in removed_methods.items():
            for name in names:
                assert not hasattr(owner, name), f"{owner.__name__}.{name} is back"
        # an in-memory system has nothing to make durable: checkpoint() is a no-op
        system = repro.AdeptSystem()
        heard = []
        system.bus.subscribe(heard.append)
        system.checkpoint()
        assert heard == []
        assert "checkpoint_completed" not in system.feed.counts()
