"""Kernel-vs-oracle parity: the compiled stepping path against its reference.

The engine has one stepping path (the compiled
:class:`~repro.runtime.kernel.StepKernel`); its reference is the
round-based full-scan interpreter :class:`tests.baselines.scan_oracle.
ScanOracle`.  Every test drives the same deterministic workload through
both and compares everything :func:`~tests.baselines.scan_oracle.observed`
records — serialised instance state (marking, history, data, loop
counters), activation order and the event stream — or, where the workload
runs through production code only (migration, compliance), the serialised
outcome of populations built and finished by either side.

The suite carries the ``kernel`` marker so it can run standalone
(``pytest -m kernel``).
"""

import json
import random

import pytest

from repro.core.adhoc import AdHocChanger
from repro.core.compliance import ComplianceChecker
from repro.core.migration import MigrationManager
from repro.core.operations import SerialInsertActivity
from repro.runtime.engine import ProcessEngine
from repro.runtime.worklist import WorklistManager
from repro.schema import templates
from repro.schema.blocks import BlockTree
from repro.schema.builder import SchemaBuilder
from repro.schema.data import DataType
from repro.schema.nodes import Node
from repro.storage.serialization import instance_from_dict, instance_to_dict
from repro.system import AdeptSystem
from repro.verification.dataflow import written_before
from repro.workloads.order_process import order_type_change_v2, paper_fig3_population
from repro.workloads.schema_generator import RandomSchemaGenerator, SchemaGeneratorConfig

from tests.baselines.scan_oracle import ScanOracle, observed, recording

pytestmark = pytest.mark.kernel


def _kernel_and_oracle(run):
    """Run ``run(engine)`` once per side."""
    return run(recording(ProcessEngine())), run(recording(ScanOracle()))


def _generated_schemas():
    config = SchemaGeneratorConfig(target_activities=14, loop_probability=0.1)
    return [
        RandomSchemaGenerator(config, seed=seed).generate(f"parity_{seed}")
        for seed in (1, 2, 3, 4, 5)
    ]


def _step_randomly(engine, instances, rng, steps, true_share=0.8):
    """Seeded scheduler: random live instance, random activated activity,
    boolean outputs perturbed so XOR branches and loop exits vary."""
    trace = []
    for _ in range(steps):
        live = [inst for inst in instances if inst.status.is_active]
        if not live:
            break
        instance = rng.choice(live)
        activated = instance.activated_activities()
        if not activated:
            break
        activity = rng.choice(activated)
        outputs = engine.outputs_for(instance, activity)
        for key in sorted(outputs):
            if isinstance(outputs[key], bool):
                outputs[key] = rng.random() < true_share
        engine.complete_activity(instance, activity, outputs)
        trace.append((instance.instance_id, activity, observed(engine, [instance])[0]))
    return trace


def _synced_schema():
    """Two parallel branches with a sync edge a2 -> b2."""
    builder = SchemaBuilder("synced")
    builder.parallel(
        [
            lambda s: s.activity("a1").activity("a2"),
            lambda s: s.activity("b1").activity("b2"),
        ]
    )
    builder.sync("a2", "b2")
    return builder.build()


def _sync_from_conditional_schema():
    """A sync edge whose source sits in an XOR branch that may be skipped."""
    builder = SchemaBuilder("sync_xor")
    builder.data("flag", DataType.BOOLEAN, default=False)
    builder.activity("decide", writes=["flag"])
    builder.parallel(
        [
            lambda s: s.conditional(
                [
                    ("flag", lambda b: b.activity("optional_step")),
                    (None, lambda b: b.activity("normal_step")),
                ]
            ),
            lambda s: s.activity("waiter"),
        ]
    )
    builder.sync("optional_step", "waiter")
    return builder.build()


class TestSteppingParity:
    def test_run_to_completion(self):
        schema = RandomSchemaGenerator(
            SchemaGeneratorConfig(target_activities=20, loop_probability=0.1), seed=11
        ).generate("parity_step")

        def run(engine):
            instances = []
            for k in range(10):
                instance = engine.create_instance(schema, f"case-{k}")
                engine.run_to_completion(instance)
                instances.append(instance)
            return observed(engine, instances)

        kernel, oracle = _kernel_and_oracle(run)
        assert kernel == oracle

    @pytest.mark.parametrize("seed", [7, 19, 31, 43])
    def test_random_step_sequences(self, seed):
        """Loops, XOR dead-path elimination and AND joins under a random schedule."""
        schema = RandomSchemaGenerator(
            SchemaGeneratorConfig(target_activities=16, loop_probability=0.15), seed=seed
        ).generate(f"parity_rand_{seed}")

        def run(engine):
            instances = [engine.create_instance(schema, f"case-{seed}-{k}") for k in range(4)]
            trace = _step_randomly(engine, instances, random.Random(seed), steps=400)
            return trace, observed(engine, instances)

        kernel, oracle = _kernel_and_oracle(run)
        assert kernel == oracle

    @pytest.mark.parametrize("build", [_synced_schema, _sync_from_conditional_schema])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_sync_edges(self, build, seed):
        """Sync targets wait for their source — or for its dead-path skip."""
        schema = build()

        def run(engine):
            instances = [engine.create_instance(schema, f"sync-{k}") for k in range(3)]
            trace = _step_randomly(engine, instances, random.Random(seed), 60, true_share=0.5)
            return trace, observed(engine, instances)

        kernel, oracle = _kernel_and_oracle(run)
        assert kernel == oracle

    def test_worklist_offers(self):
        schema = templates.online_order_process()

        def run(engine):
            worklists = WorklistManager(engine)
            instances = [engine.create_instance(schema, f"case-{k}") for k in range(4)]
            for instance in instances:
                worklists.register_instance(instance)
            offers = []
            for _ in range(40):
                stepped = sum(engine.advance_instance(instance, 1) for instance in instances)
                worklists.refresh()
                offers.append(
                    [
                        (item.instance_id, item.activity_id, item.role, item.state.value)
                        for item in worklists.offered_items()
                    ]
                )
                if not stepped:
                    break
            return offers, observed(engine, instances)

        kernel, oracle = _kernel_and_oracle(run)
        assert kernel == oracle

    def test_facade_offers_match_an_oracle_driven_worklist(self):
        """``AdeptSystem.step_many`` offers exactly what the oracle's markings imply."""
        system = AdeptSystem()
        handle = system.deploy(templates.online_order_process())
        ids = [handle.start().instance_id for _ in range(4)]
        oracle = recording(ScanOracle())
        worklists = WorklistManager(oracle)
        twins = [oracle.create_instance(handle.schema(), instance_id) for instance_id in ids]
        for twin in twins:
            worklists.register_instance(twin)

        def offers(manager):
            return sorted(
                (item.instance_id, item.activity_id, item.role, item.state.value)
                for item in manager.offered_items()
            )

        for _ in range(40):
            results = system.step_many(ids, steps=1)
            for twin in twins:
                oracle.advance_instance(twin, 1)
            worklists.refresh()
            assert offers(system.worklists) == offers(worklists)
            if not any(result.steps for result in results):
                break
        live = [system.get_instance(instance_id) for instance_id in ids]
        # states only: the system's events went to its bus, not to a recorder
        assert observed(recording(system.engine), live)[0] == observed(oracle, twins)[0]


class TestChangedCasesParity:
    """Cases whose schema changed under them keep stepping identically."""

    def test_adhoc_changed_hydrated_case_runs_to_completion(self):
        """An ad-hoc changed case after a store round trip: JSON sorts the
        keyed marking's dicts, loading re-orders them onto the layout of
        the re-materialised execution schema, and ``step_many_compiled``
        picks the next activity in that layout's order."""
        schema = templates.online_order_process()
        insert = SerialInsertActivity(
            activity=Node(node_id="verify_address"), pred="get_order", succ="collect_data"
        )

        def run(engine):
            instance = engine.create_instance(schema, "adhoc")
            engine.complete_activity(instance, "get_order")
            AdHocChanger().apply(instance, [insert])
            stored = json.loads(json.dumps(instance_to_dict(instance), sort_keys=True))
            instance = instance_from_dict(stored, lambda name, version: schema)
            if isinstance(engine, ProcessEngine):
                kernel = instance.execution_schema.index.step_kernel()
                assert instance.marking.layout is kernel.layout
            steps = engine.run_to_completion(instance)
            assert "verify_address" in instance.completed_activities()
            return steps, observed(engine, [instance])

        kernel, oracle = _kernel_and_oracle(run)
        assert kernel == oracle

    def test_cases_stepped_after_an_eager_evolve(self):
        system = AdeptSystem()
        orders = system.deploy(templates.online_order_process())
        ids = [orders.start().instance_id for _ in range(6)]
        for progress, instance_id in enumerate(ids):
            system.step_many([instance_id], steps=progress % 3)
        report = orders.evolve(order_type_change_v2())
        assert report.migrated_count > 0

        oracle = recording(ScanOracle())
        twins = [system.get_instance(instance_id).clone(instance_id) for instance_id in ids]
        recording(system.engine)  # the events from here on, in place of the bus
        system.step_many(ids, steps=50)
        for twin in twins:
            oracle.run_to_completion(twin)

        live = [system.get_instance(instance_id) for instance_id in ids]
        kernel_state, kernel_events = observed(system.engine, live)
        oracle_state, oracle_events = observed(oracle, twins)
        assert kernel_state == oracle_state
        assert kernel_events == oracle_events

    def test_loop_reset_inside_a_step_many_batch(self):
        schema = templates.loop_process(body_length=2, max_iterations=6)
        passes = {}

        def worker(node, data):
            # leave the loop on the third pass through its last body activity
            passes[node.node_id] = passes.get(node.node_id, 0) + 1
            return {"done": passes[node.node_id] % 3 == 0}

        def run(engine):
            passes.clear()
            instances = [engine.create_instance(schema, f"loop-{k}") for k in range(3)]
            if isinstance(engine, ProcessEngine):
                counts = engine.step_many_compiled(instances, 50, worker)
            else:
                counts = [engine.advance_instance(instance, 50, worker) for instance in instances]
            assert all(sum(instance.loop_iterations.values()) == 2 for instance in instances)
            return counts, observed(engine, instances)

        kernel, oracle = _kernel_and_oracle(run)
        assert kernel == oracle

    def test_user_is_recorded_by_complete_but_not_by_step_many(self):
        """One completion body serves both entry points: ``complete_activity``
        carries its ``user`` into history, event and step listener;
        ``step_many_compiled`` records none.  The listener hears one
        notification per acknowledged operation: an implicit start is part
        of its ``complete``, an explicit start is announced on its own —
        history and events are the oracle's either way."""
        engine, oracle = recording(ProcessEngine()), recording(ScanOracle())
        journaled = []
        engine.step_listener = lambda action, instance, activity, outputs, user: journaled.append(
            (action, activity, user)
        )
        schema = templates.sequential_process()
        instance = engine.create_instance(schema, "who")
        twin = oracle.create_instance(schema, "who")
        first = instance.activated_activities()[0]
        engine.complete_activity(instance, first, user="alice")
        oracle.complete_activity(twin, first, user="alice")
        second = instance.activated_activities()[0]
        engine.step_many_compiled([instance], 1)
        oracle.advance_instance(twin, 1)
        third = instance.activated_activities()[0]
        for side, case in ((engine, instance), (oracle, twin)):
            side.start_activity(case, third, user="bob")
            side.complete_activity(case, third, user="bob")

        assert observed(engine, [instance]) == observed(oracle, [twin])
        assert journaled == [
            ("complete", first, "alice"),
            ("complete", second, None),
            ("start", third, "bob"),
            ("complete", third, "bob"),
        ]
        assert {(e.activity, e.user) for e in instance.history.entries} == {
            (first, "alice"),
            (second, None),
            (third, "bob"),
        }
        transitions = [
            (event.node_id, event.user)
            for event in engine.event_listener
            if event.event_type.value in ("activity_started", "activity_completed")
        ]
        assert transitions == [(first, "alice")] * 2 + [(second, None)] * 2 + [(third, "bob")] * 2


def _migration_outcome(engine):
    """One full migration run over the paper workload, serialised."""
    process_type, _, instances = paper_fig3_population(
        instance_count=80, biased_fraction=0.15, seed=17, engine=engine
    )
    report = MigrationManager().migrate_type(process_type, order_type_change_v2(), instances)
    for instance in instances:
        if instance.status.is_active:
            engine.run_to_completion(instance)
    payload = report.to_dict()
    payload.pop("duration_seconds")
    return json.dumps(payload, sort_keys=True, default=str), observed(engine, instances)[0]


def _compliance_outcome(engine):
    """Per-instance compliance verdicts for a partially executed population."""
    process_type, _, instances = paper_fig3_population(
        instance_count=40, biased_fraction=0.0, seed=23, engine=engine
    )
    change = order_type_change_v2()
    target = change.operations.apply_to(process_type.latest_schema)
    checker = ComplianceChecker()
    verdicts = []
    for instance in instances:
        conditions = checker.check_with_conditions(instance, change.operations)
        replay = checker.check_by_replay(instance, target)
        verdicts.append(
            (
                instance.instance_id,
                conditions.compliant,
                sorted(str(conflict) for conflict in conditions.conflicts),
                replay.compliant,
                sorted(str(conflict) for conflict in replay.conflicts),
            )
        )
    return json.dumps(verdicts, sort_keys=True)


class TestPopulationParity:
    """Migration and compliance see the same population from either side."""

    def test_migration_of_a_population_built_and_finished_by_either(self):
        kernel, oracle = _kernel_and_oracle(_migration_outcome)
        assert kernel == oracle

    def test_compliance_verdicts_over_a_population_built_by_either(self):
        kernel, oracle = _kernel_and_oracle(_compliance_outcome)
        assert kernel == oracle

    def test_index_cached_analyses_equal_fresh_recomputation(self):
        """What the verifiers read from the index is what the direct functions compute."""
        for schema in _generated_schemas() + templates.all_templates():
            index = schema.index
            assert index.written_before() == written_before(schema)
            fresh = BlockTree.build(schema)
            assert [
                (block.kind, block.entry, block.exit, sorted(block.all_nodes()))
                for block in index.block_tree().blocks
            ] == [
                (block.kind, block.entry, block.exit, sorted(block.all_nodes()))
                for block in fresh.blocks
            ]
