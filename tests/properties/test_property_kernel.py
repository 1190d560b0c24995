"""Property-based tests pinning the compiled stepping kernel to the scan oracle.

Over random schemas and random schedules — including loop resets and a
structural mutation by ad-hoc change mid-run — the kernel (positional,
seeded from a settled marking) and the oracle (``tests/baselines``: a
full scan by name every round) must produce identical traces, states and
events.  What the marking's arrays say against plain dicts is
``test_property_marking_parity.py``'s subject.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.adhoc import AdHocChangeError, AdHocChanger
from repro.core.operations import SerialInsertActivity
from repro.runtime.engine import ProcessEngine
from repro.runtime.kernel import _control_depth, _loop_budget, derive_round_bound
from repro.schema.edges import EdgeType
from repro.schema.nodes import Node
from repro.schema.builder import SchemaBuilder
from repro.schema.data import DataType

from tests.baselines.scan_oracle import ScanOracle, observed, recording

from .strategies import random_schemas

pytestmark = pytest.mark.kernel

RELAXED = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _step_randomly(engine, instance, rng, steps):
    for _ in range(steps):
        if not instance.status.is_active:
            break
        activated = instance.activated_activities()
        if not activated:
            break
        activity = rng.choice(activated)
        outputs = engine.outputs_for(instance, activity)
        for key in sorted(outputs):
            if isinstance(outputs[key], bool):
                outputs[key] = rng.random() < 0.7
        engine.complete_activity(instance, activity, outputs)
        yield activity


@RELAXED
@given(schema=random_schemas(), seed=st.integers(min_value=0, max_value=10_000))
def test_every_step_ends_settled_at_a_fixpoint(schema, seed):
    """Stepping — including loop resets — ends every step at a fixpoint."""
    engine = ProcessEngine()
    kernel = schema.index.step_kernel()
    instance = engine.create_instance(schema, "prop")
    assert instance.marking.settled and instance.marking.layout is kernel.layout
    for _ in _step_randomly(engine, instance, random.Random(seed), steps=40):
        assert instance.marking.settled and instance.marking.layout is kernel.layout
        # a fixpoint: no untouched node's entry decision is anything but "wait"
        edges = instance.marking.edges
        assert not any(
            kernel.deciders[p](edges) for p, code in enumerate(instance.marking.nodes) if not code
        )


@RELAXED
@given(schema=random_schemas(), seed=st.integers(min_value=0, max_value=10_000))
def test_kernel_and_oracle_agree_across_an_adhoc_change(schema, seed):
    """An ad-hoc change swaps schema and marking mid-run; both keep stepping alike."""

    def run(engine):
        rng = random.Random(seed)
        instance = engine.create_instance(schema, "prop")
        trace = list(_step_randomly(engine, instance, rng, steps=3))
        if not instance.status.is_active:
            return trace, observed(engine, [instance])
        execution_schema = instance.execution_schema
        activity_edges = [
            edge
            for edge in execution_schema.edges
            if edge.edge_type is EdgeType.CONTROL
            and execution_schema.node(edge.source).is_activity
            and execution_schema.node(edge.target).is_activity
        ]
        rng.shuffle(activity_edges)
        for edge in activity_edges:
            try:
                AdHocChanger().apply(
                    instance,
                    [
                        SerialInsertActivity(
                            activity=Node(node_id="grafted"),
                            pred=edge.source,
                            succ=edge.target,
                        )
                    ],
                )
                break
            except AdHocChangeError:
                continue
        trace += list(_step_randomly(engine, instance, rng, steps=40))
        return trace, observed(engine, [instance])

    assert run(recording(ProcessEngine())) == run(recording(ScanOracle()))


@RELAXED
@given(schema=random_schemas(), seed=st.integers(min_value=0, max_value=10_000))
def test_kernel_and_oracle_stepping_agree(schema, seed):
    """Same random schedule → identical traces, instance states and events."""

    def run(engine):
        instance = engine.create_instance(schema, "prop")
        trace = list(_step_randomly(engine, instance, random.Random(seed), steps=60))
        return trace, observed(engine, [instance])

    assert run(recording(ProcessEngine())) == run(recording(ScanOracle()))


def _parallel_then_loop(branches: int, iterations: int):
    """``branches`` parallel activities, then a loop of ``iterations`` at most.

    The parallel block keeps the control-flow depth well below the node
    count, so a bound above the floor depends on the depth itself.
    """
    builder = SchemaBuilder("wide_loop", name="wide_loop")
    builder.data("done", DataType.BOOLEAN, default=False)
    builder.parallel([lambda seq, i=i: seq.activity(f"p{i}") for i in range(branches)])
    builder.loop(
        lambda seq: seq.activity("body", writes=["done"]),
        condition="not done",
        max_iterations=iterations,
    )
    return builder.build()


@RELAXED
@given(
    schema=random_schemas(),
    branches=st.integers(min_value=2, max_value=12),
    iterations=st.integers(min_value=1, max_value=5000),
)
def test_round_bound_is_the_unconditional_formula(schema, branches, iterations):
    """Skipping the depth pass where the bound is the floor never changes the bound.

    Random schemas stay at the floor; a loop with a drawn budget crosses it.
    """
    for each in (schema, _parallel_then_loop(branches, iterations)):
        index = each.index
        expected = derive_round_bound(
            len(index.node_ids), _control_depth(index), _loop_budget(index.loop_edges(), index)
        )
        assert index.step_kernel().round_bound == expected
