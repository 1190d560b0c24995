"""Property-based coherence tests for the compiled stepping kernel.

The dense marking view is a positional mirror of the marking dicts; the
invariant is that after ANY execution (including loop resets) and ANY
structural mutation (ad-hoc change, marking-level grafts) the view either
matches the dicts cell for cell or flags itself stale/unaligned so the
engine falls back to the dict path.  A second property pins the compiled
kernel to the scan oracle (``tests/baselines``) over random schemas.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.adhoc import AdHocChangeError, AdHocChanger
from repro.core.operations import SerialInsertActivity
from repro.runtime.engine import ProcessEngine
from repro.runtime.kernel import EDGE_CODE
from repro.runtime.states import NodeState
from repro.schema.edges import EdgeType
from repro.schema.nodes import Node

from tests.baselines.scan_oracle import ScanOracle, observed

from .strategies import random_schemas

pytestmark = pytest.mark.kernel

RELAXED = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _assert_coherent(marking, layout):
    """The dense view mirrors the dict representation cell for cell."""
    view = marking.dense_view(layout)
    assert not view.stale
    for position, node_id in enumerate(layout.node_ids):
        state = marking.node_state(node_id)
        assert view.untouched[position] == (1 if state is NodeState.NOT_ACTIVATED else 0)
        assert view.activated[position] == (1 if state is NodeState.ACTIVATED else 0)
    for position, key in enumerate(layout.edge_keys):
        assert view.edge_values[position] == EDGE_CODE[marking.edge_state_key(key)]


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
def test_dense_view_stays_coherent_under_random_execution(schema, seed):
    """Stepping — including loop resets — keeps the dense view in sync."""
    rng = random.Random(seed)
    engine = ProcessEngine()
    layout = schema.index.step_kernel().layout
    instance = engine.create_instance(schema, "prop")
    _assert_coherent(instance.marking, layout)
    for _ in _step_randomly(engine, instance, rng, steps=40):
        _assert_coherent(instance.marking, layout)


@RELAXED
@given(schema=random_schemas(), seed=st.integers(min_value=0, max_value=10_000))
def test_dense_view_survives_structural_mutation(schema, seed):
    """Ad-hoc change invalidates the view; the rebuild is coherent again."""
    rng = random.Random(seed)
    engine = ProcessEngine()
    changer = AdHocChanger(engine)
    instance = engine.create_instance(schema, "prop")
    list(_step_randomly(engine, instance, rng, steps=3))
    if not instance.status.is_active:
        return
    activity_edges = [
        edge
        for edge in instance.execution_schema.edges
        if edge.edge_type is EdgeType.CONTROL
        and instance.execution_schema.node(edge.source).is_activity
        and instance.execution_schema.node(edge.target).is_activity
    ]
    rng.shuffle(activity_edges)
    for edge in activity_edges:
        try:
            changer.apply(
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
    layout = instance.execution_schema.index.step_kernel().layout
    _assert_coherent(instance.marking, layout)
    for _ in _step_randomly(engine, instance, rng, steps=40):
        _assert_coherent(instance.marking, layout)


@RELAXED
@given(schema=random_schemas(), seed=st.integers(min_value=0, max_value=10_000))
def test_kernel_and_oracle_stepping_agree(schema, seed):
    """Same random schedule → identical traces, instance states and events."""

    def run(engine):
        instance = engine.create_instance(schema, "prop")
        trace = list(_step_randomly(engine, instance, random.Random(seed), steps=60))
        return trace, observed(engine, [instance])

    assert run(ProcessEngine()) == run(ScanOracle())
