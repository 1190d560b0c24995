"""The positional state adaptation equals the name-based reference.

``StateAdapter.adapt`` lays a case's marking onto the target layout by
position, resets only the region the change took the justification from
and propagates from there — compiling the target's step kernel only when
a reset node can fire.  Its reference is the name-based procedure it
replaced (``tests/baselines/reference_adaptation.py``): carry over,
reset every derived state, one full propagation pass on a scratch
instance.  Whenever the reference returns, both must give byte-identical
node codes, edge codes and fixpoint flag, on the same layout — for
compliant and non-compliant cases alike.  The one intended difference —
the reference re-takes an XOR decision behind a join with a skipped
branch on the case's *current* data — is pinned in
``tests/core/test_state_adaptation.py::TestTakenDecisionsStay``; a draw
reaches it only through a bias whose new activity rewrites a guard's
data after the split it guards.

A case is a random verified schema (XOR blocks, loops; sync edges come
with the drawn change logs) stepped through a random prefix with random
boolean outputs (so XOR guards and loop conditions vary), optionally
changed ad hoc midway (its source is then a biased execution schema),
then met by a random 1–4-operation log applied with
``apply_to(check=True)`` (bias and log keep the operations the check
accepts).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.adhoc import AdHocChangeError, AdHocChanger
from repro.core.changelog import ChangeLog
from repro.core.operations import OperationError
from repro.core.state_adaptation import StateAdapter
from repro.runtime.engine import EngineError, ProcessEngine
from repro.schema.graph import SchemaError

from tests.baselines.reference_adaptation import ReferenceAdapter

from .strategies import draw_change_log, random_schemas

TIER1 = settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
STRESS = settings(
    max_examples=3000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _step(engine, instance, rng, steps):
    """Complete up to ``steps`` activated activities, booleans drawn at random."""
    for _ in range(steps):
        if not instance.status.is_active:
            return
        activated = instance.activated_activities()
        if not activated:
            return
        activity = rng.choice(activated)
        outputs = engine.outputs_for(instance, activity)
        for key in sorted(outputs):
            if isinstance(outputs[key], bool):
                outputs[key] = rng.random() < 0.7
        engine.complete_activity(instance, activity, outputs)


def _accepted(log: ChangeLog, schema) -> ChangeLog:
    """The operations of ``log`` that ``apply_to(check=True)`` accepts, in order."""
    kept: list = []
    for operation in log:
        try:
            ChangeLog(kept + [operation]).apply_to(schema, check=True)
        except (OperationError, SchemaError):
            continue
        kept.append(operation)
    return ChangeLog(kept)


def draw_adaptation(data, biased: bool):
    """``(case, target schema)`` for one adaptation, or None when no operation is accepted."""
    schema = data.draw(random_schemas(min_activities=3, max_activities=14), label="schema")
    rng = random.Random(data.draw(st.integers(0, 10_000), label="schedule"))
    engine = ProcessEngine()
    instance = engine.create_instance(schema, "prop")
    total = len(schema.activity_ids())
    _step(engine, instance, rng, data.draw(st.integers(0, total), label="prefix"))
    if biased:
        bias = _accepted(draw_change_log(data, instance.execution_schema), instance.execution_schema)
        try:
            AdHocChanger().apply(instance, bias)
        except AdHocChangeError:
            pass  # not compliant (or empty): the source stays the type schema
        _step(engine, instance, rng, data.draw(st.integers(0, total), label="after bias"))
    log = _accepted(draw_change_log(data, instance.execution_schema), instance.execution_schema)
    if not log:
        return None
    return instance, log.apply_to(instance.execution_schema, check=True)


def check_parity(drawn) -> None:
    if drawn is None:
        return
    instance, target = drawn
    try:
        expected = ReferenceAdapter().adapt(instance, target)
    except EngineError:
        return  # the reference does not return: nothing to agree with
    before = (instance.marking.nodes[:], instance.marking.edges[:], instance.marking.settled)
    actual = StateAdapter().adapt(instance, target)
    assert actual.layout is expected.layout
    assert (actual.nodes, actual.edges) == (expected.nodes, expected.edges), (
        actual.differences(expected)
    )
    assert actual.settled == expected.settled
    # adaptation reads the case, never writes it
    assert (instance.marking.nodes, instance.marking.edges, instance.marking.settled) == before


class TestAdaptationParity:
    @pytest.mark.kernel
    @TIER1
    @given(data=st.data())
    def test_type_schema_source(self, data):
        check_parity(draw_adaptation(data, biased=False))

    @pytest.mark.kernel
    @TIER1
    @given(data=st.data())
    def test_biased_source(self, data):
        check_parity(draw_adaptation(data, biased=True))

    @pytest.mark.stress
    @STRESS
    @given(data=st.data(), biased=st.booleans())
    def test_parity_stress(self, data, biased):
        check_parity(draw_adaptation(data, biased))
