"""Ablation A1: compliance stays decidable however often a loop iterated.

The per-operation conditions look only at the current marking; the
relaxed trace-replay criterion replays the *reduced* history, dropping
superseded loop iterations, so it "works correctly in connection with
loop backs".  Every check accepts a change behind the loop, for any
number of iterations.  Nothing here measures time.
"""

import pytest

from repro.core.changelog import ChangeLog
from repro.core.compliance import ComplianceChecker
from repro.core.operations import SerialInsertActivity
from repro.paper.replay import check_by_replay
from repro.runtime.engine import ProcessEngine
from repro.schema.nodes import Node
from repro.schema.templates import loop_process

ITERATION_COUNTS = (1, 8, 32, 128)


def looping_instance(iterations):
    """A loop-process case that has gone through ``iterations`` loop passes."""
    schema = loop_process(body_length=3, max_iterations=iterations + 1)
    engine = ProcessEngine()
    instance = engine.create_instance(schema, f"loop-{iterations}")
    engine.complete_activity(instance, "prepare")
    remaining = iterations
    # drive the loop but stop before the final activity completes the case
    while instance.status.is_active and remaining > 0:
        activity = engine.activated_activities(instance)[0]
        outputs = {}
        if activity == "body_3":
            remaining -= 1
            outputs = {"done": remaining <= 0}
        engine.complete_activity(instance, activity, outputs=outputs)
    return schema, instance


def change_for(schema):
    """Insert an activity right before the final 'finish' step."""
    pred = schema.predecessors("finish")[0]
    return ChangeLog(
        [SerialInsertActivity(activity=Node(node_id="audit"), pred=pred, succ="finish")]
    )


@pytest.mark.parametrize("iterations", ITERATION_COUNTS)
def test_conditions_cost_constant_in_history(iterations):
    schema, instance = looping_instance(iterations)
    assert ComplianceChecker().check_with_conditions(instance, change_for(schema)).compliant


@pytest.mark.parametrize("iterations", ITERATION_COUNTS)
def test_replay_cost_grows_with_history(iterations):
    schema, instance = looping_instance(iterations)
    target = change_for(schema).apply_to(schema)
    assert check_by_replay(instance, target).compliant


def test_summarise_cost_curve():
    """Reduced and full replay both accept; only the reduced history
    stays bounded once the loop has iterated."""
    for iterations in ITERATION_COUNTS:
        schema, instance = looping_instance(iterations)
        target = change_for(schema).apply_to(schema)
        assert check_by_replay(instance, target).compliant
        assert check_by_replay(instance, target, reduced=False).compliant
        reduced, full = len(instance.history.reduced()), len(instance.history.entries)
        assert reduced == full if iterations == 1 else reduced < full
