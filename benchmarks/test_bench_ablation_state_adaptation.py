"""Ablation A2: incremental state adaptation vs. full history replay.

After a compliant case migrates, its marking is adapted to the new
schema.  ADEPT2's incremental procedure and the baseline that replays
the reduced history from scratch must produce identical activity
states.  Nothing here measures time.
"""

import pytest

from repro.core.operations import SerialInsertActivity
from repro.core.state_adaptation import StateAdapter
from repro.paper.replay import recompute_by_replay
from repro.runtime.engine import ProcessEngine
from repro.schema.nodes import Node
from repro.schema.templates import sequential_process

SCHEMA_SIZES = (10, 30, 60)


def prepared_instance(length):
    """A sequential case at 60% progress and a schema with an activity
    inserted right before the end, so the case stays compliant."""
    schema = sequential_process(length=length, schema_id=f"seq_{length}")
    engine = ProcessEngine()
    instance = engine.create_instance(schema, f"seq-inst-{length}")
    engine.advance_instance(instance, int(length * 0.6))
    target = schema.copy()
    SerialInsertActivity(
        activity=Node(node_id="audit"), pred=f"step_{length}", succ="end"
    ).apply_checked(target)
    return instance, target


@pytest.mark.parametrize("length", SCHEMA_SIZES)
def test_incremental_adaptation(length):
    instance, target = prepared_instance(length)
    assert StateAdapter().adapt(instance, target).completed_nodes()


@pytest.mark.parametrize("length", SCHEMA_SIZES)
def test_replay_adaptation(length):
    instance, target = prepared_instance(length)
    assert recompute_by_replay(instance, target).completed_nodes()


def test_adaptation_equivalence_and_speedup():
    """Both procedures agree on every activity state."""
    adapter = StateAdapter()
    for length in SCHEMA_SIZES:
        instance, target = prepared_instance(length)
        incremental = adapter.adapt(instance, target)
        replayed = recompute_by_replay(instance, target)
        for activity in target.activity_ids():
            assert incremental.node_state(activity) is replayed.node_state(activity)
