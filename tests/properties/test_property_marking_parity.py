"""The array marking against the dict reference, operation by operation.

``repro.runtime.markings.Marking`` is two byte arrays on a layout;
``tests/baselines/dict_marking.DictMarking`` is the two dicts it replaced.
Both are driven through the same random sequences — writes by name, loop
resets, copies — on random schemas with loops, starting from a randomly
executed case, and must give equal answers (in equal order) and equal
stored bytes in all three stored forms: positional, keyed with sorted keys
(what a format-1 store or a JSON snapshot holds) and the keyed form of a
biased case laid onto its re-materialised execution schema.

This suite replaces the tests of the dense mirror (coherence, staleness,
alignment): with one representation there is nothing to keep coherent, so
what is left to prove is that the one representation says what the plain
dicts would.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.adhoc import AdHocChangeError, AdHocChanger
from repro.core.operations import SerialInsertActivity
from repro.runtime.engine import ProcessEngine
from repro.runtime.markings import Marking
from repro.runtime.states import EdgeState, NodeState
from repro.schema.edges import EdgeType
from repro.schema.nodes import Node
from repro.workloads.schema_generator import RandomSchemaGenerator, SchemaGeneratorConfig

from tests.baselines.dict_marking import DictMarking

pytestmark = pytest.mark.kernel

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

NODE_STATES = list(NodeState)
EDGE_STATES = list(EdgeState)
STATE_SETS = [
    (NodeState.ACTIVATED,),
    (NodeState.RUNNING, NodeState.SUSPENDED),
    (NodeState.COMPLETED, NodeState.SKIPPED, NodeState.NOT_ACTIVATED),
]


@st.composite
def looping_schemas(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    config = SchemaGeneratorConfig(
        target_activities=draw(st.integers(min_value=4, max_value=14)),
        parallel_probability=draw(st.floats(min_value=0.0, max_value=0.3)),
        conditional_probability=draw(st.floats(min_value=0.0, max_value=0.3)),
        loop_probability=draw(st.floats(min_value=0.2, max_value=0.5)),
        max_depth=draw(st.integers(min_value=1, max_value=3)),
    )
    return RandomSchemaGenerator(config, seed=seed).generate(f"marks_{seed}")


operations = st.lists(
    st.one_of(
        st.tuples(st.just("node"), st.integers(0, 10_000), st.sampled_from(NODE_STATES)),
        st.tuples(st.just("edge"), st.integers(0, 10_000), st.sampled_from(EDGE_STATES)),
        st.tuples(st.just("edge_by_ends"), st.integers(0, 10_000), st.sampled_from(EDGE_STATES)),
        st.tuples(st.just("reset_loop"), st.integers(0, 10_000), st.none()),
        st.tuples(st.just("copy"), st.integers(0, 10_000), st.sampled_from(NODE_STATES)),
    ),
    max_size=25,
)


def as_bytes(payload):
    return json.dumps(payload, sort_keys=True).encode("ascii")


def sorted_keys(payload):
    """Through JSON with sorted keys — the order a snapshot file gives back."""
    return json.loads(json.dumps(payload, sort_keys=True))


def dict_twin(marking):
    return DictMarking(marking.node_states, marking.edge_states)


def assert_same_answers(array, reference, layout):
    """Every read of the name-based API, answer for answer and in order."""
    assert list(array.node_states.items()) == [
        (node_id, reference.node_state(node_id)) for node_id in layout.node_ids
    ]
    assert list(array.edge_states.items()) == [
        (key, reference.edge_state_key(key)) for key in layout.edge_keys
    ]
    for node_id in layout.node_ids:
        assert array.node_state(node_id) is reference.node_state(node_id)
    for key in layout.edge_keys:
        assert array.edge_state_key(key) is reference.edge_state_key(key)
        assert array.edge_state(key[0], key[1], EdgeType(key[2])) is reference.edge_state_key(key)
    assert array.node_state("no such node") is NodeState.NOT_ACTIVATED
    assert array.edge_state("no", "such edge") is EdgeState.NOT_SIGNALED
    for states in STATE_SETS:
        assert array.nodes_in_state(*states) == reference.nodes_in_state(*states)
    assert array.activated_nodes() == reference.activated_nodes()
    assert array.running_nodes() == reference.running_nodes()
    assert array.completed_nodes() == reference.completed_nodes()
    assert array.started_nodes() == reference.started_nodes()
    assert array.to_dict() == reference.to_dict()
    assert as_bytes(array.to_dict()) == as_bytes(reference.to_dict())


def assert_same_stored_forms(array, reference, layout):
    """to_stored -> from_stored in the positional and the sorted keyed form."""
    positional = array.to_stored(layout)
    assert positional == reference.to_stored(layout)
    assert as_bytes(positional) == as_bytes(reference.to_stored(layout))
    assert set(positional) == {"layout", "nodes", "edges"}
    assert array.to_stored(None) == reference.to_stored(None) == reference.to_dict()
    keyed = sorted_keys(reference.to_dict())  # a format-1 record: names, keys sorted
    for payload in (positional, sorted_keys(positional), keyed):
        restored = Marking.from_stored(payload, layout)
        twin = DictMarking.from_stored(payload, layout)
        assert_same_answers(restored, twin, layout)
        assert restored.differences(array) == [] and restored.equivalent_to(array)
        assert restored.to_stored(layout) == positional
        assert not restored.settled
        # the key classifies records written before and after the positional form together
        assert Marking.stored_key(payload, layout) == DictMarking.stored_key(payload, layout)
        assert Marking.stored_key(payload, layout) == Marking.stored_key(positional)
    assert Marking.stored_key(keyed) == DictMarking.stored_key(keyed)
    # the write-back's hint survives in either form and is no part of the key
    for payload in (positional, keyed):
        hinted = dict(payload, fix=1)
        assert Marking.from_stored(hinted, layout).settled
        assert Marking.stored_key(hinted, layout) == Marking.stored_key(payload, layout)


def assert_same_refusals(positional, layout, other_layout):
    """What one class refuses to decode the other refuses too (ValueError)."""
    nodes, edges = positional["nodes"], positional["edges"]
    bad_payloads = [
        dict(positional, layout="00000000"),
        dict(positional, nodes=nodes[:-1]),
        dict(positional, nodes=nodes + "0"),
        dict(positional, edges=edges + "0"),
        dict(positional, nodes="7" + nodes[1:]),
        dict(positional, nodes="x" + nodes[1:]),
        dict(positional, nodes="é" + nodes[1:]),
    ]
    if edges:
        bad_payloads.append(dict(positional, edges=edges[:-1] + "3"))
    for payload in bad_payloads:
        for cls in (Marking, DictMarking):
            with pytest.raises(ValueError):
                cls.from_stored(payload, layout)
    if other_layout.checksum != layout.checksum:
        for cls in (Marking, DictMarking):
            with pytest.raises(ValueError, match="stored against layout"):
                cls.from_stored(positional, other_layout)


@RELAXED
@given(data=st.data(), schema=looping_schemas(), ops=operations)
def test_array_and_dict_markings_agree(data, schema, ops):
    engine = ProcessEngine()
    instance = engine.create_instance(schema, "marks")
    engine.advance_instance(instance, data.draw(st.integers(0, len(schema.activity_ids()))))
    layout = schema.index.marking_layout()
    index = schema.index
    loop_starts = sorted(edge.target for edge in schema.loop_edges())

    array = instance.marking
    reference = dict_twin(array)
    assert array.layout is layout
    assert array.settled  # the engine left it at a fixpoint
    untouched, untouched_reference = Marking.initial(schema), DictMarking.initial(schema)
    assert_same_answers(untouched, untouched_reference, layout)
    assert_same_answers(array, reference, layout)

    for kind, pick, state in ops:
        if kind == "node":
            node_id = layout.node_ids[pick % len(layout.node_ids)]
            array.settled = True
            array.set_node_state(node_id, state)
            reference.set_node_state(node_id, state)
            # only a reset re-arms an entry decision
            assert array.settled == (state is not NodeState.NOT_ACTIVATED)
        elif kind == "edge" and layout.edge_keys:
            key = layout.edge_keys[pick % len(layout.edge_keys)]
            array.settled = True
            array.set_edge_state_key(key, state)
            reference.set_edge_state_key(key, state)
            assert not array.settled
        elif kind == "edge_by_ends" and layout.edge_keys:
            source, target, edge_type = layout.edge_keys[pick % len(layout.edge_keys)]
            array.set_edge_state(source, target, state, EdgeType(edge_type))
            reference.set_edge_state(source, target, state, EdgeType(edge_type))
        elif kind == "reset_loop" and loop_starts:
            loop_start = loop_starts[pick % len(loop_starts)]
            array.settled = True
            for node_id in sorted(set(index.loop_body(loop_start)) | {loop_start}):
                array.set_node_state(node_id, NodeState.NOT_ACTIVATED)
                reference.set_node_state(node_id, NodeState.NOT_ACTIVATED)
            for edge in index.loop_internal_edges(loop_start):
                array.set_edge_state_key(edge.key, EdgeState.NOT_SIGNALED)
                reference.set_edge_state_key(edge.key, EdgeState.NOT_SIGNALED)
            assert not array.settled  # the body must be re-decided
        elif kind == "copy":
            array.settled = bool(pick % 2)
            original, original_reference = array, reference
            array, reference = array.copy(), reference.copy()
            assert array.layout is layout
            assert array.settled == original.settled  # a copy is as settled as its source
            # independent of what it was copied from
            node_id = layout.node_ids[pick % len(layout.node_ids)]
            original.set_node_state(node_id, state)
            original_reference.set_node_state(node_id, state)
            assert_same_answers(original, original_reference, layout)
        assert_same_answers(array, reference, layout)
        assert array.differences(untouched) == reference.differences(untouched_reference)
        assert untouched.differences(array) == untouched_reference.differences(reference)

    assert_same_stored_forms(array, reference, layout)
    other = ProcessEngine().create_instance(
        RandomSchemaGenerator(seed=7).generate("another_schema"), "other"
    )
    assert_same_refusals(array.to_stored(layout), layout, other.marking.layout)
    with pytest.raises(KeyError):  # a layout does not grow
        array.set_node_state("no such node", NodeState.ACTIVATED)
    with pytest.raises(KeyError):
        array.set_edge_state("no", "such edge", EdgeState.TRUE_SIGNALED)


@RELAXED
@given(data=st.data(), schema=looping_schemas())
def test_biased_keyed_form_lands_on_the_rematerialised_schema(data, schema):
    """A biased case stores names; loading lays them onto an execution schema
    that was re-materialised in another element order."""
    engine = ProcessEngine()
    instance = engine.create_instance(schema, "biased")
    engine.advance_instance(instance, data.draw(st.integers(0, 3)))
    pairs = [
        (edge.source, edge.target)
        for edge in schema.edges
        if edge.edge_type is EdgeType.CONTROL
        and schema.node(edge.source).is_activity
        and schema.node(edge.target).is_activity
    ]
    for pred, succ in data.draw(st.permutations(pairs)):
        try:
            AdHocChanger(engine).apply(
                instance,
                [SerialInsertActivity(activity=Node(node_id="grafted"), pred=pred, succ=succ)],
            )
            break
        except AdHocChangeError:
            continue
    else:
        return  # no activity pair accepts the insertion in this state
    engine.advance_instance(instance, data.draw(st.integers(0, 2)))
    array = instance.marking
    lived_on = instance.execution_schema.index.marking_layout()
    reference = dict_twin(array)
    assert_same_answers(array, reference, lived_on)

    stored = sorted_keys(array.to_stored(None))
    assert stored == sorted_keys(reference.to_stored(None))
    reloaded_schema = instance.bias.apply_to(schema, check=False)
    rematerialised = reloaded_schema.index.marking_layout()
    restored = Marking.from_stored(stored, rematerialised)
    twin = DictMarking.from_stored(stored, rematerialised)
    assert restored.layout is rematerialised
    assert_same_answers(restored, twin, rematerialised)
    assert restored.differences(array) == []
    assert as_bytes(restored.to_stored(None)) == as_bytes(array.to_stored(None))
    # against the type schema's layout the same payload names a node it lacks
    with pytest.raises(ValueError):
        Marking.from_stored(stored, schema.index.marking_layout())
