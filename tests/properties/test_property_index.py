"""Property-based coherence tests for the compiled SchemaIndex.

The central invariant of the index layer: for ANY schema, after ANY
sequence of structural mutations, every index answer is identical to a
fresh recomputation by brute-force edge-list scans.  The mutation
sequences cover add/remove node, add/remove control and sync edges and
data-flow edits, plus the two real mutation paths of the system —
ad-hoc instance change and type evolution.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.adhoc import AdHocChanger
from repro.core.evolution import ProcessType, TypeChange
from repro.core.operations import SerialInsertActivity
from repro.runtime.engine import ProcessEngine
from repro.schema.edges import Edge, EdgeType
from repro.schema.graph import ProcessSchema, SchemaError
from repro.schema.nodes import Node, NodeType

from tests.baselines import brute_force as bf

from .strategies import random_schemas

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _scan_snapshot(schema: ProcessSchema):
    """All structural answers recomputed from scratch by edge scans."""
    snapshot = {}
    for key, variant in (("topo_both", True), ("topo_control", False)):
        try:
            snapshot[key] = bf.topological_order(schema, include_sync=variant)
        except SchemaError as exc:
            snapshot[key] = ("error", str(exc))
    for node_id in schema.nodes:
        snapshot[("succ", node_id)] = {
            edge_type: bf.successors(schema, node_id, edge_type) for edge_type in EdgeType
        }
        snapshot[("pred", node_id)] = {
            edge_type: bf.predecessors(schema, node_id, edge_type) for edge_type in EdgeType
        }
        snapshot[("reach+", node_id)] = bf.reach(schema, node_id, forward=True, include_sync=True)
        snapshot[("reach-", node_id)] = bf.reach(schema, node_id, forward=False, include_sync=False)
        snapshot[("reads", node_id)] = [d.key for d in bf.reads_of(schema, node_id)]
        snapshot[("writes", node_id)] = [d.key for d in bf.writes_of(schema, node_id)]
    for element in schema.data_elements:
        snapshot[("writers", element)] = bf.writers_of(schema, element)
        snapshot[("readers", element)] = bf.readers_of(schema, element)
    return snapshot


def _index_snapshot(schema: ProcessSchema):
    """The same answers, taken from the compiled index."""
    index = schema.index
    snapshot = {}
    for key, variant in (("topo_both", True), ("topo_control", False)):
        try:
            snapshot[key] = index.topological_order(include_sync=variant)
        except SchemaError as exc:
            snapshot[key] = ("error", str(exc))
    for node_id in schema.node_ids():
        snapshot[("succ", node_id)] = {
            edge_type: index.successors(node_id, edge_type) for edge_type in EdgeType
        }
        snapshot[("pred", node_id)] = {
            edge_type: index.predecessors(node_id, edge_type) for edge_type in EdgeType
        }
        snapshot[("reach+", node_id)] = set(index.transitive_successors(node_id, include_sync=True))
        snapshot[("reach-", node_id)] = set(
            index.transitive_predecessors(node_id, include_sync=False)
        )
        snapshot[("reads", node_id)] = [d.key for d in index.reads_of(node_id)]
        snapshot[("writes", node_id)] = [d.key for d in index.writes_of(node_id)]
    for element in schema.data_elements:
        snapshot[("writers", element)] = index.writers_of(element)
        snapshot[("readers", element)] = index.readers_of(element)
    return snapshot


def _apply_random_mutations(schema: ProcessSchema, moves, check_each=None):
    """Apply a random but always-legal mutation sequence to ``schema``."""
    counter = 0
    for move in moves:
        node_ids = schema.node_ids()
        activities = [n for n in node_ids if schema.node(n).is_activity]
        kind = move % 5
        if kind == 0:
            # append a fresh activity wired off an existing node by a sync edge
            counter += 1
            new_id = f"mut_{counter}"
            schema.add_node(Node(new_id, NodeType.ACTIVITY))
            anchor = activities[move % len(activities)] if activities else node_ids[0]
            if anchor != new_id:
                schema.add_edge(Edge(anchor, new_id, EdgeType.SYNC))
        elif kind == 1 and len(activities) >= 2:
            # add a sync edge between two activities (if not already present)
            source = activities[move % len(activities)]
            target = activities[(move // 5) % len(activities)]
            if source != target and not schema.has_edge(source, target, EdgeType.SYNC):
                schema.add_edge(Edge(source, target, EdgeType.SYNC))
        elif kind == 2:
            # remove one previously added sync edge, if any exist
            added = [e for e in schema.sync_edges() if e.source.startswith("mut_") or e.target.startswith("mut_")]
            if added:
                edge = added[move % len(added)]
                schema.remove_edge(edge.source, edge.target, EdgeType.SYNC)
        elif kind == 3:
            # remove one previously added activity (and its edges), if any
            added = [n for n in node_ids if n.startswith("mut_")]
            if added:
                schema.remove_node(added[move % len(added)])
        else:
            # rename an activity in place (replace_node keeps the id)
            if activities:
                node = schema.node(activities[move % len(activities)])
                schema.replace_node(Node(node.node_id, node.node_type, name=f"renamed_{move}"))
        if check_each is not None:
            check_each(schema)


class TestIndexCoherence:
    @RELAXED
    @given(
        schema=random_schemas(min_activities=3, max_activities=10),
        moves=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=12),
    )
    def test_index_matches_fresh_recomputation_under_mutations(self, schema, moves):
        """After every mutation the lazily rebuilt index equals fresh scans."""

        def check(current):
            assert _index_snapshot(current) == _scan_snapshot(current)

        check(schema)
        _apply_random_mutations(schema, moves, check_each=check)

    @RELAXED
    @given(schema=random_schemas(min_activities=3, max_activities=8))
    def test_index_invalidates_after_adhoc_change(self, schema):
        """An ad-hoc change produces an execution schema whose index is coherent."""
        engine = ProcessEngine()
        instance = engine.create_instance(schema, "adhoc-prop")
        # insert into the last control edge of the schema (always exists)
        edge = schema.control_edges()[-1]
        operation = SerialInsertActivity(
            activity=Node(node_id="adhoc_inserted"), pred=edge.source, succ=edge.target
        )
        changer = AdHocChanger(engine)
        result = changer.try_apply(instance, [operation])
        if result is None:
            return
        execution = instance.execution_schema
        assert execution.has_node("adhoc_inserted")
        assert _index_snapshot(execution) == _scan_snapshot(execution)
        # the type schema itself is untouched and keeps its compiled index
        assert not schema.index.has_node("adhoc_inserted")

    @RELAXED
    @given(schema=random_schemas(min_activities=3, max_activities=8))
    def test_index_invalidates_after_evolution(self, schema):
        """A released type version carries a fresh, coherent index."""
        process_type = ProcessType(schema.name, schema)
        edge = schema.control_edges()[0]
        change = TypeChange.of(
            1,
            [
                SerialInsertActivity(
                    activity=Node(node_id="evolved_inserted"), pred=edge.source, succ=edge.target
                )
            ],
        )
        try:
            new_schema = process_type.release_new_version(change)
        except Exception:
            return
        assert new_schema.index.has_node("evolved_inserted")
        assert _index_snapshot(new_schema) == _scan_snapshot(new_schema)
        assert not schema.index.has_node("evolved_inserted")
