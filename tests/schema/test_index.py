"""Unit tests for the compiled :class:`SchemaIndex` layer.

Every answer of the index must be identical to the brute-force
edge-list scans of :mod:`tests.baselines.brute_force`, and the
generation counter must invalidate the compiled structures after every
kind of structural mutation.
"""

import pytest

from repro.schema.data import DataAccess, DataEdge, DataElement, DataType
from repro.schema.edges import Edge, EdgeType, control_edge, sync_edge
from repro.schema.graph import ProcessSchema, SchemaError
from repro.schema.index import SchemaIndex
from repro.schema.nodes import Node, NodeType
from repro.schema.templates import loop_process, online_order_process

from tests.baselines import brute_force as bf


def scan_answers(schema):
    """Structural answers computed by brute-force edge-list scans."""
    answers = {
        "topo_both": bf.topological_order(schema, include_sync=True),
        "topo_control": bf.topological_order(schema, include_sync=False),
        "start": bf.start_node_id(schema),
        "end": bf.end_node_id(schema),
    }
    for node_id in schema.nodes:
        answers[("out", node_id)] = [e.key for e in bf.edges_from(schema, node_id)]
        answers[("in", node_id)] = [e.key for e in bf.edges_to(schema, node_id)]
        for edge_type in EdgeType:
            answers[("succ", node_id, edge_type)] = bf.successors(schema, node_id, edge_type)
            answers[("pred", node_id, edge_type)] = bf.predecessors(schema, node_id, edge_type)
        for include_sync in (False, True):
            answers[("reach+", node_id, include_sync)] = bf.reach(
                schema, node_id, forward=True, include_sync=include_sync
            )
            answers[("reach-", node_id, include_sync)] = bf.reach(
                schema, node_id, forward=False, include_sync=include_sync
            )
        answers[("dedges", node_id)] = [d.key for d in bf.data_edges_of(schema, node_id)]
        answers[("reads", node_id)] = [d.key for d in bf.reads_of(schema, node_id)]
        answers[("writes", node_id)] = [d.key for d in bf.writes_of(schema, node_id)]
    for element in schema.data_elements:
        answers[("writers", element)] = bf.writers_of(schema, element)
        answers[("readers", element)] = bf.readers_of(schema, element)
    return answers


def assert_index_matches_scans(schema):
    index = schema.index
    expected = scan_answers(schema)
    assert index.topological_order(include_sync=True) == expected["topo_both"]
    assert index.topological_order(include_sync=False) == expected["topo_control"]
    assert index.start_node_id() == expected["start"]
    assert index.end_node_id() == expected["end"]
    for node_id in schema.node_ids():
        assert [e.key for e in index.edges_from(node_id)] == expected[("out", node_id)]
        assert [e.key for e in index.edges_to(node_id)] == expected[("in", node_id)]
        for edge_type in EdgeType:
            assert index.successors(node_id, edge_type) == expected[("succ", node_id, edge_type)]
            assert index.predecessors(node_id, edge_type) == expected[("pred", node_id, edge_type)]
        for include_sync in (False, True):
            assert set(index.transitive_successors(node_id, include_sync)) == expected[
                ("reach+", node_id, include_sync)
            ]
            assert set(index.transitive_predecessors(node_id, include_sync)) == expected[
                ("reach-", node_id, include_sync)
            ]
        assert [d.key for d in index.data_edges_of(node_id)] == expected[("dedges", node_id)]
        assert [d.key for d in index.reads_of(node_id)] == expected[("reads", node_id)]
        assert [d.key for d in index.writes_of(node_id)] == expected[("writes", node_id)]
    for element in schema.data_elements:
        assert index.writers_of(element) == expected[("writers", element)]
        assert index.readers_of(element) == expected[("readers", element)]


class TestIndexAnswers:
    def test_matches_scans_on_order_process(self):
        assert_index_matches_scans(online_order_process())

    def test_matches_scans_on_loop_process(self):
        assert_index_matches_scans(loop_process())

    def test_loop_maps(self):
        schema = loop_process()
        index = schema.index
        loop_edges = bf.loop_edges(schema)
        assert [e.key for e in index.loop_edges()] == [e.key for e in loop_edges]
        for edge in loop_edges:
            assert index.matching_loop_start(edge.source) == bf.matching_loop_start(
                schema, edge.source
            )
            assert index.matching_loop_end(edge.target) == bf.matching_loop_end(schema, edge.target)
            assert index.loop_body(edge.target) == bf.loop_body(schema, edge.target)
            for node_id in schema.nodes:
                assert index.innermost_loop_start(node_id) == bf.innermost_loop_start(
                    schema, node_id
                )

    def test_unknown_nodes_raise(self):
        index = online_order_process().index
        with pytest.raises(SchemaError):
            index.node("nope")
        with pytest.raises(SchemaError):
            index.transitive_successors("nope")
        with pytest.raises(SchemaError):
            index.matching_loop_start("nope")

    def test_topo_rank_is_position_in_order(self):
        schema = online_order_process()
        index = schema.index
        order = index.topological_order(include_sync=False)
        rank = index.topo_rank(include_sync=False)
        assert [rank[node_id] for node_id in order] == list(range(len(order)))

    def test_entry_specs_cover_all_nodes(self):
        schema = online_order_process()
        index = schema.index
        specs = index.entry_specs()
        assert set(specs) == set(schema.node_ids())
        for node_id, (kind, control_keys, sync_keys) in specs.items():
            assert control_keys == tuple(e.key for e in schema.edges_to(node_id, EdgeType.CONTROL))
            assert sync_keys == tuple(e.key for e in schema.edges_to(node_id, EdgeType.SYNC))
            node_type = schema.node(node_id).node_type
            expected_kind = {
                NodeType.START: SchemaIndex.ENTRY_START,
                NodeType.AND_JOIN: SchemaIndex.ENTRY_AND_JOIN,
                NodeType.XOR_JOIN: SchemaIndex.ENTRY_XOR_JOIN,
            }.get(node_type, SchemaIndex.ENTRY_SINGLE)
            assert kind == expected_kind

    def test_block_tree_is_cached(self):
        schema = online_order_process()
        index = schema.index
        assert index.block_tree() is index.block_tree()

    def test_matching_join_agrees_with_blocks_module(self):
        from repro.schema.blocks import matching_join, matching_split

        schema = online_order_process()
        index = schema.index
        for node in schema.nodes.values():
            if node.node_type.is_split:
                join_id = matching_join(schema, node.node_id)
                assert index.matching_join(node.node_id) == join_id
                assert index.matching_split(join_id) == node.node_id


class TestGenerationInvalidation:
    def test_every_mutation_bumps_the_generation(self):
        schema = ProcessSchema("gen")
        mutations = [
            lambda: schema.add_node(Node("start", NodeType.START)),
            lambda: schema.add_node(Node("a", NodeType.ACTIVITY)),
            lambda: schema.add_node(Node("end", NodeType.END)),
            lambda: schema.add_edge(control_edge("start", "a")),
            lambda: schema.add_edge(control_edge("a", "end")),
            lambda: schema.replace_node(Node("a", NodeType.ACTIVITY, name="renamed")),
            lambda: schema.replace_edge(control_edge("a", "end")),
            lambda: schema.add_data_element(DataElement("x", DataType.STRING)),
            lambda: schema.add_data_edge(DataEdge("a", "x", DataAccess.WRITE)),
            lambda: schema.remove_data_edge("a", "x", DataAccess.WRITE),
            lambda: schema.remove_data_element("x"),
            lambda: schema.remove_edge("a", "end"),
            lambda: schema.remove_node("a"),
        ]
        for mutate in mutations:
            before = schema.generation
            mutate()
            assert schema.generation == before + 1, mutate

    def test_index_rebuilds_after_mutation(self):
        schema = online_order_process()
        first = schema.index
        assert schema.index is first  # stable while unchanged
        schema.add_node(Node("extra", NodeType.ACTIVITY))
        schema.add_edge(sync_edge("get_order", "extra"))
        assert first.stale
        second = schema.index
        assert second is not first
        assert "extra" in second.successors("get_order", EdgeType.SYNC)
        assert_index_matches_scans(schema)

    def test_failed_mutations_do_not_invalidate(self):
        schema = online_order_process()
        index = schema.index
        with pytest.raises(SchemaError):
            schema.add_node(Node("get_order", NodeType.ACTIVITY))
        with pytest.raises(SchemaError):
            schema.remove_edge("get_order", "does_not_exist")
        assert schema.index is index

    def test_copy_gets_an_independent_index(self):
        schema = online_order_process()
        original_index = schema.index
        clone = schema.copy(schema_id="clone")
        clone.add_node(Node("extra", NodeType.ACTIVITY))
        assert schema.index is original_index
        assert "extra" not in schema.index.node_ids
        assert "extra" in clone.index.node_ids

    def test_cyclic_schema_topo_raises_but_adjacency_works(self):
        schema = ProcessSchema("cyclic")
        schema.add_node(Node("start", NodeType.START))
        schema.add_node(Node("a", NodeType.ACTIVITY))
        schema.add_node(Node("b", NodeType.ACTIVITY))
        schema.add_node(Node("end", NodeType.END))
        schema.add_edge(control_edge("start", "a"))
        schema.add_edge(control_edge("a", "b"))
        schema.add_edge(control_edge("b", "a"))
        schema.add_edge(control_edge("b", "end"))
        index = schema.index
        assert index.successors("a") == ["b"]
        with pytest.raises(SchemaError):
            index.topological_order()


ADJACENCY_MAPS = (
    "_out_all", "_in_all", "_out_control", "_in_control",
    "_out_sync", "_in_sync", "_out_loop", "_in_loop",
)


@pytest.mark.kernel
class TestSparseAdjacency:
    """The adjacency maps hold a node only once it has an edge of that kind."""

    def test_nodes_without_sync_loop_or_data_edges_answer_empty(self):
        from repro.schema.templates import sequential_process

        schema = sequential_process(length=4)
        index = schema.index
        assert all(edge.edge_type is EdgeType.CONTROL for edge in schema.raw_edges())
        assert not list(schema.raw_data_edges())
        for node_id in schema.nodes:
            for kind in (EdgeType.SYNC, EdgeType.LOOP):
                assert index.out_edges(node_id, kind) == []
                assert index.in_edges(node_id, kind) == []
            assert index.data_edges_of(node_id) == []
        start, end = index.start_node_id(), index.end_node_id()
        assert index.in_edges(start) == [] and index.in_edges(start, EdgeType.CONTROL) == []
        assert index.out_edges(end) == [] and index.out_edges(end, EdgeType.CONTROL) == []

    @pytest.mark.parametrize("make", [online_order_process, loop_process])
    def test_no_adjacency_map_holds_an_empty_list(self, make):
        schema = make()
        index = SchemaIndex(schema)
        for name in ADJACENCY_MAPS:
            table = getattr(index, name)
            assert all(table.values()), f"{name} holds an empty list"
        # and every edge is where the scans find it
        assert_index_matches_scans(schema)

    def test_a_dangling_edge_endpoint_is_refused(self):
        schema = online_order_process()
        # bypass add_edge's endpoint check: only a bug could leave this behind
        dangling = control_edge("get_order", "ghost")
        schema._edges[dangling.key] = dangling
        with pytest.raises(KeyError, match="ghost"):
            SchemaIndex(schema)
